(* Deterministic wire-cost probe.

     dune exec bench/main.exe -- LABEL

   Writes BENCH_<LABEL>.json (schema rsmr-bench/2, DESIGN.md §8) and
   METRICS_<LABEL>.json (the single-service probe's rsmr-metrics/1
   registry).  Every figure comes from virtual-time counters and
   histograms, so it is exact for a seed on any host and bench_gate
   compares it against a committed baseline.  The experiment tables are
   `rsmr experiments`; host cost is rsbench/. *)

module Counters = Rsmr_sim.Counters
module Registry = Rsmr_obs.Registry

(* The simulator passes messages by value, so network counters give exact,
   host-independent wire accounting.  [marginal_cost] measures the
   steady-state marginal cost of [n_keys] preload commands: a short
   warm-up preload by [client] first elects a leader and settles the
   clients (otherwise the pre-election redirect churn — a fixed startup
   cost — dominates the per-command figure), then the measured run by
   [client + 1] reports the [net] counter delta across exactly [n_keys]
   commands.  [during] wraps the measured run, so a probe can observe
   that run alone; its result is returned beside
   [(messages_sent, bytes_sent)]. *)
let marginal_cost ~cluster ~obs ~client ~n_keys ~during =
  let preload ~client ~n_keys ~deadline =
    Rsmr_workload.Driver.preload ~cluster ~client
      ~commands:(Rsmr_workload.Kv_gen.preload_commands ~n_keys ~value_size:32)
      ~deadline ()
  in
  preload ~client ~n_keys:50 ~deadline:60.0;
  let net = Registry.counters obs "net" in
  let sent0 = Counters.get net "sent" in
  let bytes0 = Counters.get net "bytes_sent" in
  let observed =
    during (fun () -> preload ~client:(client + 1) ~n_keys ~deadline:120.0)
  in
  ( (Counters.get net "sent" - sent0, Counters.get net "bytes_sent" - bytes0),
    observed )

(* One 3-replica composed service.  Span collection rides the measured
   run only: every command's submit -> applied -> replied path lands in
   the metrics document. *)
let wire_cost () =
  let module KvCore = Rsmr_core.Service.Make (Rsmr_app.Kv) in
  let module Span = Rsmr_obs.Span in
  let engine = Rsmr_sim.Engine.create ~seed:3 () in
  let svc = KvCore.create ~engine ~members:[ 0; 1; 2 ] () in
  let cluster = KvCore.cluster svc in
  let obs = cluster.Rsmr_iface.Cluster.obs in
  let n = 500 in
  let (sent, bytes), spans =
    marginal_cost ~cluster ~obs ~client:98 ~n_keys:n ~during:(fun run ->
        let coll = Span.collect (Registry.bus obs) in
        run ();
        Span.finalize coll)
  in
  Span.record obs spans;
  let fn = float_of_int n in
  ( [
      ("commands", fn);
      ("messages_sent", float_of_int sent);
      ("bytes_sent", float_of_int bytes);
      ("messages_per_command", float_of_int sent /. fn);
      ("bytes_per_command", float_of_int bytes /. fn);
      ("span_resolved_fraction", Span.resolved_fraction (Span.summarize spans));
    ],
    obs )

(* Same probe at platform scale: two composed shards plus the replicated
   directory over one pool, all overlays accounting into a shared
   registry — so the per-command figures price the whole platform,
   including the directory's (amortised) publish traffic. *)
let shard_wire_cost () =
  let module Platform = Rsmr_shard.Platform in
  let engine = Rsmr_sim.Engine.create ~seed:3 () in
  let n = 500 in
  let pf =
    Platform.Core.create ~engine ~pool:[ 0; 1; 2; 3; 4; 5 ]
      ~shards:[ [ 0; 1; 2 ]; [ 3; 4; 5 ] ]
      ~keyspace:(Rsmr_shard.Keyspace.ranges ~shards:2 ~n_keys:n)
      ()
  in
  let (sent, bytes), () =
    marginal_cost ~cluster:(Platform.Core.cluster pf)
      ~obs:(Platform.Core.obs pf) ~client:(Platform.Core.first_client_id pf)
      ~n_keys:n ~during:(fun run -> run ())
  in
  let fn = float_of_int n in
  [
    ("shard2_commands", fn);
    ("shard2_messages_per_command", float_of_int sent /. fn);
    ("shard2_bytes_per_command", float_of_int bytes /. fn);
  ]

(* Per-strategy handoff accounting: one fleet replacement under each
   composition-driver reconfiguration strategy, measured in virtual time.
   The wedge->announce window comes from the service's own
   [wedged_window_s] histogram (labelled by strategy) and the transfer
   volume from the svc counter.  This is where the matchmaker claim is
   priced: its early prepare should shrink the window below composed's
   for the same transfer bytes.  The probe runs over the WAN latency
   model: with sub-millisecond RTTs the prepare->wedge gap (one commit
   round) is too small for the head start to be measurable. *)
let reconfig_cost () =
  let module KvCore = Rsmr_core.Service.Make (Rsmr_app.Kv) in
  let module Strategy = Rsmr_iface.Reconfig_strategy in
  let probe strategy =
    let name = strategy.Strategy.name in
    let engine = Rsmr_sim.Engine.create ~seed:3 () in
    let svc =
      KvCore.create ~engine ~latency:Rsmr_net.Latency.wan
        ~options:{ Rsmr_core.Options.default with Rsmr_core.Options.strategy }
        ~universe:[ 0; 1; 2; 3; 4; 5 ] ~members:[ 0; 1; 2 ] ()
    in
    let cluster = KvCore.cluster svc in
    let obs = cluster.Rsmr_iface.Cluster.obs in
    Rsmr_workload.Driver.preload ~cluster ~client:98
      ~commands:
        (Rsmr_workload.Kv_gen.preload_commands ~n_keys:200 ~value_size:64)
      ~deadline:60.0 ();
    Rsmr_iface.Overlay.reconfigure cluster.Rsmr_iface.Cluster.control
      [ 3; 4; 5 ];
    Rsmr_sim.Engine.run
      ~until:(Rsmr_sim.Engine.now engine +. 30.0)
      engine;
    let h =
      Registry.histogram obs "wedged_window_s" ~labels:[ ("strategy", name) ]
    in
    let svcc = Registry.counters obs "svc" in
    [
      (name ^ "_wedged_window_ms", Rsmr_sim.Histogram.mean h *. 1000.0);
      ( name ^ "_transfer_bytes",
        float_of_int (Counters.get svcc "transfer_bytes") );
    ]
  in
  List.concat_map probe
    [ Strategy.composed; Strategy.matchmaker; Strategy.stopworld ]

let json_escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 32 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s

(* One line per section: bench_gate scans the [wire_cost] object as a
   flat [{"k": v, ...}] run of %.6g numbers. *)
let write_json ~label ~wire =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"schema\": \"rsmr-bench/2\",\n  \"label\": \"";
  json_escape b label;
  Buffer.add_string b "\",\n  \"wire_cost\": {";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "\"%s\": " k;
      if Float.is_nan v then Buffer.add_string b "null"
      else Printf.bprintf b "%.6g" v)
    wire;
  Buffer.add_string b "}\n}\n";
  let path = "BENCH_" ^ label ^ ".json" in
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "wrote %s\n%!" path

let () =
  let label =
    match Sys.argv with
    | [| _; label |] when label <> "" && label.[0] <> '-' -> label
    | _ ->
      prerr_endline "usage: main.exe LABEL";
      exit 2
  in
  let wire, obs = wire_cost () in
  write_json ~label ~wire:(wire @ shard_wire_cost () @ reconfig_cost ());
  Registry.set_meta obs "label" label;
  let mpath = "METRICS_" ^ label ^ ".json" in
  Registry.save obs ~path:mpath;
  Printf.printf "wrote %s\n%!" mpath
