(* The replicated KV stack the steady and reconfig workloads drive:
   composed Paxos under the default options, an open-loop client
   population, and the correctness gate that judges the run. *)

module Engine = Rsmr_sim.Engine
module Rng = Rsmr_sim.Rng
module Counters = Rsmr_sim.Counters
module Driver = Rsmr_workload.Driver
module Kv_gen = Rsmr_workload.Kv_gen
module Keys = Rsmr_workload.Keys
module Kv = Rsmr_app.Kv
module KvCore = Rsmr_core.Service.Make (Kv)
module Options = Rsmr_core.Options
module Registry = Rsmr_obs.Registry
module Span = Rsmr_obs.Span
module History = Rsmr_checker.History
module Lin = Rsmr_checker.Linearizability.Make (Kv)

(* The reconfiguration strategy under test.  Swapping in
   [Rsmr_iface.Reconfig_strategy.stopworld] is the sensitivity check:
   downtime_ms on reconfig must rise, steady must not move. *)
let strategy = Rsmr_iface.Reconfig_strategy.composed

type shape = {
  members : int list;
  universe : int list;
  bandwidth : float option;  (** per-node NIC cap, bytes/s *)
  n_keys : int;
  value_size : int;
  read_ratio : float;
  n_clients : int;
}

let preload_client = 99
let first_client = 100

type t = {
  engine : Engine.t;
  svc : KvCore.t;
  cluster : Rsmr_iface.Cluster.t;
  obs : Registry.t;
  shape : shape;
  preload_end : float;
  spans : Span.collector option;
}

(* Build the cluster and install the preloaded state.  Everything here is
   set-up: it is timed as setup_s, never as part of a measured run. *)
let build shape ~seed ~traced =
  let engine = Engine.create ~seed () in
  let obs = Registry.create () in
  let svc =
    KvCore.create ~engine ~latency:Rsmr_net.Latency.lan ?bandwidth:shape.bandwidth
      ~options:{ Options.default with Options.strategy }
      ~universe:shape.universe ~members:shape.members ~obs ()
  in
  let cluster = KvCore.cluster svc in
  Driver.preload ~cluster ~client:preload_client
    ~commands:(Kv_gen.preload_commands ~n_keys:shape.n_keys ~value_size:shape.value_size)
    ~deadline:600.0 ();
  (* Subscribing after the preload keeps its lifecycle events out of the
     spans; an unsubscribed bus is inactive, so untraced runs emit none. *)
  let spans = if traced then Some (Span.collect (Registry.bus obs)) else None in
  { engine; svc; cluster; obs; shape; preload_end = Engine.now engine; spans }

let generator t =
  Kv_gen.create
    ~rng:(Rng.split (Engine.rng t.engine))
    ~keys:(Keys.uniform ~n:t.shape.n_keys)
    ~read_ratio:t.shape.read_ratio ~value_size:t.shape.value_size ()

(* One open-loop run.  Arrivals are Poisson at [rate] from [start] for
   [duration]; a request's latency counts from when it was due, which in
   virtual time is also when it was sent (the generator is never late). *)
type run = {
  due : float array;  (** per submitted request, in submission order *)
  latency : float array;  (** infinity for requests never replied *)
  replies : float array;  (** every reply time, sorted *)
  submitted : int;
  completed : int;
  overloaded : bool;  (** cut short: the backlog kept growing *)
  ops : History.op list;
  cost : Measure.cost;  (** host cost of the engine run, set-up excluded *)
  events : int;
}

let slice = 0.01

let drive t ~rate ~start ~duration ~drain ?backlog_cap ?(schedule = fun () -> ()) () =
  let gen = generator t in
  let index : (int * int, int) Hashtbl.t = Hashtbl.create 4096 in
  let due = ref [] and n_due = ref 0 in
  let lat = Hashtbl.create 4096 in
  let replies = ref [] and ops = ref [] in
  let stats =
    Driver.run_open ~cluster:t.cluster ~n_clients:t.shape.n_clients
      ~first_client_id:first_client
      ~gen:(fun ~client ~seq ->
        Hashtbl.replace index (client, seq) !n_due;
        due := Engine.now t.engine :: !due;
        incr n_due;
        Kv_gen.next gen)
      ~rate
      ~on_event:(fun e ->
        let i = Hashtbl.find index (e.Driver.ev_client, e.Driver.ev_seq) in
        Hashtbl.replace lat i (e.Driver.ev_replied -. e.Driver.ev_invoked);
        replies := e.Driver.ev_replied :: !replies;
        ops :=
          { History.client = e.Driver.ev_client; cmd = e.Driver.ev_cmd;
            rsp = e.Driver.ev_rsp; invoked = e.Driver.ev_invoked;
            replied = e.Driver.ev_replied }
          :: !ops)
      ~start ~duration ()
  in
  schedule ();
  let stop = start +. duration in
  let deadline = stop +. drain in
  let e0 = Engine.events_executed t.engine in
  let overloaded = ref false in
  let rec pump horizon =
    Engine.run ~until:horizon t.engine;
    let outstanding = stats.Driver.submitted - stats.Driver.completed in
    (match backlog_cap with
     | Some cap when outstanding > cap -> overloaded := true
     | _ -> ());
    if !overloaded then ()
    else if horizon >= stop && outstanding = 0 then ()
    else if horizon >= deadline then ()
    else pump (horizon +. slice)
  in
  let (), cost = Measure.timed (fun () -> pump (Engine.now t.engine +. slice)) in
  let events = Engine.events_executed t.engine - e0 in
  let due = Array.of_list (List.rev !due) in
  let latency =
    Array.init (Array.length due) (fun i ->
        Option.value (Hashtbl.find_opt lat i) ~default:Float.infinity)
  in
  { due; latency; replies = Measure.sorted_of_list !replies;
    submitted = stats.Driver.submitted; completed = stats.Driver.completed;
    overloaded = !overloaded; ops = List.rev !ops; cost; events }

(* Exact latencies of the requests due in [lo, hi), sorted. *)
let window_latencies run ~lo ~hi =
  let acc = ref [] in
  Array.iteri
    (fun i d -> if d >= lo && d < hi then acc := run.latency.(i) :: !acc)
    run.due;
  Measure.sorted_of_list !acc

(* ---- correctness gate ---- *)

type verdict = {
  converged : bool;  (** every member holds a byte-identical KV state *)
  keys_checked : int;
  not_linearizable : int;
  inconclusive : int;
}

let key_of_cmd cmd =
  match Kv.decode_command cmd with
  | Kv.Get k | Kv.Put (k, _) | Kv.Delete k | Kv.Cas (k, _, _) | Kv.Append (k, _) -> k

(* Let the members settle, then compare their states byte for byte and
   check a seeded sample of keys for linearizability.  The preload is
   part of each key's history: one Put that completed before any
   measured request was sent. *)
let judge t run ~seed ~sample =
  Engine.run ~until:(Engine.now t.engine +. 0.5) t.engine;
  let members = KvCore.current_members t.svc in
  let snapshots =
    List.map (fun n -> Option.map Kv.snapshot (KvCore.app_state t.svc n)) members
  in
  let converged =
    match snapshots with
    | Some s :: rest -> List.for_all (fun o -> o = Some s) rest
    | _ -> false
  in
  let rng = Rng.create (seed * 7919 + 17) in
  let keys = Hashtbl.create sample in
  while Hashtbl.length keys < min sample t.shape.n_keys do
    Hashtbl.replace keys (Keys.key_name (Rng.int rng t.shape.n_keys)) ()
  done;
  let preload =
    List.init t.shape.n_keys (fun i ->
        { History.client = preload_client;
          cmd = Kv.encode_command (Kv.Put (Keys.key_name i, Kv_gen.value_of_size t.shape.value_size ~seed:i));
          rsp = Kv.encode_response Kv.Ok; invoked = 0.0; replied = t.preload_end })
  in
  let history = History.of_ops (preload @ run.ops) in
  let bad = ref 0 and inconclusive = ref 0 in
  List.iter
    (fun key ->
      let h = History.filter history ~f:(fun op -> key_of_cmd op.History.cmd = key) in
      match Lin.check h with
      | Lin.Linearizable -> ()
      | Lin.Not_linearizable -> incr bad
      | Lin.Inconclusive -> incr inconclusive)
    (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) keys []));
  { converged; keys_checked = Hashtbl.length keys; not_linearizable = !bad;
    inconclusive = !inconclusive }

let ms x = x *. 1000.0

(* Stage split of each command's life, from the lifecycle spans. *)
let span_metrics tbl spans ~reconfigs =
  let spans = List.filter (fun sp -> sp.Span.sp_client >= first_client) spans in
  let stage f = Measure.sorted_of_list (List.filter_map f spans) in
  let both name a =
    Measure.add tbl (name ^ ".p50") (ms (Measure.percentile a 0.5)) "ms";
    Measure.add tbl (name ^ ".p999") (ms (Measure.percentile a 0.999)) "ms"
  in
  both "span.submit_to_ordered_ms"
    (stage (fun sp -> Option.map (fun (_, o) -> o -. sp.Span.sp_submitted) sp.Span.sp_ordered));
  both "span.ordered_to_applied_ms"
    (stage (fun sp ->
         match (sp.Span.sp_ordered, sp.Span.sp_applied) with
         | Some (_, o), Some (_, a) -> Some (a -. o)
         | _ -> None));
  both "span.applied_to_replied_ms"
    (stage (fun sp ->
         match (sp.Span.sp_applied, sp.Span.sp_replied) with
         | Some (_, a), Some r -> Some (r -. a)
         | _ -> None));
  let handoff = (Span.summarize spans).Span.sm_handoff in
  Measure.add tbl "span.handoff_ms"
    (if Rsmr_sim.Histogram.count handoff = 0 then 0.0
     else ms (Rsmr_sim.Histogram.percentile handoff 50.0))
    "ms";
  (* Reconfig submit -> first reply to a command applied in the new
     epoch; epoch i+1 is the one the i-th reconfiguration creates. *)
  let changes =
    List.mapi
      (fun i submitted ->
        let firsts =
          List.filter_map
            (fun sp ->
              match (sp.Span.sp_applied, sp.Span.sp_replied) with
              | Some (e, _), Some r when e = i + 1 && r >= submitted -> Some (r -. submitted)
              | _ -> None)
            spans
        in
        match firsts with [] -> None | l -> Some (List.fold_left Float.min Float.infinity l))
      reconfigs
  in
  Measure.add tbl "core.epoch_change_ms"
    (match List.filter_map Fun.id changes with [] -> 0.0 | l -> ms (Measure.median l))
    "ms";
  List.fold_left (fun acc sp -> acc + sp.Span.sp_retries) 0 spans

let wedged_window_ms obs =
  let h =
    Registry.histogram obs "wedged_window_s"
      ~labels:[ ("strategy", strategy.Rsmr_iface.Reconfig_strategy.name) ]
  in
  if Rsmr_sim.Histogram.count h = 0 then 0.0 else ms (Rsmr_sim.Histogram.percentile h 50.0)

(* Host cost of the application layer over the workload's own commands:
   codec round trip, and apply starting from the preloaded state. *)
let app_metrics tbl t ~n_cmds =
  let gen = generator t in
  let cmds = Array.init n_cmds (fun _ -> Kv_gen.next gen) in
  let decoded = Array.map Kv.decode_command cmds in
  let state = Option.get (KvCore.app_state t.svc (List.hd (KvCore.current_members t.svc))) in
  let _, slow = Measure.calibrated ignore in
  (* median of five runs, in calibrated seconds *)
  let time f =
    Measure.median
      (List.init 5 (fun _ -> (snd (Measure.timed f)).Measure.cpu_s /. slow))
  in
  let per_cmd s = s *. 1e9 /. float_of_int n_cmds in
  Measure.add tbl "app.codec_ns_per_cmd"
    (per_cmd
       (time (fun () ->
            Array.iter (fun s -> ignore (Kv.encode_command (Kv.decode_command s))) cmds)))
    "ns";
  Measure.add tbl "app.apply_ns_per_cmd"
    (per_cmd
       (time (fun () ->
            ignore (Array.fold_left (fun s cmd -> fst (Kv.apply s cmd)) state decoded))))
    "ns";
  (* State transfer's host work on the real state: snapshot encode +
     chunking on the donor, reassembly + decode on the recipient. *)
  let snap = Kv.snapshot state in
  Measure.add tbl "core.snapshot_ms"
    (ms
       (time (fun () ->
            let wire = Rsmr_core.Snapshot.encode { Rsmr_core.Snapshot.app = snap; sessions = "" } in
            let chunks = Rsmr_core.Snapshot.chunk wire ~size:Options.default.Options.chunk_size in
            ignore (Rsmr_core.Snapshot.decode (Rsmr_core.Snapshot.assemble chunks)))))
    "ms"

(* ---- one workload run: set-up, timed reps, gate, metrics ---- *)

type plan = {
  shape : shape;
  rate : float;
  warm : float;  (** requests due in the first [warm] seconds are not measured *)
  measured : float;  (** the measured arrival interval that follows *)
  drain : float;
  reconfigs : (float * int list) list;  (** offsets from the start, targets *)
  sample : int;  (** keys checked for linearizability *)
}

type rep = {
  t : t;
  run : run;
  start : float;
  base : Layers.counts;  (** registry counters before the run *)
  digest : string;  (** every virtual-time output of the rep *)
}

let rep plan ~seed ~traced =
  let t = build plan.shape ~seed ~traced in
  let start = Engine.now t.engine +. 0.01 in
  let base = Layers.counts t.obs in
  let schedule () =
    List.iter
      (fun (off, members) ->
        ignore
          (Engine.at t.engine ~time:(start +. off) (fun () ->
               t.cluster.Rsmr_iface.Cluster.control.Rsmr_iface.Overlay.reconfigure members)))
      plan.reconfigs
  in
  let run =
    drive t ~rate:plan.rate ~start ~duration:(plan.warm +. plan.measured) ~drain:plan.drain
      ~schedule ()
  in
  let digest =
    Digest.to_hex
      (Digest.string (Marshal.to_string (run.due, run.latency, run.replies, run.events) []))
  in
  { t; run; start; base; digest }

(* What a workload reads from the judged rep of one cluster. *)
type reading = {
  r_digest : string;
  r_lat : float array;  (** measured requests' latencies, sorted *)
  r_gaps : float list;  (** reply-gap samples for downtime_ms *)
  r_run : run;  (** without its history, which only the gate needs *)
  r_verdict : verdict;
  r_failures : string list;
}

let read plan ~seed ~downtime ~check r =
  let m0 = r.start +. plan.warm in
  { r_digest = r.digest;
    r_lat = window_latencies r.run ~lo:m0 ~hi:(m0 +. plan.measured);
    r_gaps = downtime r;
    r_run = { r.run with ops = [] };
    r_verdict = judge r.t r.run ~seed ~sample:plan.sample;
    r_failures = check r }

(* A rep runs [plan.clusters] independent clusters, each from its own
   seed derived from the benchmark seed; their samples are pooled.

   [downtime r] gives a cluster's reply-gap samples, whose pooled median
   is downtime_ms; [sustainable served] the throughput figure, given the
   measured requests served per virtual second; [check r] extra
   correctness failures. *)
let run_workload plan ~clusters ~seed ~seconds ~trace ~downtime ~sustainable ~check ~info =
  let e2e = Measure.table () and layers = Measure.table () in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let seeds = List.init clusters (fun j -> (seed * clusters) + j) in
  (* Set-up is timed first, on a fresh heap, in 7 samples.  Each repeats
     the build until it has taken 50 ms of CPU, so a small cluster's
     few-millisecond set-up is not lost in clock noise. *)
  let setups =
    List.init 7 (fun _ ->
        let sample () =
          let t0 = Measure.cpu_now () in
          let rec go n =
            ignore (build plan.shape ~seed ~traced:false);
            let dt = Measure.cpu_now () -. t0 in
            if dt >= 0.05 then dt /. float_of_int n else go (n + 1)
          in
          go 1
        in
        let s, k = Measure.calibrated sample in
        s /. k)
  in
  (* Rep 1 is judged and read for the virtual-time metrics; every rep is
     timed, and all must reproduce rep 1's virtual outputs exactly.  Only
     the readings are kept, so one cluster is live at a time. *)
  let readings = ref [] in
  let reps =
    Measure.repeat ~seconds ~min_reps:3 ~max_reps:40 (fun i ->
        List.map
          (fun seed ->
            let r, k = Measure.calibrated (fun () -> rep plan ~seed ~traced:false) in
            if i = 1 then readings := read plan ~seed ~downtime ~check r :: !readings;
            (r.digest, { r.run.cost with Measure.cpu_s = r.run.cost.Measure.cpu_s /. k },
             r.run.completed))
          seeds)
  in
  let readings = List.rev !readings in
  let first = List.hd readings in
  if List.exists (List.exists2 (fun rd (d, _, _) -> d <> rd.r_digest) readings) reps then
    problem "virtual outputs differ between reps of one seed";
  List.iter
    (fun rd ->
      let run = rd.r_run and v = rd.r_verdict in
      let unreplied = run.submitted - run.completed in
      if unreplied > 0 then problem "%d requests never replied" unreplied;
      if not v.converged then problem "members' KV states differ";
      if v.not_linearizable > 0 then problem "%d sampled keys not linearizable" v.not_linearizable;
      List.iter (fun s -> problem "%s" s) rd.r_failures)
    readings;
  let total f = List.fold_left (fun n rd -> n + f rd.r_run) 0 readings in
  let submitted = total (fun r -> r.submitted) and completed = total (fun r -> r.completed) in
  let lat = Measure.sorted_of_list (List.concat_map (fun rd -> Array.to_list rd.r_lat) readings) in
  let served = Array.fold_left (fun n l -> if Float.is_finite l then n + 1 else n) 0 lat in
  let sum_costs f rep = List.fold_left (fun acc (_, c, _) -> acc +. f c) 0.0 rep in
  let cpu = List.map (sum_costs (fun c -> c.Measure.cpu_s)) reps in
  if not trace then begin
    (* Peak heap of the timed reps, read before [sustainable] may run
       more work. *)
    let heap = Measure.top_heap_mb () in
    Measure.add e2e "setup_s" (Measure.median setups) "s";
    Measure.add e2e "latency_p50_ms" (ms (Measure.percentile lat 0.5)) "ms";
    Measure.add e2e "latency_p999_ms" (ms (Measure.percentile lat 0.999)) "ms";
    Measure.add e2e "downtime_ms" (ms (Measure.median (List.concat_map (fun rd -> rd.r_gaps) readings))) "ms";
    Measure.add e2e "sustainable_tps"
      (sustainable (float_of_int served /. (plan.measured *. float_of_int clusters))) "1/s";
    Measure.add e2e "host_work_per_s" (float_of_int completed /. Measure.median cpu) "1/s";
    Measure.add e2e "alloc_words_per_work"
      (sum_costs (fun c -> c.Measure.minor_words) (List.hd reps) /. float_of_int completed) "words";
    Measure.add e2e "top_heap_mb" heap "MB";
    Measure.add e2e "ok_frac" (float_of_int completed /. float_of_int submitted) "frac"
  end
  else begin
    (* The traced run repeats the first cluster with a span collector on
       the bus; its virtual outputs must not move. *)
    let traced, k = Measure.calibrated (fun () -> rep plan ~seed:(List.hd seeds) ~traced:true) in
    if traced.digest <> first.r_digest then problem "tracing changed the virtual-time outputs";
    let tr = traced.run in
    let untraced = List.map (fun rep -> let _, c, _ = List.hd rep in c) reps in
    let untraced_cpu = Measure.median (List.map (fun c -> c.Measure.cpu_s) untraced) in
    let c = Layers.delta ~before:traced.base ~after:(Layers.counts traced.t.obs) in
    let cmds = tr.completed in
    Layers.engine layers ~cmds ~events:tr.events ~cpu:untraced_cpu
      ~collections:(List.hd untraced).Measure.minor_collections;
    Layers.net layers c ~cmds;
    let spans = Span.finalize (Option.get traced.t.spans) in
    let submits = List.map (fun (off, _) -> traced.start +. off) plan.reconfigs in
    let retries = span_metrics layers spans ~reconfigs:submits in
    Layers.client layers c ~cmds ~retries;
    Layers.smr layers c ~cmds;
    Layers.core layers c ~reconfigs:(List.length plan.reconfigs)
      ~wedged_ms:(wedged_window_ms traced.t.obs);
    app_metrics layers traced.t ~n_cmds:20_000;
    Measure.add layers "trace.overhead_frac" ((tr.cost.Measure.cpu_s /. k /. untraced_cpu) -. 1.0) "frac"
  end;
  Measure.add layers "latency.samples" (float_of_int (Array.length lat)) "count";
  let info =
    [ ("latency samples", string_of_int (Array.length lat));
      ("generator lateness_ms", "0 (virtual time: every request is sent when due)");
      ("offered rate", Printf.sprintf "%.0f/s" plan.rate);
      ("clusters per rep", Printf.sprintf "%d, seeds %s" clusters
         (String.concat "," (List.map string_of_int seeds)));
      ("keys checked",
       Printf.sprintf "%d, %d inconclusive"
         (List.fold_left (fun n rd -> n + rd.r_verdict.keys_checked) 0 readings)
         (List.fold_left (fun n rd -> n + rd.r_verdict.inconclusive) 0 readings)) ]
    @ info ()
    @ [ Measure.spread "host cpu_s per rep" cpu; Measure.spread "setup_s samples" setups ]
  in
  { Measure.e2e; layers; attempted = submitted;
    failed = (submitted - completed) + List.length !problems; problems = List.rev !problems; info }
