(* steady: the fault-free fast path at full rate.

   Three replicas of composed Paxos over LAN latency, 1,000 uniform keys,
   50/50 Get/Put of 64-byte values, open-loop Poisson arrivals from 64
   clients.  Endpoint coalescing, the network, the Paxos block, KV apply
   and the engine are on the critical path; the composition layer only
   dispatches.  No faults and no reconfiguration, so this is the control
   for any change to the reconfiguration path. *)

module S = Kv_stack

let shape =
  { S.members = [ 0; 1; 2 ]; universe = [ 0; 1; 2 ]; bandwidth = None;
    n_keys = 1_000; value_size = 64; read_ratio = 0.5; n_clients = 64 }

(* The latency limit on p99.9 that defines a sustainable rate. *)
let limit = 0.010

(* Rates climb to just past the knee (about 105k txn/s).  The ladder
   stops at the first rung that misses the limit. *)
let ladder = [ 10_000.; 50_000.; 80_000.; 90_000.; 95_000.; 100_000.; 105_000.;
               110_000.; 115_000.; 120_000.; 130_000.; 140_000. ]

let rung_warm = 0.05 and rung_measure = 0.25

(* Latency, downtime and host cost are read at this fixed rate, about
   half of capacity. *)
let reference_rate = 50_000.
let warm = 0.1 and measure = 0.5

type rung = { rate : float; p999 : float; samples : int; overloaded : bool; pass : bool }

(* One rung on a fresh cluster.  A rung whose backlog passes twice what
   the latency limit allows at that rate is cut short there and misses
   the limit, so an overloaded rung costs a bounded amount of work. *)
let run_rung ~seed rate =
  let t = S.build shape ~seed ~traced:false in
  let start = Rsmr_sim.Engine.now t.S.engine +. 0.01 in
  let backlog_cap = int_of_float (2.0 *. rate *. limit) in
  let r =
    S.drive t ~rate ~start ~duration:(rung_warm +. rung_measure) ~drain:0.5 ~backlog_cap ()
  in
  let lat = S.window_latencies r ~lo:(start +. rung_warm) ~hi:(start +. rung_warm +. rung_measure) in
  let p999 = Measure.percentile lat 0.999 in
  { rate; p999; samples = Array.length lat; overloaded = r.S.overloaded;
    pass = (not r.S.overloaded) && p999 <= limit }

let climb ~seed =
  let rec go acc = function
    | [] -> List.rev acc
    | rate :: rest ->
      let r = run_rung ~seed rate in
      if r.pass then go (r :: acc) rest else List.rev (r :: acc)
  in
  go [] ladder

let plan =
  { S.shape; rate = reference_rate; warm; measured = measure; drain = 1.0;
    reconfigs = []; sample = 32 }

let run ~seed ~seconds ~trace =
  let rungs = lazy (climb ~seed) in
  S.run_workload plan ~clusters:1 ~seed ~seconds ~trace
    ~downtime:(fun r ->
      (* Control for downtime_ms: the same longest-reply-gap statistic
         over twenty equal windows of the measured interval. *)
      let w = measure /. 20.0 in
      List.init 20 (fun i ->
          let lo = r.S.start +. warm +. (float_of_int i *. w) in
          Measure.longest_gap r.S.run.S.replies ~lo ~hi:(lo +. w)))
    ~sustainable:(fun _served ->
      List.fold_left (fun acc r -> if r.pass then r.rate else acc) 0.0 (Lazy.force rungs))
    ~check:(fun _ -> [])
    ~info:(fun () ->
      [ ("ladder",
         if not (Lazy.is_val rungs) then "not run by the traced run"
         else
           String.concat " "
             (List.map
                (fun r ->
                  Printf.sprintf "%.0f:%s(p999=%.3fms,n=%d%s)" r.rate
                    (if r.pass then "ok" else "miss") (S.ms r.p999) r.samples
                    (if r.overloaded then ",backlog" else ""))
                (Lazy.force rungs))) ])
