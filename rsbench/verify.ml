(* verify: the cost of checking, not of serving.

   Scope exhausts one fixed scope of the composed strategy, replaying
   every state from the root through the real engine, network and service
   with batching off.  Then a crucible soak runs the default scenario
   family over a seed range drawn from the benchmark seed, with drop,
   duplicate, crash and partition faults, and judges each run by all five
   oracles, linearizability included.  Neither path is hot in steady or
   reconfig. *)

module Scope = Rsmr_mc.Scope
module Harness = Rsmr_mc.Harness
module Explore = Rsmr_mc.Explore
module Runner = Rsmr_crucible.Runner
module Oracle = Rsmr_crucible.Oracle
module Generate = Rsmr_crucible.Generate
module History = Rsmr_checker.History
module Histogram = Rsmr_sim.Histogram

let scope_spec = "minimal,commands=1,drops=0"

(* Distinct states of [scope_spec] under the composed strategy; the
   exhaustion count is part of the correctness gate. *)
let expected_visited = 5_657

let scope =
  match Scope.parse scope_spec with Ok s -> s | Error e -> invalid_arg e

let proto = Harness.core
let seeds_per_run = 160

(* What one crucible seed leaves behind; the run's report is dropped
   as soon as it is read, so the soak's memory stays that of one run. *)
type soak_run = {
  seed : int;
  failures : (string * string) list;
  inconclusive : int;
  run_s : float;
  judge_s : float;
  latencies : float list;
  gap : float;  (** longest gap between client replies *)
  completed : int;
  busy : float;  (** virtual seconds from first invocation to last reply *)
  counts : Layers.counts;
  events : int;
  retries : int;
  handoff : Histogram.t;
  wedged : Histogram.t;
  epochs : int;  (** newest epoch any node reached *)
}

let soak seeds =
  List.map
    (fun seed ->
      let scenario = Generate.scenario ~seed in
      let report, run_cost = Measure.timed (fun () -> Runner.run proto scenario) in
      let outcome, judge_cost = Measure.timed (fun () -> Oracle.check report) in
      let ops = History.ops report.Runner.history in
      let replies = Measure.sorted_of_list (List.map (fun o -> o.History.replied) ops) in
      let n = Array.length replies in
      let first = List.fold_left (fun m o -> Float.min m o.History.invoked) Float.infinity ops in
      { seed; failures = Oracle.failures outcome;
        inconclusive = List.length (Oracle.inconclusives outcome);
        run_s = run_cost.Measure.cpu_s; judge_s = judge_cost.Measure.cpu_s;
        latencies = List.map (fun o -> o.History.replied -. o.History.invoked) ops;
        gap = (if n < 2 then 0.0 else Measure.longest_gap replies ~lo:replies.(0) ~hi:replies.(n - 1));
        completed = report.Runner.completed;
        busy = (if n = 0 then 0.0 else replies.(n - 1) -. first);
        counts = Layers.counts report.Runner.obs;
        events = report.Runner.events_executed;
        retries = report.Runner.spans.Rsmr_obs.Span.sm_retries;
        handoff = report.Runner.spans.Rsmr_obs.Span.sm_handoff;
        wedged =
          Rsmr_obs.Registry.histogram report.Runner.obs "wedged_window_s"
            ~labels:[ ("strategy", Runner.proto_name proto) ];
        epochs =
          List.fold_left
            (fun m (_, stats) -> List.fold_left (fun m s -> max m s.Rsmr_core.Service.es_epoch) m stats)
            0 report.Runner.epoch_stats })
    seeds

(* Explore's breadth-first search, re-stated here so each call into the
   harness can be timed: replay (with the step that extends the path),
   fingerprint and the property check.  It must visit exactly the states
   Explore does. *)
let traced_bfs () =
  let visited = Hashtbl.create 4096 in
  let n = ref 0 and steps = ref 0 in
  let t_replay = ref 0.0 and t_fp = ref 0.0 and t_check = ref 0.0 in
  let clock acc f =
    let t0 = Measure.cpu_now () in
    let r = f () in
    acc := !acc +. (Measure.cpu_now () -. t0);
    r
  in
  let replay trace =
    steps := !steps + List.length trace;
    clock t_replay (fun () -> Harness.replay ~proto ~scope ~mutate:false trace)
  in
  let note h =
    let fp = clock t_fp (fun () -> Harness.fingerprint h) in
    if Hashtbl.mem visited fp then false
    else begin
      Hashtbl.replace visited fp ();
      incr n;
      true
    end
  in
  let violation = ref None in
  let q = Queue.create () in
  ignore (note (replay []));
  Queue.add [] q;
  while (not (Queue.is_empty q)) && !violation = None do
    let trace = Queue.take q in
    if List.length trace < scope.Scope.depth then begin
      let h = replay trace in
      List.iteri
        (fun i c ->
          if !violation = None then begin
            let hc = if i = 0 then h else replay trace in
            incr steps;
            clock t_replay (fun () -> Harness.apply hc c);
            match clock t_check (fun () -> Harness.violation hc) with
            | Some v -> violation := Some v
            | None -> if note hc then Queue.add (trace @ [ c ]) q
          end)
        (Harness.enabled h)
    end
  done;
  (!n, !steps, !t_replay, !t_fp, !t_check, !violation)

let run ~seed ~seconds ~trace =
  let e2e = Measure.table () and layers = Measure.table () in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let seeds = List.init seeds_per_run (fun i -> (seed * seeds_per_run) + i) in
  (* Set-up is timed first, on a fresh heap, in 7 samples.  It takes a few
     hundred microseconds, so each sample times a hundred set-ups and
     reports their mean. *)
  let setups =
    List.init 7 (fun _ ->
        let ((), c), k =
          Measure.calibrated (fun () ->
              Measure.timed (fun () ->
                  for _ = 1 to 100 do
                    ignore (Harness.create ~proto ~scope ~mutate:false ());
                    List.iter (fun s -> ignore (Generate.scenario ~seed:s)) seeds
                  done))
        in
        c.Measure.cpu_s /. 100.0 /. k)
  in
  let explorations =
    Measure.repeat ~seconds ~min_reps:3 ~max_reps:60 (fun _ ->
        let (st, c), k =
          Measure.calibrated (fun () ->
              Measure.timed (fun () ->
                  Explore.run ~proto ~scope ~mutate:false ~strategy:Explore.Bfs ()))
        in
        (st, { c with Measure.cpu_s = c.Measure.cpu_s /. k }))
  in
  (* the Scope search's peak heap; the soak below is seed-dependent *)
  let heap = Measure.top_heap_mb () in
  Gc.compact ();
  let (runs, soak_cost), soak_k = Measure.calibrated (fun () -> Measure.timed (fun () -> soak seeds)) in
  let failed_seeds = List.filter (fun r -> r.failures <> []) runs in
  List.iter
    (fun r ->
      List.iter
        (fun (oracle, why) ->
          problem "crucible seed %d: %s: %s" r.seed oracle why)
        r.failures)
    failed_seeds;
  let scope_failure =
    List.find_map
      (fun (st, _) ->
        match st.Explore.violation with
        | Some (v, _) -> Some ("Scope violation: " ^ v)
        | None when st.Explore.visited <> expected_visited || not st.Explore.exhausted ->
          Some
            (Printf.sprintf "Scope visited %d states (exhausted=%b), expected %d"
               st.Explore.visited st.Explore.exhausted expected_visited)
        | None -> None)
      explorations
  in
  Option.iter (problem "%s") scope_failure;
  let attempted = seeds_per_run + 1 in
  let failed = List.length failed_seeds + if scope_failure = None then 0 else 1 in
  let lat = Measure.sorted_of_list (List.concat_map (fun r -> r.latencies) runs) in
  let total f = List.fold_left (fun n r -> n + f r) 0 runs in
  let completed = total (fun r -> r.completed) in
  let busy = List.fold_left (fun acc r -> acc +. r.busy) 0.0 runs in
  let states = List.map (fun (st, c) -> float_of_int st.Explore.visited /. c.Measure.cpu_s) explorations in
  let scope_cpu = List.map (fun (_, c) -> c.Measure.cpu_s) explorations in
  let first_cost = snd (List.hd explorations) in
  if not trace then begin
    Measure.add e2e "setup_s" (Measure.median setups) "s";
    Measure.add e2e "latency_p50_ms" (Kv_stack.ms (Measure.percentile lat 0.5)) "ms";
    Measure.add e2e "latency_p999_ms" (Kv_stack.ms (Measure.percentile lat 0.999)) "ms";
    (* The longest outage nine in ten faulted runs stay within: the mean
       is swayed by the few scenarios whose faults stall clients longest. *)
    Measure.add e2e "downtime_ms"
      (Kv_stack.ms (Measure.percentile (Measure.sorted_of_list (List.map (fun r -> r.gap) runs)) 0.9))
      "ms";
    Measure.add e2e "sustainable_tps" (float_of_int completed /. busy) "1/s";
    Measure.add e2e "host_work_per_s" (Measure.median states) "1/s";
    Measure.add e2e "alloc_words_per_work"
      (first_cost.Measure.minor_words /. float_of_int expected_visited) "words";
    Measure.add e2e "top_heap_mb" heap "MB";
    Measure.add e2e "ok_frac" (1.0 -. (float_of_int failed /. float_of_int attempted)) "frac"
  end
  else begin
    let ((n, steps, t_replay, t_fp, t_check, violation), mirror_cost), k =
      Measure.calibrated (fun () -> Measure.timed traced_bfs)
    in
    if n <> expected_visited || violation <> None then
      problem "timed search visited %d states, expected %d" n expected_visited;
    let per_state x = x /. k *. 1e6 /. float_of_int (max 1 n) in
    Measure.add layers "mc.replay_us_per_state" (per_state t_replay) "us";
    Measure.add layers "mc.fingerprint_us_per_state" (per_state t_fp) "us";
    Measure.add layers "mc.check_us_per_state" (per_state t_check) "us";
    Measure.add layers "mc.replay_steps_per_state" (Layers.per n steps) "count";
    Measure.add layers "mc.visited" (float_of_int n) "count";
    let c = List.fold_left (fun acc r -> Layers.sum acc r.counts) Layers.empty runs in
    let events = total (fun r -> r.events) in
    let run_cpu = List.fold_left (fun s r -> s +. r.run_s) 0.0 runs /. soak_k in
    Layers.engine layers ~cmds:completed ~events ~cpu:run_cpu
      ~collections:soak_cost.Measure.minor_collections;
    Layers.net layers c ~cmds:completed;
    Layers.client layers c ~cmds:completed ~retries:(total (fun r -> r.retries));
    Layers.smr layers c ~cmds:completed;
    let merged f =
      List.fold_left (fun h r -> Histogram.merge h (f r)) (Histogram.create ()) runs
    in
    let p50_ms h = if Histogram.count h = 0 then 0.0 else Kv_stack.ms (Histogram.percentile h 50.0) in
    Layers.core layers c ~reconfigs:(total (fun r -> r.epochs))
      ~wedged_ms:(p50_ms (merged (fun r -> r.wedged)));
    Measure.add layers "span.handoff_ms" (p50_ms (merged (fun r -> r.handoff))) "ms";
    let judge_cpu = List.fold_left (fun s r -> s +. r.judge_s) 0.0 runs /. soak_k in
    let per_seed x = x *. 1000.0 /. float_of_int seeds_per_run in
    Measure.add layers "crucible.run_ms_per_seed" (per_seed run_cpu) "ms";
    Measure.add layers "checker.judge_ms_per_seed" (per_seed judge_cpu) "ms";
    Measure.add layers "crucible.seeds_per_s"
      (float_of_int seeds_per_run /. (soak_cost.Measure.cpu_s /. soak_k)) "1/s";
    Measure.add layers "trace.overhead_frac"
      ((mirror_cost.Measure.cpu_s /. k /. Measure.median scope_cpu) -. 1.0) "frac"
  end;
  Measure.add layers "latency.samples" (float_of_int (Array.length lat)) "count";
  let inconclusive = total (fun r -> r.inconclusive) in
  let info =
    [ ("scope", Printf.sprintf "%s, %d states expected" scope_spec expected_visited);
      ("crucible seeds",
       Printf.sprintf "%d..%d, %d failing, %d inconclusive verdicts" (List.hd seeds)
         (List.hd (List.rev seeds)) (List.length failed_seeds) inconclusive);
      ("latency samples", string_of_int (Array.length lat));
      Measure.spread "scope cpu_s per exhaustion" scope_cpu;
      Measure.spread "states_per_s" states;
      Measure.spread "setup_s samples" setups;
      ("seeds_per_s", Printf.sprintf "%.6g" (float_of_int seeds_per_run /. (soak_cost.Measure.cpu_s /. soak_k))) ]
  in
  { Measure.e2e; layers; attempted; failed; problems = List.rev !problems; info }
