(* The repository benchmark.

     main.exe --workload steady|reconfig|verify --seed N --seconds S --trace 0|1

   Runs one workload from a seed, checks the outputs, prints every metric
   by name with its unit, and ends with one JSON line:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   --trace 0 reports the end-to-end metrics (untraced), --trace 1 the
   per-layer metrics of a separate traced run.  Exit status 0 when every
   correctness check passed, 1 when one failed, 2 on a usage error.
   NOTES.md in this directory describes each metric. *)

let end_to_end =
  [ ("setup_s", "s"); ("latency_p50_ms", "ms"); ("latency_p999_ms", "ms");
    ("downtime_ms", "ms"); ("sustainable_tps", "1/s"); ("host_work_per_s", "1/s");
    ("alloc_words_per_work", "words"); ("top_heap_mb", "MB"); ("ok_frac", "frac") ]

let per_layer =
  let net =
    List.concat_map
      (fun ty -> [ ("net.msgs_per_cmd." ^ ty, "count"); ("net.bytes_per_cmd." ^ ty, "B") ])
      (Layers.msg_types @ [ "other" ])
  in
  [ ("engine.events_per_cmd", "count"); ("engine.ns_per_event", "ns");
    ("gc.minor_collections_per_kcmd", "count");
    ("net.msgs_per_cmd", "count"); ("net.bytes_per_cmd", "B") ]
  @ net
  @ [ ("net.dropped", "count"); ("net.duplicated", "count");
      ("client.retries_per_cmd", "count"); ("client.redirects_per_cmd", "count");
      ("client.lookups", "count");
      ("smr.cmds_per_proposal", "count"); ("smr.elections", "count"); ("smr.takeovers", "count");
      ("span.submit_to_ordered_ms.p50", "ms"); ("span.submit_to_ordered_ms.p999", "ms");
      ("span.ordered_to_applied_ms.p50", "ms"); ("span.ordered_to_applied_ms.p999", "ms");
      ("span.applied_to_replied_ms.p50", "ms"); ("span.applied_to_replied_ms.p999", "ms");
      ("span.handoff_ms", "ms"); ("core.epoch_change_ms", "ms");
      ("core.wedged_window_ms", "ms"); ("core.transfer_bytes_per_reconfig", "B");
      ("core.chunks_per_reconfig", "count"); ("core.residuals_per_reconfig", "count");
      ("core.resubmitted_per_reconfig", "count"); ("core.snapshot_ms", "ms");
      ("app.codec_ns_per_cmd", "ns"); ("app.apply_ns_per_cmd", "ns");
      ("mc.replay_us_per_state", "us"); ("mc.fingerprint_us_per_state", "us");
      ("mc.check_us_per_state", "us"); ("mc.replay_steps_per_state", "count");
      ("mc.visited", "count");
      ("crucible.run_ms_per_seed", "ms"); ("checker.judge_ms_per_seed", "ms");
      ("crucible.seeds_per_s", "1/s");
      ("trace.overhead_frac", "frac"); ("latency.samples", "count") ]

let workloads =
  [ ("steady", Steady.run); ("reconfig", Reconfig.run); ("verify", Verify.run) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload steady|reconfig|verify --seed N --seconds S --trace 0|1";
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := List.assoc_opt v workloads |> Option.map (fun f -> (v, f)); go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some sec, Some t when s >= 0 && sec > 0.0 -> (w, s, sec, t)
  | _ -> usage ()

let () =
  let (name, run), seed, seconds, trace = parse Sys.argv in
  let r = run ~seed ~seconds ~trace in
  let declared = if trace then per_layer else end_to_end in
  let measured = Measure.rows (if trace then r.Measure.layers else r.Measure.e2e) in
  let problems =
    r.Measure.problems
    @ List.filter_map
        (fun (n, _, _) ->
          if List.mem_assoc n declared then None else Some ("undeclared metric " ^ n))
        measured
  in
  (* A metric a workload does not exercise reads 0 (per-layer only;
     NOTES.md lists which). *)
  let values =
    List.map
      (fun (n, unit) ->
        let v =
          match List.find_opt (fun (m, _, _) -> m = n) measured with
          | Some (_, v, _) -> v
          | None -> 0.0
        in
        (n, v, unit))
      declared
  in
  let problems =
    problems
    @ List.filter_map
        (fun (n, v, _) -> if Float.is_finite v then None else Some (n ^ " is not finite"))
        values
  in
  Printf.printf "workload %s seed %d seconds %g trace %d\n" name seed seconds
    (if trace then 1 else 0);
  Printf.printf "method: ocaml %s, one single-domain process, host times are process CPU time\n"
    Sys.ocaml_version;
  List.iter (fun (k, v) -> Printf.printf "method: %s: %s\n" k v) r.Measure.info;
  List.iter
    (fun (n, v, unit) -> Printf.printf "metric %s = %s %s\n" n (Measure.json_number v) unit)
    values;
  List.iter (fun p -> Printf.printf "FAILED: %s\n" p) problems;
  let correct = problems = [] in
  let metrics =
    String.concat ", "
      (List.map
         (fun (n, v, unit) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Measure.json_string n)
             (Measure.json_number (if Float.is_finite v then v else 0.0))
             (Measure.json_string unit))
         values)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct r.Measure.attempted
    (max r.Measure.failed (if correct then 0 else 1))
    metrics;
  exit (if correct then 0 else 1)
