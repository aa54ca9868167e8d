(* Wire-cost regression gate.

     dune exec bench/bench_gate.exe -- BASELINE.json CANDIDATE.json

   Compares the [wire_cost] objects of two BENCH_*.json documents
   (bench/main.ml) and exits 1 if any field drifts more than [tolerance]
   from the committed baseline in either direction.  Every field of the
   baseline's object is gated: the probe is simulator-exact, so any move
   is a behaviour change, and an intended one commits a new baseline in
   the same change.  A field present on one side only, a non-numeric
   value or an empty object fails too.

   The parser is a deliberate micro-scanner for the flat one-line
   [{"k": v, ...}] object bench/main.ml emits — no JSON dependency, and a
   malformed document fails loudly rather than passing. *)

let tolerance = 0.15

let read_file path =
  let ic = try open_in path with Sys_error e -> failwith e in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* The [(field, value)] pairs of [doc]'s wire_cost object, in document
   order; a value that is not a finite number ([null] for NaN) is
   [None]. *)
let wire_cost doc =
  let needle = "\"wire_cost\": {" in
  let nl = String.length needle in
  let rec find i =
    if i + nl > String.length doc then failwith "no wire_cost object"
    else if String.sub doc i nl = needle then i + nl
    else find (i + 1)
  in
  let start = find 0 in
  let stop =
    match String.index_from_opt doc start '}' with
    | Some j -> j
    | None -> failwith "unterminated wire_cost object"
  in
  String.sub doc start (stop - start)
  |> String.split_on_char ','
  |> List.filter (fun s -> String.trim s <> "")
  |> List.map (fun entry ->
      try
        Scanf.sscanf entry " %S : %s " (fun k v ->
            match float_of_string_opt v with
            | Some x when Float.is_finite x -> (k, Some x)
            | _ -> (k, None))
      with Scanf.Scan_failure _ | End_of_file ->
        failwith ("malformed wire_cost entry: " ^ entry))

let () =
  let baseline_path, candidate_path =
    match Sys.argv with
    | [| _; b; c |] -> (b, c)
    | _ ->
      prerr_endline "usage: bench_gate BASELINE.json CANDIDATE.json";
      exit 2
  in
  let baseline = wire_cost (read_file baseline_path) in
  let candidate = wire_cost (read_file candidate_path) in
  let failed = ref false in
  let missing field side =
    failed := true;
    Printf.printf "%-28s MISSING or non-numeric in %s\n" field side
  in
  if baseline = [] then missing "wire_cost (empty)" "baseline";
  List.iter
    (fun (field, b) ->
      match (b, List.assoc_opt field candidate) with
      | Some b, Some (Some c) ->
        let drift = if c = b then 0.0 else (c -. b) /. Float.abs b in
        let verdict =
          if Float.abs drift > tolerance then begin
            failed := true;
            "DRIFT"
          end
          else "ok"
        in
        Printf.printf "%-28s baseline=%-10.4g candidate=%-10.4g %+6.1f%%  %s\n"
          field b c (drift *. 100.0) verdict
      | None, _ -> missing field "baseline"
      | Some _, (None | Some None) -> missing field "candidate")
    baseline;
  List.iter
    (fun (field, _) ->
      if not (List.mem_assoc field baseline) then missing field "baseline")
    candidate;
  if !failed then begin
    flush stdout;
    Printf.eprintf
      "bench gate: wire-cost drift beyond %.0f%% tolerance (or missing \
       field) vs %s\n"
      (tolerance *. 100.0) baseline_path;
    exit 1
  end
  else
    Printf.printf "bench gate: %d fields within %.0f%% of %s\n"
      (List.length baseline) (tolerance *. 100.0) baseline_path
