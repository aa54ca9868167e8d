(* Scope CLI: exhaustive explicit-state checking of the composition
   layer within a bounded scope.

     dune exec test/mc_main.exe -- --scope minimal --proto core
     dune exec test/mc_main.exe -- --scope minimal,commands=1 --proto both \
       --frontier-dir _frontier --max-states 200000
     dune exec test/mc_main.exe -- --proto core --mutate --strategy dfs
     dune exec test/mc_main.exe -- --proto core --replay 's0;t1;d1-2;...'
     dune exec test/mc_main.exe -- --scope minimal --proto both \
       --expect-states 154843,159893

   Exit status when exploring: 0 if every requested exploration
   finished with no violation (whether or not it exhausted the scope —
   a --max-states cap prints "NOT exhausted" but is not an error); 1 if
   a violation was found (the counterexample is printed and, with
   --out, written to a file), or if --expect-states was given and an
   exhausted exploration visited a different number of states.

   Exit status with --replay: 0 if the trace applies and ends in no
   violation; 1 if it ends in a violation; 2 if it diverges (some choice
   is not enabled where the trace puts it — a trace recorded for a
   different proto, scope or mutation).  Usage errors exit 2.

   --expect-states takes one count per explored protocol, in --proto
   order (core before stopworld for "both"), or a single count for all
   of them.  The exact reachable-state count of an exhausted scope is a
   behaviour oracle: a refactor that claims to preserve behaviour must
   leave it unchanged. *)

module Scope = Rsmr_mc.Scope
module Choice = Rsmr_mc.Choice
module Harness = Rsmr_mc.Harness
module Explore = Rsmr_mc.Explore

let usage () =
  prerr_endline
    "usage: mc_main [--scope SPEC] [--proto core|matchmaker|stopworld|both]\n\
    \       [--strategy bfs|dfs] [--max-states N] [--frontier-dir DIR]\n\
    \       [--mutate] [--out FILE] [--replay TRACE] [--expect-states N[,N]]\n\
    \       [-v]\n\
     SPEC is 'minimal', 'small', or either plus key=value overrides,\n\
     e.g. 'minimal,commands=1,depth=20' (see Rsmr_mc.Scope).";
  exit 2

type opts = {
  mutable scope : Scope.t;
  mutable protos : Harness.proto list;
  mutable strategy : Explore.strategy;
  mutable max_states : int option;
  mutable frontier_dir : string option;
  mutable mutate : bool;
  mutable out : string option;
  mutable replay : Choice.t list option;
  mutable expect_states : int list;
  mutable verbose : bool;
}

let parse_args () =
  let o =
    {
      scope = Scope.minimal;
      protos = [ Harness.core ];
      strategy = Explore.Bfs;
      max_states = None;
      frontier_dir = None;
      mutate = false;
      out = None;
      replay = None;
      expect_states = [];
      verbose = false;
    }
  in
  let rec go = function
    | [] -> o
    | "--scope" :: v :: rest ->
      (match Scope.parse v with
       | Ok s -> o.scope <- s
       | Error e ->
         prerr_endline e;
         usage ());
      go rest
    | "--proto" :: v :: rest ->
      (match v with
       | "both" -> o.protos <- [ Harness.core; Harness.stopworld ]
       | v -> (
         match Harness.proto_of_string v with
         | Some p -> o.protos <- [ p ]
         | None ->
           Printf.eprintf "bad proto %S\n" v;
           usage ()));
      go rest
    | "--strategy" :: v :: rest ->
      (match Explore.strategy_of_string v with
       | Some s -> o.strategy <- s
       | None ->
         Printf.eprintf "bad strategy %S\n" v;
         usage ());
      go rest
    | "--max-states" :: v :: rest ->
      (match int_of_string_opt v with
       | Some n when n > 0 -> o.max_states <- Some n
       | _ ->
         Printf.eprintf "bad --max-states %S\n" v;
         usage ());
      go rest
    | "--frontier-dir" :: v :: rest ->
      o.frontier_dir <- Some v;
      go rest
    | "--mutate" :: rest ->
      o.mutate <- true;
      go rest
    | "--out" :: v :: rest ->
      o.out <- Some v;
      go rest
    | ("--replay" | "--trace") :: v :: rest ->
      (match Choice.seq_of_string v with
       | Some cs -> o.replay <- Some cs
       | None ->
         Printf.eprintf "bad trace %S\n" v;
         usage ());
      go rest
    | "--expect-states" :: v :: rest ->
      (match List.map int_of_string_opt (String.split_on_char ',' v) with
       | counts when List.for_all (function Some n -> n > 0 | None -> false) counts
         ->
         o.expect_states <- List.filter_map Fun.id counts
       | _ ->
         Printf.eprintf "bad --expect-states %S\n" v;
         usage ());
      go rest
    | "-v" :: rest ->
      o.verbose <- true;
      go rest
    | a :: _ ->
      Printf.eprintf "unknown argument %S\n" a;
      usage ()
  in
  go (List.tl (Array.to_list Sys.argv))

let run_replay o proto trace =
  let report, ending =
    Explore.render_counterexample ~proto ~scope:o.scope ~mutate:o.mutate
      trace
  in
  print_string report;
  match ending with
  | Explore.Clean -> 0
  | Explore.Violated -> 1
  | Explore.Diverged -> 2

let run_explore o ~expect proto =
  let label =
    Printf.sprintf "%s%s"
      (Harness.proto_to_string proto)
      (if o.mutate then "+mutation" else "")
  in
  let frontier_dir =
    Option.map
      (fun d -> Filename.concat d (Harness.proto_to_string proto))
      o.frontier_dir
  in
  let on_progress ~visited ~transitions ~depth =
    if o.verbose then
      Printf.eprintf "[%s] visited=%d transitions=%d depth=%d\n%!" label
        visited transitions depth
  in
  Printf.printf "exploring %s: scope=[%s] strategy=%s%s\n%!" label
    (Scope.to_string o.scope)
    (match o.strategy with Explore.Bfs -> "bfs" | Explore.Dfs -> "dfs")
    (match o.max_states with
     | Some n -> Printf.sprintf " max_states=%d" n
     | None -> "");
  let stats =
    Explore.run ~proto ~scope:o.scope ~mutate:o.mutate ~strategy:o.strategy
      ?max_states:o.max_states ?frontier_dir ~on_progress ()
  in
  Printf.printf
    "[%s] visited=%d transitions=%d max_depth=%d depth_bound_hit=%b \
     exhausted=%b\n%!"
    label stats.Explore.visited stats.Explore.transitions
    stats.Explore.max_depth stats.Explore.depth_bound_hit
    stats.Explore.exhausted;
  let cov = stats.Explore.coverage in
  Printf.printf
    "[%s] coverage: wedged=%b activated=%b retired=%b replies=%d \
     max_counter=%d\n%!"
    label cov.Harness.cov_wedged cov.Harness.cov_activated
    cov.Harness.cov_retired cov.Harness.cov_replies
    cov.Harness.cov_max_counter;
  let count_ok =
    match expect with
    | Some n when stats.Explore.exhausted && stats.Explore.visited <> n ->
      Printf.printf "[%s] STATE COUNT MISMATCH: expected %d, visited %d\n%!"
        label n stats.Explore.visited;
      false
    | Some n when stats.Explore.exhausted ->
      Printf.printf "[%s] state count matches the expected %d\n%!" label n;
      true
    | Some n ->
      Printf.printf "[%s] expected state count %d not checked (not exhausted)\n%!"
        label n;
      true
    | None -> true
  in
  (match stats.Explore.violation with
   | None ->
     if stats.Explore.exhausted then
       Printf.printf "[%s] scope exhausted: 0 violations\n%!" label
     else
       Printf.printf "[%s] NOT exhausted (state cap hit): 0 violations so far\n%!"
         label
   | Some (prop, trace) ->
     let report, _ =
       Explore.render_counterexample ~proto ~scope:o.scope ~mutate:o.mutate
         trace
     in
     Printf.printf "[%s] VIOLATION: %s\n%s%!" label prop report;
     Option.iter
       (fun f ->
         let oc = open_out f in
         output_string oc report;
         close_out oc;
         Printf.printf "[%s] counterexample written to %s\n%!" label f)
       o.out);
  stats.Explore.violation = None && count_ok

let () =
  let o = parse_args () in
  match o.replay with
  | Some trace -> exit (run_replay o (List.hd o.protos) trace)
  | None ->
    let expects =
      match o.expect_states with
      | [] -> List.map (fun _ -> None) o.protos
      | [ n ] -> List.map (fun _ -> Some n) o.protos
      | counts when List.length counts = List.length o.protos ->
        List.map Option.some counts
      | counts ->
        Printf.eprintf "--expect-states: %d counts for %d protocols\n"
          (List.length counts) (List.length o.protos);
        usage ()
    in
    let ok =
      List.for_all2 (fun p expect -> run_explore o ~expect p) o.protos expects
    in
    exit (if ok then 0 else 1)
