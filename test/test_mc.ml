(* Scope (the explicit-state model checker) end-to-end: a tiny scope
   must exhaust with zero violations while still reaching the protocol's
   milestones (a wedge and an epoch-1 activation), re-breaking the
   first-wedge-wins guard must produce a short replayable counterexample
   (the checker's teeth), replays must be bit-for-bit deterministic
   (fingerprint sequence identical across independent replays of the
   same trace), replay — which checks only the final state in full —
   must rebuild exactly the state, verdict and witness memory that
   stepwise [apply] reaches, and composite fingerprints must not depend
   on the order their parts were gathered in. *)

module Scope = Rsmr_mc.Scope
module Choice = Rsmr_mc.Choice
module Harness = Rsmr_mc.Harness
module Explore = Rsmr_mc.Explore
module Fingerprint = Rsmr_mc.Fingerprint

let tiny_scope =
  match Scope.parse "minimal,commands=1,timer_fires=1" with
  | Ok s -> s
  | Error e -> failwith e

(* --- scope parsing rejects out-of-range budgets --- *)

let test_parse_ranges () =
  let rejects s =
    match Scope.parse s with
    | Ok _ -> Alcotest.failf "Scope.parse %S accepted an out-of-range value" s
    | Error _ -> ()
  in
  List.iter rejects
    [ "minimal,nodes=0,spare=0"; "minimal,nodes=-1"; "minimal,commands=-3";
      "small,depth=-1"; "batch=-2" ];
  match Scope.parse "minimal,nodes=1,spare=0,commands=0,drops=0" with
  | Ok s ->
    Alcotest.(check (list int)) "one-node scope" [ 1 ] (Scope.initial_members s)
  | Error e -> Alcotest.failf "in-range scope rejected: %s" e

(* --- exhaustion: tiny scope, both protocol configurations --- *)

(* The exact reachable-state count is a behaviour oracle: a change that
   moves it changed what the composition layer can do (or what its
   canonical state distinguishes), even if no property fails. *)
let test_exhaust proto ~states () =
  let stats =
    Explore.run ~proto ~scope:tiny_scope ~mutate:false ~strategy:Explore.Bfs ()
  in
  Alcotest.(check bool) "exhausted" true stats.Explore.exhausted;
  Alcotest.(check bool) "no violation" true (stats.Explore.violation = None);
  Alcotest.(check int) "reachable states" states stats.Explore.visited;
  let cov = stats.Explore.coverage in
  Alcotest.(check bool) "reached a wedge" true cov.Harness.cov_wedged;
  Alcotest.(check bool) "activated epoch 1" true cov.Harness.cov_activated;
  Alcotest.(check bool) "client got a reply" true (cov.Harness.cov_replies >= 1)

(* --- teeth: the mutation must yield a short counterexample --- *)

let counterexample =
  lazy
    (Explore.run ~proto:Harness.core ~scope:Scope.minimal ~mutate:true
       ~strategy:Explore.Bfs ())
      .Explore.violation

let find_counterexample () =
  match Lazy.force counterexample with
  | None -> Alcotest.fail "mutated exploration found no violation"
  | Some (prop, trace) -> (prop, trace)

let test_mutation_counterexample () =
  let prop, trace = find_counterexample () in
  Alcotest.(check bool)
    "epoch-prefix property violated" true
    (String.length prop >= 12 && String.sub prop 0 12 = "epoch-prefix");
  Alcotest.(check bool)
    "counterexample is short (a few dozen steps)" true
    (List.length trace <= 36);
  (* the trace must reproduce the violation when replayed from scratch *)
  let h =
    Harness.replay ~proto:Harness.core ~scope:Scope.minimal ~mutate:true trace
  in
  (match Harness.violation h with
   | Some p -> Alcotest.(check string) "replayed violation" prop p
   | None -> Alcotest.fail "replaying the counterexample showed no violation");
  (* and it must round-trip through the trace string format *)
  let s = Choice.seq_to_string trace in
  match Choice.seq_of_string s with
  | Some trace' ->
    Alcotest.(check bool) "trace round-trips" true
      (List.for_all2 Choice.equal trace trace')
  | None -> Alcotest.fail "trace failed to parse back"

(* --- bit-for-bit determinism: independent replays agree stepwise --- *)

let fingerprint_film trace =
  let h =
    Harness.create ~proto:Harness.core ~scope:Scope.minimal ~mutate:true ()
  in
  let film = ref [ Harness.fingerprint h ] in
  List.iter
    (fun c ->
      Harness.apply h c;
      film := Harness.fingerprint h :: !film)
    trace;
  List.rev !film

let test_replay_determinism () =
  let _, trace = find_counterexample () in
  let a = fingerprint_film trace in
  let b = fingerprint_film trace in
  Alcotest.(check int) "same length" (List.length a) (List.length b);
  List.iteri
    (fun i (x, y) ->
      if not (Fingerprint.equal x y) then
        Alcotest.failf "fingerprint diverged at step %d: %s vs %s" i
          (Fingerprint.to_hex x) (Fingerprint.to_hex y))
    (List.combine a b)

(* --- replay of a prefix = stepwise apply --- *)

(* What a harness state shows the explorer: its identity, its verdict,
   and the committed-prefix witnesses later states are judged against. *)
let view h =
  (Fingerprint.to_hex (Harness.fingerprint h), Harness.violation h,
   Harness.witnesses h)

let view_t = Alcotest.(triple string (option string) int)

(* A seeded random walk of at most [len] choices, stopping early where
   nothing is enabled (a violation latched or the budgets ran out). *)
let random_walk ~scope ~mutate ~seed ~len =
  let rng = Random.State.make [| seed |] in
  let h = Harness.create ~proto:Harness.core ~scope ~mutate () in
  let rec go k acc =
    match Harness.enabled h with
    | cs when k < len && cs <> [] ->
      let c = List.nth cs (Random.State.int rng (List.length cs)) in
      Harness.apply h c;
      go (k + 1) (c :: acc)
    | _ -> List.rev acc
  in
  go 0 []

(* Replay checks only the final state in full and merely records the
   witnesses of every state before it.  At every prefix length, that
   must reach what [create] + stepwise [apply] reaches — and so must
   one more [apply] on the replayed harness, which is how the explorer
   extends a frontier state. *)
let check_replay_matches_apply ~scope ~mutate walk =
  let h = Harness.create ~proto:Harness.core ~scope ~mutate () in
  let initial = view h in
  let film =
    Array.of_list
      (initial
      :: List.map
           (fun c ->
             Harness.apply h c;
             view h)
           walk)
  in
  List.iteri
    (fun k c ->
      let prefix = List.filteri (fun i _ -> i < k) walk in
      let r = Harness.replay ~proto:Harness.core ~scope ~mutate prefix in
      Alcotest.check view_t (Printf.sprintf "replay of %d choice(s)" k)
        film.(k) (view r);
      Harness.apply r c;
      Alcotest.check view_t
        (Printf.sprintf "replay of %d choice(s), then apply" k)
        film.(k + 1) (view r))
    walk;
  let r = Harness.replay ~proto:Harness.core ~scope ~mutate walk in
  Alcotest.check view_t "replay of the whole walk"
    film.(List.length walk) (view r)

let test_replay_matches_apply () =
  let batch2 =
    match Scope.parse "minimal,batch=2" with Ok s -> s | Error e -> failwith e
  in
  List.iter
    (fun (scope, mutate) ->
      for seed = 1 to 6 do
        check_replay_matches_apply ~scope ~mutate
          (random_walk ~scope ~mutate ~seed ~len:40)
      done)
    [ (Scope.minimal, false); (Scope.minimal, true); (batch2, false);
      (batch2, true) ];
  (* a walk that ends in a violation: the mutation's counterexample *)
  let _, trace = find_counterexample () in
  check_replay_matches_apply ~scope:Scope.minimal ~mutate:true trace

(* --- golden fingerprint film --- *)

(* Recorded by record_film.exe before fingerprint parts were written in
   place; every state along the film's walks must still fingerprint to
   the same 64 bits. *)
let read_film () =
  (* dune runtest runs in the stanza's build dir, dune exec at the root *)
  let path =
    List.find Sys.file_exists
      [ "data/fingerprint_film.expected"; "test/data/fingerprint_film.expected" ]
  in
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line when line = "" || line.[0] = '#' -> go acc
    | line -> (
      match String.index_opt line ' ' with
      | Some i ->
        go
          ((String.sub line 0 i,
            String.sub line (i + 1) (String.length line - i - 1))
           :: acc)
      | None -> Alcotest.failf "malformed film line %S" line)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let test_fingerprint_film () =
  let expected = read_film () in
  let actual = Film.all_lines () in
  Alcotest.(check int) "film length" (List.length expected)
    (List.length actual);
  List.iter2
    (fun (k_exp, d_exp) (k_act, d_act) ->
      Alcotest.(check string) "film key order" k_exp k_act;
      Alcotest.(check string) ("fingerprint of " ^ k_exp) d_exp d_act)
    expected actual

(* --- fingerprints are insertion-order independent --- *)

let kv_gen =
  QCheck.Gen.(
    list_size (int_range 1 8)
      (pair (string_size (int_bound 12)) (string_size (int_bound 24))))

(* deterministic pseudo-shuffle: sort by a keyed digest of each binding *)
let shuffle salt kvs =
  List.map snd
    (List.sort compare
       (List.map
          (fun (k, v) ->
            (Fingerprint.of_string (Printf.sprintf "%d|%s|%s" salt k v), (k, v)))
          kvs))

let prop_of_kv_order_independent =
  QCheck.Test.make ~name:"of_kv is insertion-order independent" ~count:500
    (QCheck.make QCheck.Gen.(pair small_int kv_gen))
    (fun (salt, kvs) ->
      Fingerprint.equal (Fingerprint.of_kv kvs)
        (Fingerprint.of_kv (shuffle salt kvs))
      && Fingerprint.equal (Fingerprint.of_kv kvs)
           (Fingerprint.of_kv (List.rev kvs)))

let prop_of_kv_framed =
  QCheck.Test.make ~name:"of_kv distinguishes rebracketed bindings" ~count:500
    (QCheck.make (QCheck.Gen.pair QCheck.Gen.string QCheck.Gen.string))
    (fun (a, b) ->
      (* moving a character across the k/v boundary must change the
         digest: length framing prevents ("ab","c") ~ ("a","bc") *)
      String.length a = 0
      || Fingerprint.equal
           (Fingerprint.of_kv [ (a, b) ])
           (Fingerprint.of_kv
              [ (String.sub a 0 (String.length a - 1),
                 String.make 1 a.[String.length a - 1] ^ b) ])
         = false)

let () =
  Alcotest.run "mc"
    [
      ( "scope",
        [ Alcotest.test_case "parse rejects out-of-range values" `Quick
            test_parse_ranges ] );
      ( "exhaustion",
        [
          Alcotest.test_case "core tiny scope" `Slow
            (test_exhaust Harness.core ~states:2126);
          Alcotest.test_case "stopworld tiny scope" `Slow
            (test_exhaust Harness.stopworld ~states:2126);
        ] );
      ( "teeth",
        [
          Alcotest.test_case "mutation yields counterexample" `Slow
            test_mutation_counterexample;
          Alcotest.test_case "replay is bit-for-bit deterministic" `Slow
            test_replay_determinism;
          Alcotest.test_case "replay of a prefix = stepwise apply" `Slow
            test_replay_matches_apply;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "film matches the recording" `Slow
            test_fingerprint_film;
          QCheck_alcotest.to_alcotest prop_of_kv_order_independent;
          QCheck_alcotest.to_alcotest prop_of_kv_framed;
        ] );
    ]
