(* Shared corpus for the fingerprint film: [Harness.fingerprint] of every
   state along seeded random walks through Scope's [minimal] and
   [minimal,batch=2] scopes, the first also under the first-wedge-wins
   mutation, plus the states of that mutation's BFS counterexample, so a
   latched violation string is covered too.  [Record_film]
   freezes the hex digests in [test/data/fingerprint_film.expected];
   [Test_mc] recomputes them and demands equality, so a change to how a
   state is fingerprinted (or to what a walk reaches) cannot slip by as
   a mere Scope-count coincidence. *)

module Scope = Rsmr_mc.Scope
module Harness = Rsmr_mc.Harness
module Fingerprint = Rsmr_mc.Fingerprint

let scope s = match Scope.parse s with Ok s -> s | Error e -> failwith e

let walks =
  [ ("minimal", false); ("minimal", true); ("minimal,batch=2", false) ]

let seeds = 24
let len = 60

(* One key/digest pair per state: [scope[+mutate]#seed@step hex]. *)
let film ~name ~mutate ~walk ~next =
  let h = Harness.create ~proto:Harness.core ~scope:(scope name) ~mutate () in
  let line k =
    ( Printf.sprintf "%s%s#%s@%d" name (if mutate then "+mutate" else "")
        walk k,
      Fingerprint.to_hex (Harness.fingerprint h) )
  in
  let rec go k acc =
    match next k (Harness.enabled h) with
    | Some c ->
      Harness.apply h c;
      go (k + 1) (line (k + 1) :: acc)
    | None -> List.rev acc
  in
  go 0 [ line 0 ]

let walk_lines ~name ~mutate ~seed =
  let rng = Random.State.make [| seed |] in
  film ~name ~mutate ~walk:(string_of_int seed) ~next:(fun k cs ->
      if k < len && cs <> [] then
        Some (List.nth cs (Random.State.int rng (List.length cs)))
      else None)

let counterexample_lines () =
  match
    (Rsmr_mc.Explore.run ~proto:Harness.core ~scope:Scope.minimal
       ~mutate:true ~strategy:Rsmr_mc.Explore.Bfs ())
      .Rsmr_mc.Explore.violation
  with
  | None -> failwith "Film: the mutation found no counterexample"
  | Some (_, trace) ->
    let trace = Array.of_list trace in
    film ~name:"minimal" ~mutate:true ~walk:"cex" ~next:(fun k _ ->
        if k < Array.length trace then Some trace.(k) else None)

let all_lines () =
  List.concat_map
    (fun (name, mutate) ->
      List.concat_map
        (fun seed -> walk_lines ~name ~mutate ~seed)
        (List.init seeds (fun i -> i + 1)))
    walks
  @ counterexample_lines ()
