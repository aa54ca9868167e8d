(* Regenerate test/data/fingerprint_film.expected.

   Run from the repo root BEFORE touching anything that feeds
   [Harness.fingerprint] (codec writers, block/endpoint/service
   canonical states, the harness bookkeeping):

     dune exec test/record_film.exe -- test/data/fingerprint_film.expected

   [Test_mc] recomputes the film and demands equality; a diff means a
   state is no longer fingerprinted bit-for-bit as before. *)

let () =
  let path =
    match Sys.argv with
    | [| _; p |] -> p
    | _ -> "test/data/fingerprint_film.expected"
  in
  let lines = Film.all_lines () in
  let oc = open_out path in
  output_string oc "# fingerprint_film/1 — Harness.fingerprint per state\n";
  List.iter (fun (k, d) -> Printf.fprintf oc "%s %s\n" k d) lines;
  close_out oc;
  Printf.printf "recorded %d fingerprints to %s\n" (List.length lines) path
