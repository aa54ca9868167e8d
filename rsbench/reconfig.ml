(* reconfig: repeated fleet replacement under light open-loop load.

   The same stack over a six-node universe.  10,000 keys of 100 bytes are
   preloaded (about a 1 MB snapshot) and NICs are capped at 200 Mb/s, so
   state transfer has a real cost.  80/20 Get/Put arrives open loop at
   1,000/s (about 1% of capacity) while the fleet is replaced
   {0,1,2} <-> {3,4,5} every 2 virtual seconds, 12 times in each of six
   independent clusters.  Wedge, transfer,
   handoff, residual re-submission and directory refresh are on the
   critical path; requests due during the blip still arrive, so the
   client-visible outage is counted. *)

module S = Kv_stack

let shape =
  { S.members = [ 0; 1; 2 ]; universe = [ 0; 1; 2; 3; 4; 5 ];
    bandwidth = Some 2.5e7; n_keys = 10_000; value_size = 100; read_ratio = 0.8;
    n_clients = 16 }

let k = 12
let period = 2.0
let first_at = 1.0
let warm = 0.5

let plan =
  { S.shape; rate = 1_000.; warm;
    measured = first_at +. (period *. float_of_int k) -. warm;
    drain = 5.0;
    reconfigs =
      List.init k (fun i ->
          (first_at +. (period *. float_of_int i), if i mod 2 = 0 then [ 3; 4; 5 ] else [ 0; 1; 2 ]));
    sample = 64 }

let run ~seed ~seconds ~trace =
  S.run_workload plan ~clusters:6 ~seed ~seconds ~trace
    ~downtime:(fun r ->
      (* per reconfiguration: the longest gap between client replies in
         the period after its submission *)
      List.map
        (fun (off, _) ->
          let lo = r.S.start +. off in
          Measure.longest_gap r.S.run.S.replies ~lo ~hi:(lo +. period))
        plan.S.reconfigs)
    ~sustainable:Fun.id
    ~check:(fun r ->
      let epoch = S.KvCore.current_epoch r.S.t.S.svc in
      let members = List.sort compare (S.KvCore.current_members r.S.t.S.svc) in
      let expected = snd (List.nth plan.S.reconfigs (k - 1)) in
      (if epoch <> k then [ Printf.sprintf "final epoch %d, expected %d" epoch k ] else [])
      @ if members <> expected then [ "final members differ from the last target" ] else [])
    ~info:(fun () ->
      [ ("reconfigurations", Printf.sprintf "%d per cluster, every %.1f virtual s" k period) ])
