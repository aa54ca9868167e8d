(* Per-layer metrics read from an Observatory registry: the network's
   and the service's counter sections plus the labeled per-node cells. *)

module Registry = Rsmr_obs.Registry
module Counters = Rsmr_sim.Counters

type counts = {
  net : (string * int) list;
  svc : (string * int) list;
  cells : (string * int) list;  (** labeled cells, summed over their labels *)
}

let cell_totals obs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun f ->
      if not (List.mem_assoc "section" f.Registry.f_labels) then
        Hashtbl.replace tbl f.Registry.f_name
          (f.Registry.f_value + Option.value (Hashtbl.find_opt tbl f.Registry.f_name) ~default:0))
    (Registry.flat_counters obs);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let counts obs =
  { net = Counters.to_list (Registry.counters obs "net");
    svc = Counters.to_list (Registry.counters obs "svc");
    cells = cell_totals obs }

let empty = { net = []; svc = []; cells = [] }
let get l k = Option.value (List.assoc_opt k l) ~default:0

let combine op a b =
  let keys l0 l1 = List.sort_uniq compare (List.map fst l0 @ List.map fst l1) in
  let f l0 l1 = List.map (fun k -> (k, op (get l1 k) (get l0 k))) (keys l0 l1) in
  { net = f a.net b.net; svc = f a.svc b.svc; cells = f a.cells b.cells }

let delta ~before ~after = combine ( - ) before after
let sum a b = combine ( + ) a b

let per n v = float_of_int v /. float_of_int (max 1 n)

(* The message types the KV workloads send, as the network's tagger
   names them; the rest is summed into "other". *)
let msg_types =
  [ "client"; "block.accept"; "block.accept_multi"; "block.accepted";
    "block.accepted_multi"; "block.heartbeat"; "block.submit";
    "block.submit_multi"; "bootstrap"; "state_chunk"; "dir_lookup" ]

let net tbl c ~cmds =
  Measure.add tbl "net.msgs_per_cmd" (per cmds (get c.net "sent")) "count";
  Measure.add tbl "net.bytes_per_cmd" (per cmds (get c.net "bytes_sent")) "B";
  let named_sent = ref 0 and named_bytes = ref 0 in
  List.iter
    (fun ty ->
      let s = get c.net ("sent." ^ ty) and b = get c.net ("bytes." ^ ty) in
      named_sent := !named_sent + s;
      named_bytes := !named_bytes + b;
      Measure.add tbl ("net.msgs_per_cmd." ^ ty) (per cmds s) "count";
      Measure.add tbl ("net.bytes_per_cmd." ^ ty) (per cmds b) "B")
    msg_types;
  Measure.add tbl "net.msgs_per_cmd.other" (per cmds (get c.net "sent" - !named_sent)) "count";
  Measure.add tbl "net.bytes_per_cmd.other" (per cmds (get c.net "bytes_sent" - !named_bytes)) "B";
  Measure.add tbl "net.dropped" (float_of_int (get c.net "dropped")) "count";
  Measure.add tbl "net.duplicated" (float_of_int (get c.net "duplicated")) "count"

let engine tbl ~cmds ~events ~cpu ~collections =
  Measure.add tbl "engine.events_per_cmd" (per cmds events) "count";
  Measure.add tbl "engine.ns_per_event" (cpu *. 1e9 /. float_of_int (max 1 events)) "ns";
  Measure.add tbl "gc.minor_collections_per_kcmd" (1000.0 *. per cmds collections) "count"

let client tbl c ~cmds ~retries =
  Measure.add tbl "client.retries_per_cmd" (per cmds retries) "count";
  (* every redirect the service sends is one a client endpoint follows *)
  Measure.add tbl "client.redirects_per_cmd" (per cmds (get c.svc "redirects")) "count";
  Measure.add tbl "client.lookups" (float_of_int (get c.net "sent.dir_lookup")) "count"

let smr tbl c ~cmds =
  Measure.add tbl "smr.cmds_per_proposal" (per (get c.cells "proposals") cmds) "count";
  Measure.add tbl "smr.elections" (float_of_int (get c.cells "elections")) "count";
  Measure.add tbl "smr.takeovers" (float_of_int (get c.cells "takeovers")) "count"

let core tbl c ~reconfigs ~wedged_ms =
  Measure.add tbl "core.wedged_window_ms" wedged_ms "ms";
  let each key = if reconfigs = 0 then 0.0 else per reconfigs (get c.svc key) in
  Measure.add tbl "core.transfer_bytes_per_reconfig" (each "transfer_bytes") "B";
  Measure.add tbl "core.chunks_per_reconfig" (each "chunks_sent") "count";
  Measure.add tbl "core.residuals_per_reconfig" (each "residuals") "count";
  Measure.add tbl "core.resubmitted_per_reconfig" (each "residuals_resubmitted") "count"
