module Engine = Rsmr_sim.Engine
module Counters = Rsmr_sim.Counters
module Fnv = Rsmr_sim.Fnv
module Trace = Rsmr_sim.Trace
module Obs = Rsmr_obs.Registry
module Stable = Rsmr_sim.Stable
module Network = Rsmr_net.Network
module Node_id = Rsmr_net.Node_id
module Config = Rsmr_smr.Config
module Client_msg = Rsmr_client.Client_msg
module Endpoint = Rsmr_client.Endpoint

type epoch_stat = {
  es_epoch : int;
  es_activated : bool;
  es_retired : bool;
  es_wedged_at : int option;
  es_applied_hi : int;
  es_digest : int64;
}

module type S = sig
  type t
  type app_state

  val create :
    engine:Rsmr_sim.Engine.t ->
    ?latency:Rsmr_net.Latency.t ->
    ?drop:float ->
    ?bandwidth:float ->
    ?smr_params:Rsmr_smr.Params.t ->
    ?options:Options.t ->
    ?universe:Rsmr_net.Node_id.t list ->
    ?obs:Rsmr_obs.Registry.t ->
    ?net_mode:Rsmr_net.Network.mode ->
    members:Rsmr_net.Node_id.t list ->
    unit ->
    t

  val cluster : t -> Rsmr_iface.Cluster.t

  val set_on_dir_update :
    t ->
    (epoch:int ->
     members:Rsmr_net.Node_id.t list ->
     leader:Rsmr_net.Node_id.t option ->
     unit) ->
    unit

  val canonical_state : t -> string
  val engine : t -> Rsmr_sim.Engine.t
  val net : t -> Wire.t Rsmr_net.Network.t
  val directory_id : t -> Rsmr_net.Node_id.t
  val current_epoch : t -> int
  val current_members : t -> Rsmr_net.Node_id.t list
  val counters : t -> Rsmr_sim.Counters.t
  val obs : t -> Rsmr_obs.Registry.t
  val app_state : t -> Rsmr_net.Node_id.t -> app_state option
  val host_epoch : t -> Rsmr_net.Node_id.t -> int option
  val live_instances : t -> Rsmr_net.Node_id.t -> int
  val current_leader : t -> Rsmr_net.Node_id.t option
  val epoch_stats : t -> Rsmr_net.Node_id.t -> epoch_stat list

  val iter_applied :
    t -> Rsmr_net.Node_id.t -> (int -> int -> int64 -> unit) -> unit
end

module Int_map = Map.Make (Int)

module Make_on (B : Rsmr_smr.Block_intf.S) (Sm : Rsmr_app.State_machine.S) =
struct
  module Replica = B

  (* The composition layer is a driver over
     [t.opts.Options.strategy] ({!Rsmr_iface.Reconfig_strategy}): the
     stage sequence wedge → prepare → state transfer → directory publish
     → handoff → residual re-submission is fixed, and the strategy value
     picks a policy per stage.  [Options.speculative],
     [Options.residual_resubmit] and [Options.early_prepare] are the
     derived stage views read below; [composed] (the paper's default)
     keeps every code path bit-for-bit identical to the historical
     hard-wired sequence. *)

  type app_state = Sm.t

  type instance = {
    epoch : int;
    cfg : Config.t;
    prev_members : Node_id.t list;
    mutable replica : Replica.t option;
    mutable app : Sm.t;
        (* dropped (reset to [Sm.init ()]) once the instance is sealed:
           read it through [inst_app] *)
    mutable sessions : Session.t;
    mutable activated : bool;
    mutable wedged_at : int option;
    mutable applied_hi : int;
        (* highest log index whose command took effect in this instance
           (applied, deduplicated, or wedged) — the epoch-prefix-safety
           oracle asserts it never passes the wedge index *)
    mutable applied_digest : int64;
        (* FNV-1a chain over every (idx, envelope-bytes) this instance
           processed, in order.  Two nodes with equal [applied_hi] in the
           same epoch must have equal digests — the model checker's
           committed-prefix-agreement witness. *)
    mutable next_members : Node_id.t list;
    mutable final_snapshot : string option;
    mutable spec_buf : (int * string) list; (* raw envelopes, newest first *)
    mutable residual_buf : string list;
        (* wedge-time residual envelopes awaiting batched re-submission
           into the next epoch, newest first *)
    mutable residual_timer : Engine.timer option;
    mutable chunks_total : int;
        (* chunk count of the transfer being assembled (0: none yet) *)
    mutable chunks : string Int_map.t;
        (* received pieces by index; emptied once the snapshot installs,
           when [chunks_got = chunks_total] still records completeness *)
    mutable chunks_got : int;
    mutable fetch_timer : Engine.timer option;
    mutable fetch_rr : int;
    mutable announced : bool;
    mutable retired : bool;
    mutable provisional : bool;
        (* Matchmaker-style early prepare: the instance was bootstrapped
           at [Reconfig] submission, before the command committed.  A
           provisional instance may order speculatively but never serves
           clients, announces, or installs a snapshot until a wedge-time
           [Bootstrap] confirms its membership (or replaces it). *)
    mutable prepare_timer : Engine.timer option;
        (* provisional-hygiene TTL: tears the instance down if no
           confirmation arrives (the prepared [Reconfig] lost the race
           or never committed) *)
    sc : Obs.scope;  (* {node; epoch}-scoped registry view *)
    (* hot-path cells of that scope, resolved once per instance *)
    sc_applied : int ref;
    sc_residuals : int ref;
  }

  type host = {
    me : Node_id.t;
    instances : (int, instance) Hashtbl.t;
    pending_fetches : (int, Node_id.t list ref) Hashtbl.t;
    mutable top_epoch : int;
    mutable latest_members : Node_id.t list;
  }

  type client_rec = {
    endpoint : Endpoint.t;
    mutable dir_k : (Rsmr_app.Dir_app.entry option -> unit) option;
  }

  type t = {
    engine : Engine.t;
    net : Wire.t Network.t;
    opts : Options.t;
    smr_params : Rsmr_smr.Params.t;
    hosts : (Node_id.t, host) Hashtbl.t;
    dir : Directory.t;
    dir_id : Node_id.t;
    admin_id : Node_id.t;
    mutable admin_seq : int;
    clients : (Node_id.t, client_rec) Hashtbl.t;
    mutable on_reply : Rsmr_iface.Cluster.reply_handler;
    mutable on_dir_update :
      epoch:int -> members:Node_id.t list -> leader:Node_id.t option -> unit;
    counters : Counters.t;
    obs : Obs.t;
    bus : Trace.t;  (* = Obs.bus obs, cached *)
    wedge_times : (int, float) Hashtbl.t;
        (* new epoch -> virtual time of the first wedge that opened it;
           consumed by the first announce to measure the wedged window *)
    wedged_window : Rsmr_sim.Histogram.t;
  }

  let engine t = t.engine
  let net t = t.net
  let set_on_dir_update t f = t.on_dir_update <- f
  let directory_id t = t.dir_id
  let counters t = t.counters
  let obs t = t.obs

  (* Per-command lifecycle events for span reconstruction.  Guarded on
     [Trace.active] so an unobserved run does not even build the attrs
     list; everything tooling needs travels in attrs, never the
     message. *)
  let lifecycle t ~node ev attrs =
    Trace.emit t.bus ~time:(Engine.now t.engine) ~node ~topic:`Lifecycle
      ~attrs:(("ev", ev) :: attrs) ev
  let current_epoch t = Directory.epoch t.dir
  let current_members t = Directory.members t.dir

  (* A retired instance that wedged and applied nothing past its wedge
     index is sealed: its app is frozen and is exactly the app part of
     [final_snapshot], which it keeps for late fetchers, so the live
     value is dropped at retirement.  The condition cannot change once
     it holds: a retired instance's replica is halted and decides
     nothing more.  An instance retired before it wedged keeps its
     app. *)
  let sealed_snapshot inst =
    match (inst.wedged_at, inst.final_snapshot) with
    | Some w, Some snapshot when inst.retired && inst.applied_hi <= w ->
      Some snapshot
    | _ -> None

  (* The one reader of an instance's app.  A sealed app is restored from
     the snapshot on every call; memoising it would pin it again. *)
  let inst_app inst =
    match sealed_snapshot inst with
    | Some snapshot -> Sm.restore (Snapshot.decode snapshot).Snapshot.app
    | None -> inst.app

  (* [Sm.snapshot (inst_app inst)], without the restore: a sealed app's
     bytes are the snapshot's app bytes, taken from the very app that was
     dropped. *)
  let inst_app_bytes inst =
    match sealed_snapshot inst with
    | Some snapshot -> (Snapshot.decode snapshot).Snapshot.app
    | None -> Sm.snapshot inst.app

  let newest_instance host ~pred =
    Stable.fold_sorted ~compare:Int.compare
      (fun _ inst acc ->
        if pred inst then
          match acc with
          | Some best when best.epoch >= inst.epoch -> acc
          | _ -> Some inst
        else acc)
      host.instances None

  let app_state t node =
    match Hashtbl.find_opt t.hosts node with
    | None -> None
    | Some host -> (
      match newest_instance host ~pred:(fun i -> i.activated) with
      | Some inst -> Some (inst_app inst)
      | None -> None)

  let host_epoch t node =
    match Hashtbl.find_opt t.hosts node with
    | None -> None
    | Some host -> (
      match newest_instance host ~pred:(fun _ -> true) with
      | Some inst -> Some inst.epoch
      | None -> None)

  let live_instances t node =
    match Hashtbl.find_opt t.hosts node with
    | None -> 0
    | Some host ->
      Stable.fold_sorted ~compare:Int.compare
        (fun _ inst acc ->
          match inst.replica with
          | Some r when not (Replica.is_halted r) -> acc + 1
          | Some _ | None -> acc)
        host.instances 0

  let epoch_stats t node =
    match Hashtbl.find_opt t.hosts node with
    | None -> []
    | Some host ->
      List.rev
        (Stable.fold_sorted ~compare:Int.compare
           (fun _ inst acc ->
             {
               es_epoch = inst.epoch;
               es_activated = inst.activated;
               es_retired = inst.retired;
               es_wedged_at = inst.wedged_at;
               es_applied_hi = inst.applied_hi;
               es_digest = inst.applied_digest;
             }
             :: acc)
           host.instances [])

  let iter_applied t node f =
    match Hashtbl.find_opt t.hosts node with
    | None -> ()
    | Some host ->
      for epoch = 0 to host.top_epoch do
        match Hashtbl.find_opt host.instances epoch with
        | Some inst -> f epoch inst.applied_hi inst.applied_digest
        | None -> ()
      done

  let current_leader t =
    Stable.fold_sorted ~compare:Node_id.compare
      (fun id host acc ->
        if Network.is_crashed t.net id then acc
        else
          match
            newest_instance host ~pred:(fun i ->
                (not i.retired)
                && i.activated (* leading AND able to execute/reply *)
                &&
                match i.replica with
                | Some r -> Replica.is_leader r
                | None -> false)
          with
          | Some inst -> (
            match acc with
            | Some (e, _) when e >= inst.epoch -> acc
            | _ -> Some (inst.epoch, id))
          | None -> acc)
      t.hosts None
    |> Option.map snd

  let send t ~src ~dst wire = Network.send t.net ~src ~dst wire

  let reply_client t host ~client ~seq ~rsp =
    Counters.incr t.counters "replies";
    send t ~src:host.me ~dst:client (Wire.Client (Client_msg.Reply { seq; rsp }))

  let is_inst_leader inst =
    match inst.replica with Some r -> Replica.is_leader r | None -> false

  (* Announce a freshly live configuration: retire the previous instance on
     its members and give the directory a leader hint.  Done by the
     instance's leader once it is both activated and elected. *)
  let announce t host inst =
    if
      inst.activated
      && (not inst.announced)
      && (not inst.provisional)
      && is_inst_leader inst
    then begin
      inst.announced <- true;
      (* Handoff complete: the wedged window for this epoch change closes
         with the directory publish below. *)
      (match Hashtbl.find_opt t.wedge_times inst.epoch with
       | Some t0 ->
         Hashtbl.remove t.wedge_times inst.epoch;
         Rsmr_sim.Histogram.record t.wedged_window (Engine.now t.engine -. t0)
       | None -> ());
      List.iter
        (fun m -> send t ~src:host.me ~dst:m (Wire.Retire { epoch = inst.epoch }))
        inst.prev_members;
      send t ~src:host.me ~dst:t.dir_id
        (Wire.Dir_update
           {
             epoch = inst.epoch;
             members = inst.cfg.Config.members;
             leader = Some host.me;
           });
      t.on_dir_update ~epoch:inst.epoch ~members:inst.cfg.Config.members
        ~leader:(Some host.me)
    end

  (* Poll for the announce condition until it fires: leadership is decided
     by the embedded replica asynchronously and exposes no callback. *)
  let rec announce_poll t host inst =
    if (not inst.announced) && not inst.retired then begin
      announce t host inst;
      if not inst.announced then
        ignore
          (Engine.schedule t.engine ~delay:0.05 (fun () ->
               announce_poll t host inst))
    end

  let retire_instance t inst =
    if not inst.retired then begin
      inst.retired <- true;
      (match inst.replica with Some r -> Replica.halt r | None -> ());
      if Option.is_some (sealed_snapshot inst) then inst.app <- Sm.init ();
      inst.fetch_timer <- Engine.cancel_slot t.engine inst.fetch_timer;
      inst.prepare_timer <- Engine.cancel_slot t.engine inst.prepare_timer
    end

  (* Hand envelopes already in wire form to the instance's block: the
     whole list reaches it as one proposal batch (one broadcast when the
     block leads), in list order. *)
  let submit_raw_many inst values =
    match inst.replica with
    | Some r when not (Replica.is_halted r) -> (
      match values with
      | [] -> ()
      | [ value ] -> Replica.submit r value
      | _ -> Replica.submit_many r values)
    | Some _ | None -> ()

  (* --- decided-command processing --- *)

  let env_client_seq (env : Envelope.t) =
    match env with
    | Envelope.App { client; seq; _ } | Envelope.Reconfig { client; seq; _ } ->
      (client, seq)

  (* A command's residual / ordered / applied event, emitted by the
     instance's leader only. *)
  let command_event t host inst ev ~idx env =
    if Trace.active t.bus && is_inst_leader inst then begin
      let client, seq = env_client_seq env in
      lifecycle t ~node:host.me ev
        [
          ("client", string_of_int client);
          ("seq", string_of_int seq);
          ("epoch", string_of_int inst.epoch);
          ("idx", string_of_int idx);
        ]
    end

  (* [value] is the envelope's wire bytes (what the block ordered); it is
     decoded exactly once here and threaded alongside [env] so the
     applied-digest chain and residual re-submission reuse the bytes
     instead of re-encoding. *)
  let rec dispatch t host inst idx value =
    let env = Envelope.decode value in
    match inst.wedged_at with
    | Some w when idx > w -> (
      (* First-wedge-wins: the composed history for this epoch ends at
         the wedge index, so anything the block ordered later is a
         residual, never applied here.  [No_first_wedge] re-breaks this
         guard on purpose — the model checker's mutation self-test. *)
      match t.opts.Options.mutation with
      | Some Options.No_first_wedge -> process t host inst idx env value
      | None -> handle_residual t host inst idx env value)
    | Some _ | None -> process t host inst idx env value

  and handle_residual t host inst idx env value =
    Counters.incr t.counters "residuals";
    incr inst.sc_residuals;
    command_event t host inst "residual" ~idx env;
    (* Only the old instance's leader re-submits, to avoid an n-fold
       duplicate storm; session dedup makes any duplicates harmless.  If the
       leader does not itself host the next instance (disjoint
       replacement), it forwards the command to a new member as a static
       Submit, which that member's replica routes to its leader. *)
    if Options.residual_resubmit t.opts && is_inst_leader inst then begin
      Counters.incr t.counters "residuals_resubmitted";
      if Trace.active t.bus then begin
        let client, seq = env_client_seq env in
        lifecycle t ~node:host.me "resubmit"
          [
            ("client", string_of_int client);
            ("seq", string_of_int seq);
            ("from", string_of_int inst.epoch);
            ("to", string_of_int (inst.epoch + 1));
          ]
      end;
      (* Buffer and flush on a zero-delay timer: every residual decided in
         the same engine step (the common case — one committed batch past
         the wedge point) crosses the epoch boundary as a single vector
         submission instead of a per-command storm. *)
      inst.residual_buf <- value :: inst.residual_buf;
      if inst.residual_timer = None then
        inst.residual_timer <-
          Some
            (Engine.schedule t.engine ~delay:0.0 (fun () ->
                 inst.residual_timer <- None;
                 flush_residuals t host inst))
    end

  and flush_residuals t host inst =
    let values = List.rev inst.residual_buf in
    inst.residual_buf <- [];
    if values <> [] then begin
      match Hashtbl.find_opt host.instances (inst.epoch + 1) with
      | Some next -> submit_raw_many next values
      | None -> (
        (* Disjoint replacement: forward the whole residual batch to a new
           member as one static message; its replica routes it onward. *)
        match inst.next_members with
        | dst :: _ ->
          let msg =
            match values with
            | [ value ] -> B.submit_msg value
            | _ -> B.submit_many_msg values
          in
          send t ~src:host.me ~dst
            (Wire.Block { epoch = inst.epoch + 1; data = B.Msg.encode msg })
        | [] -> ())
    end

  and process t host inst idx env value =
    if idx > inst.applied_hi then inst.applied_hi <- idx;
    inst.applied_digest <-
      Fnv.combine_framed
        (Fnv.combine inst.applied_digest (string_of_int idx))
        value;
    command_event t host inst "ordered" ~idx env;
    match (env : Envelope.t) with
    | Envelope.App { client; seq; low_water; cmd } -> (
      match Session.check inst.sessions ~client ~seq with
      | `New ->
        let app', resp = Sm.apply (inst_app inst) (Sm.decode_command cmd) in
        let rsp = Sm.encode_response resp in
        inst.app <- app';
        inst.sessions <-
          Session.trim
            (Session.record inst.sessions ~client ~seq ~rsp)
            ~client ~below:low_water;
        Counters.incr t.counters "applied";
        incr inst.sc_applied;
        if is_inst_leader inst then begin
          command_event t host inst "applied" ~idx env;
          reply_client t host ~client ~seq ~rsp
        end
      | `Dup rsp -> if is_inst_leader inst then reply_client t host ~client ~seq ~rsp
      | `Stale -> (* already applied and acknowledged: late duplicate *) ())
    | Envelope.Reconfig { client; seq; members } -> (
      match Session.check inst.sessions ~client ~seq with
      | `New ->
        let rsp = "ok" in
        inst.sessions <- Session.record inst.sessions ~client ~seq ~rsp;
        if is_inst_leader inst then reply_client t host ~client ~seq ~rsp;
        wedge t host inst idx members
      | `Dup rsp -> if is_inst_leader inst then reply_client t host ~client ~seq ~rsp
      | `Stale -> ())

  and on_decide t host inst idx value =
    if inst.activated then dispatch t host inst idx value
    else inst.spec_buf <- (idx, value) :: inst.spec_buf

  (* --- wedging and the next configuration --- *)

  and wedge t host inst widx members' =
    (* Reconfig commands from two different clients can both be decided in
       the same instance (session dedup is per-client); the first decided
       one wins the wedge and later ones are no-ops, so this stays total
       on any wire input. *)
    if inst.wedged_at = None then begin
      inst.wedged_at <- Some widx;
      inst.next_members <- members';
      Counters.incr t.counters "wedges";
      incr (Obs.scope_counter inst.sc "wedged");
      if Trace.active t.bus then
        Trace.emit t.bus ~time:(Engine.now t.engine) ~node:host.me
          ~topic:`Reconfig
          ~attrs:
            [
              ("epoch", string_of_int inst.epoch);
              ("widx", string_of_int widx);
              ("strategy", t.opts.Options.strategy.Rsmr_iface.Reconfig_strategy.name);
            ]
          "wedged";
      if not (Hashtbl.mem t.wedge_times (inst.epoch + 1)) then
        Hashtbl.add t.wedge_times (inst.epoch + 1) (Engine.now t.engine);
      let snapshot =
        Snapshot.encode
          { Snapshot.app = Sm.snapshot (inst_app inst);
            sessions = Session.encode inst.sessions }
      in
      inst.final_snapshot <- Some snapshot;
      let new_epoch = inst.epoch + 1 in
      if new_epoch > host.top_epoch then begin
        host.top_epoch <- new_epoch;
        host.latest_members <- members'
      end;
      (* Anyone who asked for this snapshot before we wedged.  Only the
         committed configuration's members are served: an early-prepared
         instance whose membership lost the race may have fetched too, and
         it must starve (its TTL tears it down) rather than activate. *)
      (match Hashtbl.find_opt host.pending_fetches new_epoch with
       | Some waiting ->
         Hashtbl.remove host.pending_fetches new_epoch;
         List.iter
           (fun dst -> send_snapshot t host ~dst ~epoch:new_epoch snapshot)
           (List.filter
              (fun dst -> List.exists (Node_id.equal dst) members')
              !waiting)
       | None -> ());
      (* Tell the new configuration it exists. *)
      let bootstrap_members () =
        List.iter
          (fun m ->
            if not (Node_id.equal m host.me) then
              send t ~src:host.me ~dst:m
                (Wire.Bootstrap
                   {
                     epoch = new_epoch;
                     members = members';
                     prev_epoch = inst.epoch;
                     prev_members = inst.cfg.Config.members;
                   }))
          members'
      in
      bootstrap_members ();
      (* Bootstrap is fire-and-forget: a new member unreachable at wedge
         time would otherwise never learn its epoch exists and the
         configuration could run forever one replica short.  Re-send on a
         slow timer for a fixed window — retirement is no stop signal,
         since the new quorum retires the old epoch while a crashed
         newcomer is still in the dark; duplicates are ignored on
         receipt. *)
      let rec rebootstrap rounds =
        if rounds > 0 then begin
          bootstrap_members ();
          ignore
            (Engine.schedule t.engine ~delay:0.25 (fun () ->
                 rebootstrap (rounds - 1)))
        end
      in
      ignore (Engine.schedule t.engine ~delay:0.25 (fun () -> rebootstrap 40));
      send t ~src:host.me ~dst:t.dir_id
        (Wire.Dir_update { epoch = new_epoch; members = members'; leader = None });
      t.on_dir_update ~epoch:new_epoch ~members:members' ~leader:None;
      (* A host in both configurations transfers state locally: its own
         wedge-point state is exactly the new instance's initial state.
         An early-prepared instance is confirmed (or replaced, if its
         membership lost the race) by this same authoritative step. *)
      if List.exists (Node_id.equal host.me) members' then begin
        match Hashtbl.find_opt host.instances new_epoch with
        | Some next ->
          let next =
            confirm_or_replace t host next ~members:members'
              ~prev_members:inst.cfg.Config.members
          in
          activate t host next ~app:(inst_app inst) ~sessions:inst.sessions
            ~local:true
        | None ->
          let next =
            create_instance t host ~provisional:false ~epoch:new_epoch
              ~members:members' ~prev_members:inst.cfg.Config.members
              ~boot:`Await
          in
          activate t host next ~app:(inst_app inst) ~sessions:inst.sessions
            ~local:true
      end
    end

  (* --- Matchmaker-style early prepare --- *)

  and same_members a b =
    List.sort_uniq Node_id.compare a = List.sort_uniq Node_id.compare b

  and teardown_provisional t host inst =
    (* The prepared [Reconfig] lost the race (or never committed): halt
       and forget the instance so the authoritative configuration — if
       any — can take the epoch slot with a clean boot. *)
    if inst.provisional && not inst.retired then begin
      Counters.incr t.counters "prepare_teardowns";
      retire_instance t inst;
      (* Free the epoch slot only if it still holds this (now retired)
         provisional instance — an authoritative replacement that already
         took the slot is never provisional. *)
      (match Hashtbl.find_opt host.instances inst.epoch with
       | Some cur when cur.provisional && cur.retired ->
         Hashtbl.remove host.instances inst.epoch
       | Some _ | None -> ());
      inst.residual_timer <- Engine.cancel_slot t.engine inst.residual_timer
    end

  and confirm_provisional t host inst =
    if inst.provisional then begin
      inst.provisional <- false;
      Counters.incr t.counters "prepare_confirms";
      inst.prepare_timer <- Engine.cancel_slot t.engine inst.prepare_timer;
      (* The configuration is authoritative now: advertise it for
         redirects, exactly as a wedge-time bootstrap would have. *)
      if inst.epoch > host.top_epoch then begin
        host.top_epoch <- inst.epoch;
        host.latest_members <- inst.cfg.Config.members
      end;
      (* A snapshot that finished transferring while we were provisional
         installs now. *)
      try_install t host inst
    end

  (* An authoritative bootstrap (wedge-time [Bootstrap], or the wedge's
     local-handoff path) meets an existing instance: a provisional one is
     confirmed if the committed membership matches what was prepared, and
     torn down and rebuilt otherwise.  Non-provisional instances are
     already authoritative — first bootstrap won. *)
  and confirm_or_replace t host inst ~members ~prev_members =
    if not inst.provisional then inst
    else if same_members inst.cfg.Config.members members then begin
      confirm_provisional t host inst;
      inst
    end
    else begin
      teardown_provisional t host inst;
      create_instance t host ~provisional:false ~epoch:inst.epoch ~members
        ~prev_members ~boot:`Await
    end

  and handle_prepare t host ~epoch ~members ~prev_members =
    (* Speculative bootstrap at [Reconfig] submission time: the new
       epoch's instance boots (and, under a speculative-handoff strategy,
       starts electing and ordering) while the old epoch is still
       committing the membership change — so at wedge time only state
       transfer remains inside the wedged window.  Garbage off the wire
       (empty member list) is ignored, exactly as in
       [handle_bootstrap]. *)
    if
      members <> []
      && Options.early_prepare t.opts
      && not (Hashtbl.mem host.instances epoch)
    then
      ignore
        (create_instance t host ~provisional:true ~epoch ~members
           ~prev_members ~boot:`Await)

  and maybe_prepare t host inst members' =
    if
      Options.early_prepare t.opts
      && members' <> []
      && inst.wedged_at = None
      && is_inst_leader inst
      && not (Hashtbl.mem host.instances (inst.epoch + 1))
    then begin
      Counters.incr t.counters "prepares";
      let epoch = inst.epoch + 1 in
      let prev_members = inst.cfg.Config.members in
      List.iter
        (fun m ->
          if not (Node_id.equal m host.me) then
            send t ~src:host.me ~dst:m
              (Wire.Prepare
                 { epoch; members = members'; prev_epoch = inst.epoch;
                   prev_members }))
        members';
      if List.exists (Node_id.equal host.me) members' then
        handle_prepare t host ~epoch ~members:members' ~prev_members
    end

  and create_instance t host ~provisional ~epoch ~members ~prev_members
      ~boot =
    let cfg = Config.make ~instance_id:epoch ~members in
    let sc = Obs.scope ~node:host.me ~epoch t.obs in
    let inst =
      {
        epoch;
        cfg;
        prev_members;
        replica = None;
        app = Sm.init ();
        sessions = Session.empty;
        activated = false;
        wedged_at = None;
        applied_hi = -1;
        applied_digest = Fnv.empty;
        next_members = [];
        final_snapshot = None;
        spec_buf = [];
        residual_buf = [];
        residual_timer = None;
        chunks_total = 0;
        chunks = Int_map.empty;
        chunks_got = 0;
        fetch_timer = None;
        fetch_rr = 0;
        announced = false;
        retired = false;
        provisional;
        prepare_timer = None;
        sc;
        sc_applied = Obs.scope_counter sc "applied";
        sc_residuals = Obs.scope_counter sc "residuals";
      }
    in
    Hashtbl.replace host.instances epoch inst;
    (* A provisional configuration is not advertised: redirects keep
       pointing clients at the last committed configuration until a
       wedge-time bootstrap confirms this one. *)
    if (not provisional) && epoch > host.top_epoch then begin
      host.top_epoch <- epoch;
      host.latest_members <- members
    end;
    if provisional then
      inst.prepare_timer <-
        Some
          (Engine.schedule t.engine ~delay:t.opts.Options.prepare_ttl
             (fun () ->
               inst.prepare_timer <- None;
               teardown_provisional t host inst));
    (match boot with
     | `Active (app, sessions) ->
       inst.app <- app;
       inst.sessions <- sessions;
       inst.activated <- true;
       inst.announced <- epoch = 0;
       start_replica t host inst
     | `Await ->
       (* Speculative handoff: the instance begins ordering immediately,
          concurrently with state transfer. *)
       if Options.speculative t.opts then start_replica t host inst;
       start_fetch t host inst);
    inst

  and start_replica t host inst =
    if inst.replica = None && not inst.retired then begin
      let others = Config.others inst.cfg host.me in
      let replica =
        Replica.create ~engine:t.engine ~params:t.smr_params ~config:inst.cfg
          ~me:host.me
          ~send:(fun ~dst msg ->
            send t ~src:host.me ~dst
              (Wire.Block { epoch = inst.epoch; data = B.Msg.encode msg }))
          ~broadcast:(fun msg ->
            (* One encode for the whole fan-out; the network also sizes
               and tags the shared wire value exactly once. *)
            Network.broadcast t.net ~src:host.me ~dsts:others
              (Wire.Block { epoch = inst.epoch; data = B.Msg.encode msg }))
          ~obs:t.obs
          ~on_decide:(fun idx value -> on_decide t host inst idx value)
          ()
      in
      inst.replica <- Some replica
    end

  and start_fetch t host inst =
    let targets =
      List.filter (fun m -> not (Node_id.equal m host.me)) inst.prev_members
    in
    if targets <> [] && not inst.activated then begin
      (* Stagger initial fetch targets by requester identity so concurrent
         joiners pull from different old members instead of all melting one
         uplink. *)
      if inst.fetch_rr = 0 then inst.fetch_rr <- host.me;
      match List.nth_opt targets (inst.fetch_rr mod List.length targets) with
      | None -> ()
      | Some dst ->
        inst.fetch_rr <- inst.fetch_rr + 1;
        send t ~src:host.me ~dst (Wire.Fetch_state { epoch = inst.epoch });
        inst.fetch_timer <-
          Some
            (Engine.schedule t.engine ~delay:t.opts.Options.fetch_timeout
               (fun () -> if not inst.activated then start_fetch t host inst))
    end

  and activate t host inst ~app ~sessions ~local =
    if (not inst.activated) && (not inst.retired) && not inst.provisional
    then begin
      inst.app <- app;
      inst.sessions <- sessions;
      inst.activated <- true;
      Counters.incr t.counters
        (if local then "local_activations" else "transfers");
      if Trace.active t.bus then
        Trace.emit t.bus ~time:(Engine.now t.engine) ~node:host.me
          ~topic:`Reconfig
          ~attrs:
            [
              ("epoch", string_of_int inst.epoch);
              ("local", if local then "1" else "0");
              ("strategy", t.opts.Options.strategy.Rsmr_iface.Reconfig_strategy.name);
            ]
          "activated";
      inst.fetch_timer <- Engine.cancel_slot t.engine inst.fetch_timer;
      if inst.replica = None then start_replica t host inst;
      (* Execute everything the speculative instance ordered while the
         snapshot was in flight, in log order.  Sort by slot index only:
         polymorphic compare on raw envelopes would order replay by
         payload bytes on (impossible, but cheap to exclude) duplicate
         indices. *)
      let buffered =
        List.sort
          (fun (i, _) (j, _) -> Int.compare i j)
          (List.rev inst.spec_buf)
      in
      inst.spec_buf <- [];
      List.iter (fun (idx, value) -> dispatch t host inst idx value) buffered;
      announce_poll t host inst
    end

  and send_snapshot t host ~dst ~epoch snapshot =
    let pieces = Snapshot.chunk snapshot ~size:t.opts.Options.chunk_size in
    let total = List.length pieces in
    List.iteri
      (fun index data ->
        Counters.incr t.counters "chunks_sent";
        Counters.add t.counters "transfer_bytes" (String.length data);
        send t ~src:host.me ~dst (Wire.State_chunk { epoch; index; total; data }))
      pieces

  (* Handoff: install the assembled snapshot once every chunk is here.
     A provisional instance holds its chunks until confirmation. *)
  and try_install t host inst =
    if
      inst.chunks_total > 0
      && inst.chunks_got = inst.chunks_total
      && (not inst.activated)
      && (not inst.retired)
      && not inst.provisional
    then begin
      (* chunks_got = total distinct indices in [0, total): the bindings
         are every piece, in index order.  The buffer is dead once
         installed, so it is released here. *)
      let pieces = List.map snd (Int_map.bindings inst.chunks) in
      inst.chunks <- Int_map.empty;
      let snapshot = Snapshot.decode (Snapshot.assemble pieces) in
      activate t host inst ~app:(Sm.restore snapshot.Snapshot.app)
        ~sessions:(Session.decode snapshot.Snapshot.sessions) ~local:false
    end

  (* --- wire handlers --- *)

  let handle_bootstrap t host ~epoch ~members ~prev_epoch:_ ~prev_members =
    (* An empty member list off the wire would make Config.make blow up;
       such a bootstrap is garbage, not a configuration. *)
    if members <> [] then
      match Hashtbl.find_opt host.instances epoch with
      | None ->
        ignore
          (create_instance t host ~provisional:false ~epoch ~members
             ~prev_members ~boot:`Await)
      | Some inst ->
        (* Wedge-time bootstrap is authoritative: it confirms a matching
           early-prepared instance and replaces a mismatched one. *)
        ignore (confirm_or_replace t host inst ~members ~prev_members)

  let handle_fetch t host ~src ~epoch =
    match Hashtbl.find_opt host.instances (epoch - 1) with
    | Some prev
      when prev.final_snapshot <> None
           && List.exists (Node_id.equal src) prev.next_members -> (
      (* Post-wedge the committed next membership is known; only its
         members are served (a mismatched early-prepared fetcher must
         starve, never activate). *)
      match prev.final_snapshot with
      | Some snapshot -> send_snapshot t host ~dst:src ~epoch snapshot
      | None -> ())
    | Some _ | None ->
      (* Not wedged yet (or not hosted): remember the request and serve it
         at wedge time. *)
      let waiting =
        match Hashtbl.find_opt host.pending_fetches epoch with
        | Some r -> r
        | None ->
          let r = ref [] in
          Hashtbl.replace host.pending_fetches epoch r;
          r
      in
      if not (List.exists (Node_id.equal src) !waiting) then
        waiting := src :: !waiting

  (* [index] and [total] come off the wire unchecked (a varint decodes
     to any int, negative included): a chunk outside [0, total) is
     garbage, and the buffer grows with the pieces received, never with
     the claimed [total]. *)
  let handle_chunk t host ~epoch ~index ~total ~data =
    match Hashtbl.find_opt host.instances epoch with
    | None -> ()
    | Some inst ->
      if
        (not inst.activated)
        && (not inst.retired)
        && 0 <= index
        && index < total
      then begin
        if inst.chunks_total <> total then begin
          inst.chunks_total <- total;
          inst.chunks <- Int_map.empty;
          inst.chunks_got <- 0
        end;
        if not (Int_map.mem index inst.chunks) then begin
          inst.chunks <- Int_map.add index data inst.chunks;
          inst.chunks_got <- inst.chunks_got + 1
        end;
        try_install t host inst
      end

  let handle_retire t host ~epoch =
    Stable.iter_sorted ~compare:Int.compare
      (fun e inst -> if e < epoch then retire_instance t inst)
      host.instances

  (* --- client admission --- *)

  (* The instance that takes client traffic on [host].  Provisional
     (early-prepared) instances never serve clients: until a wedge-time
     bootstrap confirms them they are not part of the committed
     configuration sequence. *)
  let serving host =
    newest_instance host ~pred:(fun i ->
        i.replica <> None && (not i.retired) && not i.provisional)

  (* Count the request and point the client at the serving instance's
     leader hint, or at the newest configuration this host knows. *)
  let redirect t host current ~dst ~seq =
    Counters.incr t.counters "requests";
    Counters.incr t.counters "redirects";
    let leader =
      match current with
      | Some { wedged_at = None; replica = Some r; _ } -> Replica.leader_hint r
      | Some _ | None -> None
    in
    send t ~src:host.me ~dst
      (Wire.Client
         (Client_msg.Redirect
            { seq; leader; members = host.latest_members; epoch = host.top_epoch }))

  (* One request at the serving leader of an unwedged epoch: a duplicate
     is answered from the session table, anything else comes back as the
     envelope bytes to order.  Fast-path dedup only once sessions are
     installed; ordering a duplicate before that is harmless. *)
  let admit t host inst ~src ~low_water ~seq ~payload =
    Counters.incr t.counters "requests";
    let dup =
      if inst.activated then
        match Session.check inst.sessions ~client:src ~seq with
        | `Dup rsp -> Some rsp
        | `New | `Stale -> None
      else None
    in
    match dup with
    | Some rsp ->
      reply_client t host ~client:src ~seq ~rsp;
      None
    | None ->
      let env =
        match (payload : Client_msg.payload) with
        | Client_msg.Cmd cmd -> Envelope.App { client = src; seq; low_water; cmd }
        | Client_msg.Change_membership members ->
          maybe_prepare t host inst members;
          Envelope.Reconfig { client = src; seq; members }
      in
      Some (Envelope.encode env)

  let handle_request t host ~src ~seq ~low_water ~payload =
    match serving host with
    | Some ({ replica = Some r; wedged_at = None; _ } as inst)
      when Replica.is_leader r -> (
      match admit t host inst ~src ~low_water ~seq ~payload with
      | Some value -> Replica.submit r value
      | None -> ())
    | current -> redirect t host current ~dst:src ~seq

  (* A coalesced client window: every non-duplicate command reaches the
     block as one vector submission (one proposal batch, one
     broadcast). *)
  let handle_request_batch t host ~src ~low_water ~reqs =
    match serving host with
    | Some ({ replica = Some r; wedged_at = None; _ } as inst)
      when Replica.is_leader r ->
      submit_raw_many inst
        (List.filter_map
           (fun (seq, payload) ->
             admit t host inst ~src ~low_water ~seq ~payload)
           reqs)
    | current ->
      List.iter (fun (seq, _) -> redirect t host current ~dst:src ~seq) reqs

  let host_handler t host (env : Wire.t Network.envelope) =
    let src = env.Network.src in
    match env.Network.payload with
    | Wire.Block { epoch; data } -> (
      match Hashtbl.find_opt host.instances epoch with
      | Some inst -> (
        match inst.replica with
        | Some r -> Replica.handle r ~src (B.Msg.decode data)
        | None -> ())
      | None -> ())
    | Wire.Client (Client_msg.Request { seq; low_water; payload }) ->
      handle_request t host ~src ~seq ~low_water ~payload
    | Wire.Client (Client_msg.Request_batch { low_water; reqs }) ->
      handle_request_batch t host ~src ~low_water ~reqs
    | Wire.Client (Client_msg.Reply _ | Client_msg.Redirect _) -> ()
    | Wire.Bootstrap { epoch; members; prev_epoch; prev_members } ->
      handle_bootstrap t host ~epoch ~members ~prev_epoch ~prev_members
    | Wire.Prepare { epoch; members; prev_epoch = _; prev_members } ->
      handle_prepare t host ~epoch ~members ~prev_members
    | Wire.Fetch_state { epoch } -> handle_fetch t host ~src ~epoch
    | Wire.State_chunk { epoch; index; total; data } ->
      handle_chunk t host ~epoch ~index ~total ~data
    | Wire.Retire { epoch } -> handle_retire t host ~epoch
    | Wire.Dir_update _ | Wire.Dir_lookup | Wire.Dir_info _ -> ()
  [@@rsmr.deterministic] [@@rsmr.total]

  let dir_handler t (env : Wire.t Network.envelope) =
    match env.Network.payload with
    | Wire.Dir_update { epoch; members; leader } ->
      Directory.update t.dir ~epoch ~members ~leader
    | Wire.Dir_lookup ->
      send t ~src:t.dir_id ~dst:env.Network.src
        (Wire.Dir_info
           {
             epoch = Directory.epoch t.dir;
             members = Directory.members t.dir;
             leader = Directory.leader t.dir;
           })
    | _ -> ()
  [@@rsmr.deterministic] [@@rsmr.total]

  let client_handler _t record (env : Wire.t Network.envelope) =
    match env.Network.payload with
    | Wire.Client msg -> Endpoint.handle record.endpoint msg
    | Wire.Dir_info { epoch; members; leader } -> (
      match record.dir_k with
      | Some k ->
        record.dir_k <- None;
        if members = [] then k None
        else k (Some { Rsmr_app.Dir_app.epoch; members; leader })
      | None -> ())
    | _ -> ()
  [@@rsmr.deterministic] [@@rsmr.total]

  let add_client t cid =
    if not (Hashtbl.mem t.clients cid) then begin
      let rec record =
        lazy
          {
            endpoint =
              Endpoint.create ~engine:t.engine ~me:cid ~bus:t.bus
                ~send:(fun ~dst msg ->
                  send t ~src:cid ~dst (Wire.Client msg))
                ~members:(Directory.members t.dir)
                ~batch_window:t.opts.Options.client_batch_window
                ~batch_max:t.opts.Options.client_batch_max
                ~lookup:(fun k ->
                  (Lazy.force record).dir_k <- Some k;
                  send t ~src:cid ~dst:t.dir_id Wire.Dir_lookup)
                ~on_reply:(fun ~seq ~rsp -> t.on_reply ~client:cid ~seq ~rsp)
                ();
            dir_k = None;
          }
      in
      let record = Lazy.force record in
      Hashtbl.replace t.clients cid record;
      Network.register t.net cid (client_handler t record)
    end

  let reconfigure t members =
    t.admin_seq <- t.admin_seq + 1;
    (match Hashtbl.find_opt t.clients t.admin_id with
     | Some record ->
       Endpoint.submit record.endpoint ~seq:t.admin_seq
         ~payload:(Client_msg.Change_membership members)
     | None -> (* admin client is created with the service *) ())

  (* Whole-system canonical snapshot: every behaviour-bearing field of
     every host, instance, client and queued message, serialized through
     the codec with all hash tables walked in sorted key order.  This is
     what the model checker fingerprints for visited-state dedup, so the
     exclusion rules match the block fingerprints: no virtual-clock
     reading, no timer due-times (presence only), no RNG, no metrics.
     Nothing ever decodes this — it is identity, not a wire format. *)
  let canonical_state t =
    let module W = Rsmr_app.Codec.Writer in
    let w = W.create ~size_hint:4096 () in
    let node w n = W.varint w (n : Node_id.t) in
    let encode_instance inst =
      W.varint w inst.epoch;
      W.list w node inst.cfg.Config.members;
      W.list w node inst.prev_members;
      W.bool w inst.activated;
      W.option w (fun w v -> W.varint w v) inst.wedged_at;
      W.zigzag w inst.applied_hi;
      W.string w (Fnv.to_hex inst.applied_digest);
      W.list w node inst.next_members;
      W.option w W.string inst.final_snapshot;
      W.list w
        (fun w (i, v) ->
          W.varint w i;
          W.string w v)
        inst.spec_buf;
      W.list w W.string (List.rev inst.residual_buf);
      W.bool w (Engine.slot_pending inst.residual_timer);
      W.varint w inst.chunks_total;
      for i = 0 to inst.chunks_total - 1 do
        W.bool w
          (inst.chunks_got = inst.chunks_total || Int_map.mem i inst.chunks)
      done;
      W.bool w (Engine.slot_pending inst.fetch_timer);
      W.varint w inst.fetch_rr;
      W.bool w inst.announced;
      W.bool w inst.retired;
      (* Early-prepare fields: constant (false, false) under the default
         [composed] strategy, so its reachable-state COUNT is untouched. *)
      W.bool w inst.provisional;
      W.bool w (Engine.slot_pending inst.prepare_timer);
      W.string w (inst_app_bytes inst);
      W.string w (Session.encode inst.sessions);
      W.option w W.string (Option.map Replica.fingerprint inst.replica)
    in
    Stable.iter_sorted ~compare:Node_id.compare
      (fun id host ->
        node w id;
        W.varint w host.top_epoch;
        W.list w node host.latest_members;
        Stable.iter_sorted ~compare:Int.compare
          (fun epoch waiting ->
            W.varint w epoch;
            W.list w node (List.sort Node_id.compare !waiting))
          host.pending_fetches;
        Stable.iter_sorted ~compare:Int.compare
          (fun _ inst -> encode_instance inst)
          host.instances)
      t.hosts;
    W.varint w (Directory.epoch t.dir);
    W.list w node (Directory.members t.dir);
    W.option w node (Directory.leader t.dir);
    W.varint w t.admin_seq;
    Stable.iter_sorted ~compare:Node_id.compare
      (fun id record ->
        node w id;
        W.string w (Endpoint.fingerprint record.endpoint);
        W.bool w (Option.is_some record.dir_k))
      t.clients;
    List.iter
      (fun (src, dst) ->
        node w src;
        node w dst;
        W.list w (fun w m -> W.nested w Wire.write m)
          (Network.queued t.net ~src ~dst))
      (Network.links t.net);
    List.iter (fun n -> W.bool w (Network.is_crashed t.net n))
      (List.sort Node_id.compare
         (Stable.fold_sorted ~compare:Node_id.compare
            (fun id _ acc -> id :: acc)
            t.hosts []));
    W.contents w
  [@@rsmr.deterministic] [@@rsmr.codec.oneway]

  let create ~engine ?latency ?drop ?bandwidth ?smr_params ?options ?universe
      ?obs ?net_mode ~members () =
    if members = [] then invalid_arg "Service.create: empty member set";
    let obs = match obs with Some o -> o | None -> Obs.create () in
    Obs.set_meta obs "block" B.block_name;
    if List.assoc_opt "proto" (Obs.meta obs) = None then
      Obs.set_meta obs "proto" "core";
    let opts = Option.value options ~default:Options.default in
    (match opts.Options.strategy.Rsmr_iface.Reconfig_strategy.driver with
     | `Composition -> ()
     | `Native ->
       invalid_arg
         ("Service.create: strategy "
         ^ opts.Options.strategy.Rsmr_iface.Reconfig_strategy.name
         ^ " has a native driver — it is a separate stack, not a Service \
            configuration"));
    (* The active strategy travels as registry metadata so every
       METRICS_*.json names it without out-of-band bookkeeping. *)
    Obs.set_meta obs "strategy"
      opts.Options.strategy.Rsmr_iface.Reconfig_strategy.name;
    let smr_params = Option.value smr_params ~default:Rsmr_smr.Params.default in
    let universe = Option.value universe ~default:members in
    let universe = List.sort_uniq Node_id.compare (universe @ members) in
    let top = List.fold_left max 0 universe in
    let dir_id = top + 1 in
    let admin_id = top + 2 in
    (* The tagger runs on every send, so classify tunnelled block payloads
       from their leading wire byte ([tag_of_encoded]) instead of a full
       decode, and intern the "block." ^ tag strings. *)
    let block_tags = Hashtbl.create 16 in
    let tagger = function
      | Wire.Block { data; _ } -> (
        let tag = B.Msg.tag_of_encoded data in
        match Hashtbl.find_opt block_tags tag with
        | Some interned -> interned
        | None ->
          let interned = "block." ^ tag in
          Hashtbl.add block_tags tag interned;
          interned)
      | other -> Wire.tag other
    in
    let net =
      Network.create engine ?mode:net_mode ?latency ?drop ?bandwidth ~tagger
        ~sizer:Wire.size ~obs ()
    in
    let t =
      {
        engine;
        net;
        opts;
        smr_params;
        hosts = Hashtbl.create 32;
        dir = Directory.create ();
        dir_id;
        admin_id;
        admin_seq = 0;
        clients = Hashtbl.create 16;
        on_reply = (fun ~client:_ ~seq:_ ~rsp:_ -> ());
        on_dir_update = (fun ~epoch:_ ~members:_ ~leader:_ -> ());
        (* the service's flat counter table IS the registry's "svc"
           section: same live cells, picked up at export time *)
        counters = Obs.counters obs "svc";
        obs;
        bus = Obs.bus obs;
        wedge_times = Hashtbl.create 4;
        wedged_window =
          Obs.histogram obs "wedged_window_s"
            ~labels:
              [
                ( "strategy",
                  opts.Options.strategy.Rsmr_iface.Reconfig_strategy.name );
              ];
      }
    in
    List.iter
      (fun node ->
        let host =
          {
            me = node;
            instances = Hashtbl.create 4;
            pending_fetches = Hashtbl.create 4;
            top_epoch = 0;
            latest_members = members;
          }
        in
        Hashtbl.replace t.hosts node host;
        Network.register t.net node (fun env -> host_handler t host env))
      universe;
    (* Epoch 0 starts live everywhere with fresh state. *)
    List.iter
      (fun node ->
        let host = Hashtbl.find t.hosts node in
        ignore
          (create_instance t host ~provisional:false ~epoch:0 ~members
             ~prev_members:[] ~boot:(`Active (Sm.init (), Session.empty))))
      members;
    Directory.update t.dir ~epoch:0 ~members ~leader:None;
    Network.register t.net dir_id (dir_handler t);
    add_client t admin_id;
    t

  let cluster t =
    {
      Rsmr_iface.Cluster.name = "core";
      engine = t.engine;
      add_client = (fun cid -> add_client t cid);
      submit =
        (fun ~client ~seq ~cmd ->
          match Hashtbl.find_opt t.clients client with
          | Some record ->
            Endpoint.submit record.endpoint ~seq
              ~payload:(Client_msg.Cmd cmd)
          | None -> invalid_arg "submit: unknown client (call add_client)");
      set_on_reply = (fun h -> t.on_reply <- h);
      members = (fun () -> Directory.members t.dir);
      control =
        Rsmr_iface.Overlay.on_network t.net ~reconfigure:(fun members ->
            reconfigure t members);
      obs = t.obs;
    }
end

module Make (Sm : Rsmr_app.State_machine.S) = Make_on (Rsmr_smr.Paxos_block) (Sm)
