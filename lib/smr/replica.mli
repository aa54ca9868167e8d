(** One replica of a {e non-reconfigurable} Multi-Paxos state machine
    replication instance.

    The instance totally orders opaque string commands over a fixed member
    set ({!Config.t}); it has no notion of membership change — that is the
    whole point of the paper, which composes these black boxes into a
    reconfigurable service ({!Rsmr_core}).

    A replica plays all three Paxos roles.  Leadership is established with
    phase 1 over the uncommitted log suffix and maintained with heartbeats;
    followers start elections after a randomized timeout.  Decided commands
    are delivered to [on_decide] in strict index order, exactly once per
    index on any given replica.

    The replica is transport-agnostic: it emits messages through the [send]
    callback given at creation and consumes them via {!handle}; the host is
    responsible for wiring those to a network. *)

type t

type status = Leader | Candidate | Follower

val create :
  engine:Rsmr_sim.Engine.t ->
  ?params:Params.t ->
  ?trace:Rsmr_sim.Trace.t ->
  config:Config.t ->
  me:Rsmr_net.Node_id.t ->
  send:(dst:Rsmr_net.Node_id.t -> Msg.t -> unit) ->
  ?broadcast:(Msg.t -> unit) ->
  ?obs:Rsmr_obs.Registry.t ->
  on_decide:(int -> string -> unit) ->
  unit ->
  t
(** [me] must be a member of [config].

    [broadcast msg], when provided, replaces per-destination [send] for
    any message addressed to every other member — the transport can then
    encode the payload exactly once for the whole fan-out.  It must be
    equivalent to [send ~dst msg] for each member of [config] except
    [me].

    [obs], when provided, receives the replica's accounting
    ("elections", "takeovers", "proposals", "commits") in cells scoped
    by [{node = me; epoch = config.instance_id}]; cells are resolved
    once here so the per-event cost is a ref bump. *)

val handle : t -> src:Rsmr_net.Node_id.t -> Msg.t -> unit
[@@rsmr.deterministic] [@@rsmr.total]
(** Feed an incoming message.  Ignored once {!halt}ed.  The flow
    annotations are enforced by rsmr-flow: everything reachable from
    [handle] must be deterministic and total. *)

val submit : t -> string -> unit
[@@rsmr.deterministic] [@@rsmr.total]
(** Offer a command for ordering.  If this replica is not the leader it
    forwards the command (best effort — the client layer owns retries). *)

val submit_many : t -> string list -> unit
[@@rsmr.deterministic] [@@rsmr.total]
(** Offer an ordered vector of commands.  On the leader the vector is
    proposed as one multi-command slot run (a single [Accept_multi]
    broadcast) regardless of the batching window; a follower forwards it
    as one [Submit_multi].  Equivalent to [List.iter (submit t)] w.r.t.
    ordering and delivery, but O(1) messages instead of O(n). *)

val status : t -> status
val is_leader : t -> bool
val leader_hint : t -> Rsmr_net.Node_id.t option

val halt : t -> unit
(** Retire the replica: cancel timers, drop all future input.  Used when
    its configuration is superseded. *)

val is_halted : t -> bool

val commit_index : t -> int
(** Length of the committed log prefix. *)

val decided_upto : t -> int
(** Number of slots already delivered to [on_decide] (counting no-ops). *)

val log_length : t -> int
val config : t -> Config.t
val me : t -> Rsmr_net.Node_id.t

val kick_election : t -> unit
(** Test hook: trigger an immediate election attempt. *)

val fingerprint : Rsmr_app.Codec.Writer.t -> t -> unit
[@@rsmr.deterministic]
(** Write the canonical encoding of the replica's complete protocol
    state — see {!Block_intf.S.fingerprint}.  Unordered collections are
    emitted in sorted order; timer due-times, RNG and metrics are
    excluded, timer presence is included. *)
