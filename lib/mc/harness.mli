(** The bridge between the explorer and the real protocol stack.

    A harness owns one live composed service (over {!Rsmr_app.Counter})
    in enumerate-mode networking plus the exploration bookkeeping: which
    scripted workload steps have been taken, which nodes are down, what
    the client has been told, and the committed-prefix witness table.

    States are never snapshotted — they cannot be, the protocol state is
    a web of closures and mutable records.  Instead a state is reached
    by replaying its choice sequence from {!create}: the engine seed and
    virtual clock make that bit-for-bit deterministic, which
    {!fingerprint} (and a dedicated test) relies on. *)

module Svc : Rsmr_core.Service.S with type app_state = Rsmr_app.Counter.t

type proto = Rsmr_iface.Reconfig_strategy.t
(** A composition-driver reconfiguration strategy (native stacks have no
    wedge/instance structure for the explored properties to inspect). *)

val core : proto
val stopworld : proto
(** [Core] is the paper's composition with default options (speculative
    handoff, residual resubmission); [Stopworld] the conservative
    baseline configuration of the same composition. *)

val proto_of_string : string -> proto option
(** Registered strategy names and aliases; [None] for unknown names and
    [`Native]-driver strategies. *)

val proto_to_string : proto -> string

exception Divergent of Choice.t
(** Raised by {!apply} when a stored choice is not applicable — a
    replayed path diverged from the run it was recorded on.  Indicates
    a determinism bug (or a trace for a different scope/proto). *)

type t

val create : proto:proto -> scope:Scope.t -> mutate:bool -> unit -> t
(** Fresh initial state.  [mutate] re-introduces the first-wedge-wins
    bug ({!Rsmr_core.Options.mutation}) so the checker's teeth can be
    tested: exploration must then find an epoch-prefix violation. *)

val enabled : t -> Choice.t list
(** Outgoing transitions of the current state, deterministically
    ordered, already filtered by the scope's budgets.  Empty once
    {!violation} is set. *)

val apply : t -> Choice.t -> unit
(** Execute one choice against the live system, then run every safety
    property on the resulting state (first failure latches into
    {!violation}).  @raise Divergent if the choice is not enabled. *)

val replay : proto:proto -> scope:Scope.t -> mutate:bool -> Choice.t list -> t
(** [create], then execute each choice in order, stopping early if a
    violation latches — how the explorer materialises a frontier state
    and how counterexamples are reproduced.

    Only the final state gets the full property check.  Every earlier
    state on the trace was checked by the {!apply} that first reached
    it, so replay only records its committed-prefix witnesses: that is
    the one property judged against the states before it.  For every
    trace the explorer stores (no proper prefix violates), [replay cs]
    has the same {!fingerprint}, {!violation} and {!witnesses} as
    [create] followed by [apply] of each choice.  A trace that runs
    past a single-state violation reports it only if it still holds at
    the end; {!Explore.render_counterexample} applies step by step and
    reports the first.
    @raise Divergent if a choice is not enabled where the trace puts it. *)

val fingerprint : t -> Fingerprint.t
[@@rsmr.deterministic]
(** Content hash of the canonical service state plus the exploration
    bookkeeping that gates enabledness.  Equal fingerprints mean the
    states are interchangeable for exploration purposes. *)

val violation : t -> string option
(** First safety-property failure observed on this path, if any. *)

val witnesses : t -> int
(** Distinct [(epoch, applied_hi)] prefixes whose digest this path has
    witnessed so far — the memory of the committed-prefix property,
    which {!replay} must rebuild along the whole path. *)

val scope : t -> Scope.t
val proto : t -> proto
val engine : t -> Rsmr_sim.Engine.t

val summary : t -> string
(** Human-readable one-state digest (virtual time, per-node epoch
    stats, counter values) for counterexample traces. *)

val client_id : int
(** Node id of the single scripted client (1000 — far above any
    universe the scope parser will produce). *)

(** {2 Coverage}

    Which protocol milestones exploration actually reached — the
    "did the scope exercise anything interesting" sanity signal that a
    bare 0-violations claim lacks. *)

type coverage = {
  cov_wedged : bool;  (** some instance wedged (a reconfig was decided) *)
  cov_activated : bool;  (** some epoch [>= 1] instance activated *)
  cov_retired : bool;  (** some superseded instance retired *)
  cov_replies : int;  (** client replies received *)
  cov_max_counter : int;  (** highest counter value on any replica *)
}

val coverage_empty : coverage
val coverage_union : coverage -> coverage -> coverage
val coverage : t -> coverage
