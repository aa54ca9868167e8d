(** Timing parameters of the static SMR building block.  Defaults are tuned
    for the LAN latency model (sub-millisecond RTT) and have batching and
    pipelining ON: leaders coalesce submissions for [batch_delay] into
    multi-command slots and keep up to [max_outstanding] uncommitted slots
    in flight. *)

type t = {
  heartbeat_interval : float;  (** leader heartbeat period, seconds *)
  election_timeout_min : float;
  election_timeout_max : float;
      (** follower election timeout is drawn uniformly from this range,
          Raft-style, to break dueling-proposer livelock *)
  resend_interval : float;     (** leader re-broadcast period for stuck slots *)
  learn_batch : int;           (** max entries per Learn response *)
  batch_delay : float;
      (** the leader's {!Rsmr_sim.Batcher} window (seconds; Raft keeps its
          own): submissions accumulate this long and are proposed as one
          multi-command run.  0 disables the window (a lone submission is
          proposed at once in a single slot; vector submissions via
          [submit_many] still travel as one batch). *)
  batch_max : int;  (** flush early at this many buffered commands *)
  max_outstanding : int;
      (** pipelining cap, the batcher's capacity: at most this many
          uncommitted slots in flight; further submissions wait in the
          batcher until commit progress pumps them.  Also bounds the
          resend window for stuck slots (Raft: entries per [Append]). *)
}

val with_batching : float -> t
(** [default] with the given batching window. *)

val unbatched : t
(** [default] with the batching window disabled (one [Accept] broadcast per
    command) — the pre-batching ablation baseline. *)

val default : t
val pp : Format.formatter -> t -> unit
