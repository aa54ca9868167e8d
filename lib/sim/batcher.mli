(** The one batching window: the Paxos leader's proposals, the VR
    primary's prepares and the client endpoint's coalesced requests all
    go through it.

    Values wait up to [delay] seconds, or until [max] are buffered, then
    leave oldest first in one piece.  A flush takes at most
    [capacity owner] of them (e.g. free pipeline slots) and cancels the
    window timer; the rest wait for {!pump}, which flushes only while no
    timer is pending.  With zero capacity a flush takes nothing and
    leaves an armed timer alone.  [delay <= 0.] emits each value at
    once, capacity permitting.

    The owner ['o] is passed to every call rather than captured, so a
    batcher is one small record and no closures per replica. *)

type ('o, 'a) sink = {
  capacity : 'o -> int;  (** values the owner can take now *)
  one : 'o -> 'a -> unit;  (** a flush took exactly one value *)
  many : 'o -> 'a list -> unit;  (** a flush took more, oldest first *)
}

type ('o, 'a) t

val create : Engine.t -> delay:float -> max:int -> ('o, 'a) sink -> ('o, 'a) t

val add : ('o, 'a) t -> 'o -> 'a -> unit
[@@rsmr.deterministic] [@@rsmr.total]

val add_all : ('o, 'a) t -> 'o -> 'a list -> unit
[@@rsmr.deterministic] [@@rsmr.total]
(** Buffer a vector that is already a batch and flush at once. *)

val flush : ('o, 'a) t -> 'o -> unit
[@@rsmr.deterministic] [@@rsmr.total]
(** Take what capacity allows now, whatever the window. *)

val pump : ('o, 'a) t -> 'o -> unit
[@@rsmr.deterministic] [@@rsmr.total]

val park : ('o, 'a) t -> 'a list
[@@rsmr.deterministic] [@@rsmr.total]
(** Cancel the timer and hand back the buffer, oldest first
    (step-down). *)

val cancel : ('o, 'a) t -> unit
[@@rsmr.deterministic] [@@rsmr.total]
(** Cancel the timer, keep the buffer (halt). *)

val mem : ('o, 'a) t -> equal:('a -> 'a -> bool) -> 'a -> bool
[@@rsmr.deterministic] [@@rsmr.total]

val fingerprint :
  Rsmr_app.Codec.Writer.t ->
  ('o, 'a) t ->
  order:[ `Newest_first | `Oldest_first ] ->
  (Rsmr_app.Codec.Writer.t -> 'a -> unit) ->
  unit
[@@rsmr.deterministic] [@@rsmr.total]
(** The owner's canonical-state share: the buffer as a length-prefixed
    list in [order], then whether the window timer is pending. *)
