(** The one fault-injection / control surface every overlay presents.

    Single-service clusters ({!Cluster.t}) and the sharded platform
    historically exposed differently-named crash/partition/reconfigure
    entry points; harnesses now drive both through a [control] value.
    What a fault {e means} is the overlay's business — e.g. [Partition]
    splits replica links on a single service but cuts only the
    directory overlay on the platform (machine-level crashes already
    cover the shards). *)

type fault =
  | Crash of Rsmr_net.Node_id.t  (** node stops sending/receiving *)
  | Recover of Rsmr_net.Node_id.t
  | Partition of Rsmr_net.Node_id.t list list  (** connectivity groups *)
  | Heal  (** undo [Partition] *)

type control = {
  fault : fault -> unit;
  reconfigure : Rsmr_net.Node_id.t list -> unit;
      (** submit a membership change (platform: directory membership) *)
}

val on_network :
  'm Rsmr_net.Network.t ->
  reconfigure:(Rsmr_net.Node_id.t list -> unit) ->
  control
(** A single service's surface: every fault acts on its one network. *)

(** Convenience wrappers over [control]. *)

val crash : control -> Rsmr_net.Node_id.t -> unit
val recover : control -> Rsmr_net.Node_id.t -> unit
val heal : control -> unit
val reconfigure : control -> Rsmr_net.Node_id.t list -> unit
