(** Data-collection trees and network lifetime (first-node-death metric,
    experiment E11): interior nodes forward their whole subtree's traffic,
    so they die first. *)

open Amb_units

type tree = {
  sink : int;
  parent : int array;  (** parent.(sink) = -1; -2 when disconnected *)
  subtree_size : int array;  (** nodes (incl. self) whose traffic crosses i *)
}

val collection_tree :
  Routing.t -> policy:Routing.policy -> residual:(int -> Energy.t) -> sink:int -> tree
(** Shortest-path tree to the sink under the policy's edge weights
    ({!Routing.tree_weight}), one {!Route_tree.rebuild}; a
    [Max_lifetime] hop is priced by the residual of its end nearer the
    sink.  Raises [Invalid_argument] on an empty network or a sink
    outside [0..n-1]. *)

val connected_count : tree -> int

val per_round_energy : Routing.t -> tree -> int -> Energy.t
(** Radio energy node [i] spends per round: transmit its subtree's
    packets to its parent, receive its children's.  The sink only
    receives. *)

val lifetime_rounds : Routing.t -> tree -> budget:(int -> Energy.t) -> float
(** Rounds until the first non-sink node exhausts its budget; infinite if
    nothing drains. *)

val simulate_depletion :
  Routing.t ->
  policy:Routing.policy ->
  budget:(int -> Energy.t) ->
  sink:int ->
  rebuild_every:float ->
  float
(** Rounds to first death with residuals depleted as rounds pass; the
    tree is rebuilt against current residuals every [rebuild_every]
    rounds, so [Max_lifetime] reroutes around draining bottlenecks.
    Advances in closed-form blocks (no per-round loop), rebuilding one
    {!Route_tree} in place.  Raises [Invalid_argument] on a non-finite
    or non-positive [rebuild_every], and when no node has died after
    10 000 blocks (a [rebuild_every] far below the first death). *)

val bottleneck : Routing.t -> tree -> budget:(int -> Energy.t) -> (int * float) option
(** The node that dies first and its rounds-to-death. *)
