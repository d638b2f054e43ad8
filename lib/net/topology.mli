(** Node placement in a rectangular field (metres) — the layouts the
    routing and lifetime experiments run on.  Radio-range queries go
    through a {!Spatial} grid over the positions ({!spatial}). *)

type position = { x : float; y : float }

type t = {
  width_m : float;
  height_m : float;
  positions : position array;
}

val distance : position -> position -> float

val of_positions : width_m:float -> height_m:float -> position array -> t
(** Raises [Invalid_argument] on non-positive fields or out-of-field
    nodes. *)

val random : Amb_sim.Rng.t -> nodes:int -> width_m:float -> height_m:float -> t
(** Uniform random placement. *)

val grid : columns:int -> rows:int -> spacing_m:float -> t
(** Regular grid, node 0 at the origin corner. *)

val star : leaves:int -> radius_m:float -> t
(** Hub (node 0) surrounded by leaves on a circle. *)

val node_count : t -> int
val position : t -> int -> position
val pair_distance : t -> int -> int -> float

val spatial : t -> cell_m:float -> Spatial.t
(** Uniform-grid index over the node positions; callers tie [cell_m] to
    the radio range.  Build one and query it directly when issuing many
    range queries. *)

val density : t -> float
(** Nodes per square metre. *)
