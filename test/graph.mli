(** Weighted directed graphs over integer node ids: adjacency lists,
    Dijkstra shortest paths, BFS hop counts and connectivity — the
    shortest-path oracle for {!Amb_net.Route_tree} and
    {!Amb_net.Flow}. *)

type edge = { dst : int; weight : float }
type t

val create : int -> t
(** Raises [Invalid_argument] on negative node counts. *)

val node_count : t -> int

val add_edge : t -> src:int -> dst:int -> weight:float -> unit
(** Directed edge; raises [Invalid_argument] on out-of-range nodes or
    negative weights (Dijkstra). *)

val add_undirected : t -> int -> int -> weight:float -> unit
val neighbors : t -> int -> edge list
val edge_count : t -> int

val dijkstra : t -> src:int -> float array * int array
(** Arrays of (distance, predecessor); unreachable nodes have infinite
    distance and predecessor -1. *)

val shortest_path : t -> src:int -> dst:int -> int list option
(** Node list from [src] to [dst] inclusive, or [None] when unreachable. *)

val path_cost : t -> int list -> float
(** Sum of edge weights along a path; raises [Not_found] on a missing
    edge. *)

val hops : t -> src:int -> int array
(** BFS hop counts (unit edge weight); -1 for unreachable nodes. *)

val is_connected : t -> bool
(** Every node reachable from node 0 (undirected usage). *)
