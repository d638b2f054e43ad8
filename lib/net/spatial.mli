(** Uniform-grid spatial index over node positions.

    Every range query on a run path goes through this grid: the
    {!Routing} CSR build asks it for each node's in-range neighbours
    instead of scanning all O(n²) pairs.  Its cell edge is tied to the
    radio range, so a query touches a constant-size cell ring.  Build
    is O(n + cells), memory O(n + cells), and the cell count is clamped
    to O(n) regardless of the requested cell size.

    Coordinates are kept in slot (cell) order, so a query scans each
    grid row of its ring as one contiguous slot range, and screens
    candidates on the squared distance ({!sq_band}) before any square
    root.  Queries accept exactly the pairs with
    [Float.hypot dx dy <= range_m] and return bit-identical distances to
    the brute-force scan (the same [Float.hypot] on the same
    coordinates), so swapping the index in never moves an experiment
    digest — property-tested against the all-pairs scan (kept as a
    test-side reference) on random and boundary layouts. *)

type t

val make :
  xs:float array -> ys:float array -> width_m:float -> height_m:float -> cell_m:float -> t
(** Index of points [(xs.(i), ys.(i))] in a [width_m] x [height_m] field
    with cells of roughly [cell_m] on a side (inflated when a smaller
    cell would exceed the O(n) cell budget).  Raises [Invalid_argument]
    on mismatched arrays, a non-positive field or cell size. *)

val node_count : t -> int

val cell_m : t -> float
(** Actual cell edge after clamping. *)

val iter_within : t -> int -> range_m:float -> (int -> float -> unit) -> unit
(** [iter_within t i ~range_m f] calls [f j d] for every node [j <> i]
    within [range_m] of node [i] ([d] is their exact distance).
    Deterministic order: cells row-major over the covering ring, ids
    ascending within a cell — not globally sorted. *)

val neighbors_within : t -> int -> range_m:float -> int list
(** Ascending node ids within range — element-for-element identical to
    the brute-force ascending pair scan. *)

val degree : t -> int -> range_m:float -> int
(** Number of nodes within range — the length of {!neighbors_within}. *)

val fill_above : t -> int -> range_m:float -> int array -> float array -> int -> int
(** [fill_above t i ~range_m ids dists pos] writes the ids and exact
    distances of the nodes [j > i] within range of [i] into [ids] /
    [dists] from slot [pos] on, in {!iter_within} order, and returns the
    next free slot.  The CSR build's half scan: the other half of each
    symmetric pair comes from its mirror. *)

val sq_band : float -> float * float
(** [sq_band range_m] is [(lo, hi)] with [dx*.dx +. dy*.dy < lo]
    implying [Float.hypot dx dy <= range_m] and [> hi] implying the
    opposite — [range_m²(1∓1e-9)], or the whole line when [range_m²]
    overflows or is subnormal.  Between the two, only [Float.hypot]
    decides. *)
