(** Uniform-grid spatial index over node positions.

    Every range query on a run path goes through this grid: the
    {!Routing} CSR build enumerates the in-range pairs from it instead
    of scanning all O(n²) pairs.  Its cell edge is tied to the radio
    range, so each slot's scan touches a constant-size cell ring.
    Build is O(n + cells), memory O(n + cells), and the cell count is
    clamped to O(n) regardless of the requested cell size.

    Coordinates are kept in slot (cell) order.  The pair kernels visit
    each slot's {e forward half ring}: the rest of its grid row from the
    next slot on, then the grid rows above it, each as one contiguous
    slot range.  Every unordered pair of nodes in neighbouring cells is
    met exactly once.  Candidates are screened on the squared distance
    ({!sq_band}) before any square root.  The kernels accept exactly the
    pairs with [Float.hypot dx dy <= range_m] and report bit-identical
    distances to the brute-force scan (the same [Float.hypot] on the
    same coordinates; its sign symmetry makes the direction of the
    difference immaterial), so swapping the index in never moves an
    experiment digest — tested against the all-pairs scan (kept as a
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

val count_pairs :
  t -> range_m:float -> int -> int -> deg:int array -> up:int array -> unit
(** [count_pairs t ~range_m lo hi ~deg ~up] visits the forward half
    ring of every slot in [lo, hi) and, for each in-range pair [{i, j}]
    met there, adds 1 to [deg.(i)], [deg.(j)] and [up.(min i j)].  Run
    over the ranges of any partition of the slots [0 .. node_count - 1],
    it adds node [i]'s in-range degree to [deg.(i)] in total, and the
    number of its in-range neighbours [j > i] to [up.(i)].  No pair when
    [range_m <= 0]. *)

val fill_pairs :
  t ->
  range_m:float ->
  int ->
  int ->
  cursor:int array ->
  ids:int array ->
  dists:float array ->
  unit
(** [fill_pairs t ~range_m lo hi ~cursor ~ids ~dists] meets the same
    pairs as {!count_pairs} and, for each, with [l = min i j],
    decrements [cursor.(l)] and writes [max i j] into [ids.(cursor.(l))]
    and the pair's exact distance into [dists.(cursor.(l))]: each row's
    span fills downwards from its cursor, in scan order, not by id.
    Runs over disjoint slot ranges write disjoint slots when each run's
    cursors start at the ends of spans as long as {!count_pairs}
    counted over the same range. *)

val sq_band : float -> float * float
(** [sq_band range_m] is [(lo, hi)] with [dx*.dx +. dy*.dy < lo]
    implying [Float.hypot dx dy <= range_m] and [> hi] implying the
    opposite — [range_m²(1∓1e-9)], or the whole line when [range_m²]
    overflows or is subnormal.  Between the two, only [Float.hypot]
    decides. *)
