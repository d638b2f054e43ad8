(** Incrementally repairable shortest-path collection tree.

    The only shortest-path code in the library: {!Flow}, {!Net_sim} and
    the fleet co-simulation all grow their sink-rooted trees here.
    {!rebuild} is a from-scratch Dijkstra straight off an edge pricing
    ({!weight}; {!Routing.tree_weight} for the routing policies), bit
    for bit the graph-materialising pipeline the test suite keeps as its
    oracle, while {!repair_death} and
    {!repair_weight_increase} splice only the affected subtree back via
    a boundary-seeded partial Dijkstra — O(subtree) over the in-range
    CSR rows every sweep reads — and the affected list ({!affected})
    lets callers refresh only what moved.  The repair paths are exact when shortest paths are unique
    (tie-free weights); callers with unit-weight policies pass
    [tie_free:false] to fall back to the full rebuild, because
    equal-cost tie-breaks are a global property of the rebuild
    chronology.  The from-scratch rebuild stays the periodic
    residual-aware refresh and the oracle in the property tests. *)

type t

type cell = Amb_sim.Float_heap.cell = { mutable v : float }

type weight = int -> int -> int -> cell -> unit
(** An edge pricing: [weight u v k c] stores in [c.v] the directed
    policy cost of hop [u -> v], NaN when there is no link.  [k] is the
    pair's slot in the tree's rows ({!create}): either [neighbors.(k) =
    v] inside row [u] (a relaxation) or [neighbors.(k) = u] inside row
    [v] (a repair's boundary seed).  A pricing over per-slot tables
    that hold the same value in both directions — as
    {!Routing.link_energy_into} reads them over {!Routing.rows} — reads
    the pair by index, with no row search; any other pricing may
    ignore [k].  Answering through a cell keeps the float unboxed
    across the call: an edge priced this way allocates nothing. *)

val create : rows:int array * int array -> sink:int -> t
(** Fresh tree rooted at [sink] over the [n] nodes of the adjacency
    [rows = (offsets, neighbors)] (as {!Routing.rows} returns; [n] is
    [Array.length offsets - 1]); every node starts unreachable.
    Rebuilds and repairs relax only the listed pairs — O(edges) per
    sweep.

    Preconditions, not checked:
    - the rows are complete: every pair with a finite weight is listed
      (true for range-limited radio policies, whose off-row pairs are
      NaN; fades only shrink the in-range set);
    - the rows are symmetric: [j] is in row [i] exactly when [i] is in
      row [j] ({!Routing.rows} is, since being in range is a symmetric
      relation).  Repairs find a subtree by walking down from its root
      through the rows of each member, which sees every child only when
      each tree edge appears in both rows.

    Raises [Invalid_argument] on empty networks or a sink outside
    [0..n-1]. *)

val node_count : t -> int
val sink : t -> int

val parent : t -> int -> int
(** Parent towards the sink after the last rebuild/repair; -1 for the
    sink itself and for unreachable nodes. *)

val cost : t -> int -> float
(** Policy cost from the sink ([infinity] when unreachable). *)

val affected_count : t -> int
(** How many nodes the last update may have re-parented: the subtree a
    local repair detached and re-attached (a dead node's own subtree
    includes the dead node), 0 after a no-op weight increase, and every
    node after a rebuild (a fall-back included).  Nodes outside the list
    kept their parent and cost bit for bit. *)

val affected : t -> int -> int
(** [affected t k] — the [k]-th node of that list, in ascending id
    order, for [k] in [0 .. affected_count t - 1].  Raises
    [Invalid_argument] outside that range. *)

val rebuild : t -> weight:weight -> alive:(int -> bool) -> unit
(** From-scratch Dijkstra from the sink, pricing each row entry it
    relaxes once with [weight]; only nodes with [alive] participate. *)

val repair_death :
  t -> weight:weight -> alive:(int -> bool) -> tie_free:bool -> dead:int -> unit
(** Update the tree after node [dead] left the network ([alive dead]
    must already be false).  With [tie_free] only the orphaned subtree
    is re-attached; otherwise falls back to {!rebuild}. *)

val repair_weight_increase :
  t ->
  weight:weight ->
  alive:(int -> bool) ->
  tie_free:bool ->
  a:int ->
  b:int ->
  unit
(** Update the tree after the cost of the (undirected) pair [a, b]
    increased — possibly to NaN (link lost).  A worsened non-tree edge
    is a no-op; a worsened tree edge re-attaches the child's subtree.
    Cost decreases are not handled here — callers must {!rebuild}. *)
