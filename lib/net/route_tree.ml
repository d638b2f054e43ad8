(** Incrementally repairable shortest-path collection tree.

    The collection trees ({!Flow}) and the simulators ({!Net_sim},
    Cosim) keep one sink-rooted routing tree over the alive subgraph.
    This module keeps it in reusable scratch arrays and offers two
    update paths:

    - {!rebuild} — a from-scratch Dijkstra that replicates the
      [Graph.create]/[Graph.add_edge]/[Graph.dijkstra] pipeline of the
      test suite's oracle ([test/graph.ml]) byte-for-byte (same
      descending-destination relaxation order, same FIFO heap
      tie-breaks, same strict-improvement predecessor rule) without
      materialising a graph: edges are priced straight by the caller's
      weight function, over the in-range CSR rows only.
    - {!repair_death} / {!repair_weight_increase} — localized repair:
      only the subtree hanging off the failed node (or the worsened tree
      edge) is re-attached, via a boundary-seeded partial Dijkstra over
      the affected set.  Every step — finding the subtree, resetting
      it, seeding it, sweeping it — is O(subtree and its rows), and the
      affected list is left for callers to refresh their own per-node
      state from.

    The repair paths are exact when shortest paths are unique (tie-free
    weights — energy-valued policies on continuous positions).  Under
    unit weights (Min_hop) equal-cost predecessor choice depends on the
    global heap chronology of the full rebuild, which a local repair
    cannot reproduce, so callers pass [tie_free:false] and the repair
    falls back to {!rebuild}.  Property tests check both paths against
    the [Graph.dijkstra] oracle on random fault sequences. *)

type cell = Amb_sim.Float_heap.cell = { mutable v : float }
type weight = int -> int -> int -> cell -> unit

type t = {
  n : int;
  sink : int;
  dist : float array;  (** policy cost from the sink; [infinity] = unreachable *)
  prev : int array;  (** parent towards the sink; -1 = none *)
  visited : bool array;
  mark : int array;
      (** repair scratch, epoch-stamped: [mark.(v) = epoch] marks the
          current repair's affected set, so no repair clears it *)
  mutable epoch : int;
  stack : int array;
      (** repair scratch, then the affected list: [stack.(0 ..
          affected_count - 1)], ascending *)
  mutable affected_count : int;
  heap : Amb_sim.Float_heap.t;
  key : Amb_sim.Float_heap.cell;  (** the popped key, unboxed *)
  w : cell;  (** the priced edge, unboxed *)
  offsets : int array;  (** in-range adjacency rows, as {!Routing.rows} *)
  neighbors : int array;
}

let create ~rows:(offsets, neighbors) ~sink =
  let n = Array.length offsets - 1 in
  if n <= 0 then invalid_arg "Route_tree.create: non-positive node count";
  if sink < 0 || sink >= n then invalid_arg "Route_tree.create: sink outside 0..n-1";
  {
    n;
    sink;
    dist = Array.make n Float.infinity;
    prev = Array.make n (-1);
    visited = Array.make n false;
    mark = Array.make n 0;
    epoch = 0;
    stack = Array.make n 0;
    affected_count = 0;
    heap = Amb_sim.Float_heap.create ~capacity:(Stdlib.max 16 n) ();
    key = { Amb_sim.Float_heap.v = 0.0 };
    w = { v = 0.0 };
    offsets;
    neighbors;
  }

let node_count t = t.n
let sink t = t.sink
let parent t i = t.prev.(i)
let cost t i = t.dist.(i)
let affected_count t = t.affected_count

let affected t k =
  if k < 0 || k >= t.affected_count then invalid_arg "Route_tree.affected: index out of range";
  t.stack.(k)

(* Dijkstra sweep over [t.heap]; relaxes only destinations [j] admitted
   by [admit].  Mirrors the oracle's Graph.dijkstra exactly: stale-entry skip via
   [d <= dist], strict-improvement predecessor updates, and neighbours
   visited in descending id — Graph stores edges in ascending insertion
   order and iterates them most-recent-first.  The relaxation runs over
   [u]'s in-range row only, descending — O(edges) per sweep; off-row
   pairs have NaN weight in every policy, so the rows drop no edge.
   The pricing gets the row slot [k] of [j] and answers through the
   [w] cell, so an edge costs no row search and no boxed float. *)
let[@inline] relax t ~(weight : weight) ~alive ~admit ~u ~base j k =
  if j <> u && admit j && alive j then begin
    weight u j k t.w;
    let w = t.w.v in
    if not (Float.is_nan w) then begin
      let candidate = base +. w in
      if candidate < t.dist.(j) then begin
        t.dist.(j) <- candidate;
        t.prev.(j) <- u;
        t.w.v <- candidate;
        Amb_sim.Float_heap.push_cell t.heap t.w j
      end
    end
  end

let sweep t ~weight ~alive ~admit =
  let dist = t.dist and visited = t.visited and heap = t.heap and key = t.key in
  let offsets = t.offsets and neighbors = t.neighbors in
  while not (Amb_sim.Float_heap.is_empty heap) do
    let u = Amb_sim.Float_heap.pop_min heap key in
    if (not visited.(u)) && key.v <= dist.(u) && alive u then begin
      visited.(u) <- true;
      let base = dist.(u) in
      for k = offsets.(u + 1) - 1 downto offsets.(u) do
        relax t ~weight ~alive ~admit ~u ~base neighbors.(k) k
      done
    end
  done

let all_nodes _ = true

(** [rebuild t ~weight ~alive] — from-scratch Dijkstra from the sink.
    [weight u v k c] stores the directed policy cost of hop [u -> v]
    (NaN = no link) in [c]; only nodes with [alive] participate.
    Replicates the Graph-based oracle rebuild byte-for-byte.  Every
    node counts as affected. *)
let rebuild t ~weight ~alive =
  let dist = t.dist and prev = t.prev and visited = t.visited in
  for i = 0 to t.n - 1 do
    dist.(i) <- Float.infinity;
    prev.(i) <- -1;
    visited.(i) <- false;
    t.stack.(i) <- i
  done;
  t.affected_count <- t.n;
  dist.(t.sink) <- 0.0;
  Amb_sim.Float_heap.clear t.heap;
  t.w.v <- 0.0;
  Amb_sim.Float_heap.push_cell t.heap t.w t.sink;
  sweep t ~weight ~alive ~admit:all_nodes

(* In-place ascending heapsort of [a.(0 .. len - 1)]. *)
let sort_prefix (a : int array) len =
  let rec sift root limit =
    let child = (2 * root) + 1 in
    if child < limit then begin
      let child = if child + 1 < limit && a.(child) < a.(child + 1) then child + 1 else child in
      if a.(root) < a.(child) then begin
        let tmp = a.(root) in
        a.(root) <- a.(child);
        a.(child) <- tmp;
        sift child limit
      end
    end
  in
  for root = (len / 2) - 1 downto 0 do
    sift root len
  done;
  for last = len - 1 downto 1 do
    let tmp = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- tmp;
    sift 0 last
  done

(* The subtree under [root], stamped with the current epoch and listed
   ascending in [stack]: a walk down the tree, where [v] is a child of
   [u] exactly when [v] is in [u]'s row and [prev.(v) = u] — every tree
   edge was relaxed along a row or seeded along its mirror, and the rows
   are symmetric.  O(subtree degree). *)
let collect_subtree t ~root =
  let e = t.epoch and mark = t.mark and prev = t.prev and stack = t.stack in
  let offsets = t.offsets and neighbors = t.neighbors in
  mark.(root) <- e;
  stack.(0) <- root;
  let count = ref 1 and next = ref 0 in
  while !next < !count do
    let u = stack.(!next) in
    incr next;
    for k = offsets.(u) to offsets.(u + 1) - 1 do
      let v = neighbors.(k) in
      if prev.(v) = u then begin
        mark.(v) <- e;
        stack.(!count) <- v;
        incr count
      end
    done
  done;
  sort_prefix stack !count;
  t.affected_count <- !count

(* Detach the affected subtree and re-attach it: seed every affected
   node with its best link from the intact region, then run a partial
   Dijkstra confined to the affected set.  Exact whenever shortest paths
   are unique.  The loops visit the affected list only, in ascending
   id whatever order the subtree was found in: equal keys pop in
   insertion order, and ascending pushes keep the re-attached tree bit
   for bit the one an all-node scan builds. *)
let repair_from t ~(weight : weight) ~alive ~root =
  t.epoch <- t.epoch + 1;
  collect_subtree t ~root;
  let e = t.epoch and mark = t.mark and dist = t.dist and prev = t.prev in
  let members = t.stack and count = t.affected_count in
  for k = 0 to count - 1 do
    let v = members.(k) in
    dist.(v) <- Float.infinity;
    prev.(v) <- -1;
    t.visited.(v) <- false
  done;
  Amb_sim.Float_heap.clear t.heap;
  (* Best link into [v] from the intact region, over [v]'s row in
     ascending [u]: the row omits only NaN-weight pairs, so this picks
     the boundary edge an ascending all-node scan would.  [k] is the
     pair's slot in [v]'s row. *)
  let seed_from v u k =
    if mark.(u) <> e && u <> v && alive u && dist.(u) < Float.infinity then begin
      weight u v k t.w;
      let w = t.w.v in
      if not (Float.is_nan w) then begin
        let candidate = dist.(u) +. w in
        if candidate < dist.(v) then begin
          dist.(v) <- candidate;
          prev.(v) <- u
        end
      end
    end
  in
  for k = 0 to count - 1 do
    let v = members.(k) in
    if alive v then begin
      for k = t.offsets.(v) to t.offsets.(v + 1) - 1 do
        seed_from v t.neighbors.(k) k
      done;
      if dist.(v) < Float.infinity then begin
        t.w.v <- dist.(v);
        Amb_sim.Float_heap.push_cell t.heap t.w v
      end
    end
  done;
  sweep t ~weight ~alive ~admit:(fun j -> mark.(j) = e)

(** [repair_death t ~weight ~alive ~tie_free ~dead] — update the tree
    after node [dead] left the network ([alive dead] must already be
    false).  With [tie_free] the orphaned subtree is re-attached via a
    boundary-seeded partial Dijkstra; without it (unit-weight policies,
    where equal-cost tie-breaks are a global property of the rebuild
    chronology) it falls back to {!rebuild}. *)
let repair_death t ~weight ~alive ~tie_free ~dead =
  if dead < 0 || dead >= t.n then invalid_arg "Route_tree.repair_death: node outside 0..n-1";
  if not tie_free then rebuild t ~weight ~alive
  else repair_from t ~weight ~alive ~root:dead

(** [repair_weight_increase t ~weight ~alive ~tie_free ~a ~b] — update
    the tree after the cost of the (undirected) pair [a, b] increased —
    possibly to NaN (link lost).  A worsened non-tree edge leaves the
    unique shortest-path tree intact (no-op); a worsened tree edge
    re-attaches the child's subtree.  Weight decreases are not handled
    here: they can improve arbitrary remote paths, so callers must
    {!rebuild}. *)
let repair_weight_increase t ~weight ~alive ~tie_free ~a ~b =
  if a < 0 || a >= t.n || b < 0 || b >= t.n then
    invalid_arg "Route_tree.repair_weight_increase: node outside 0..n-1";
  if not tie_free then rebuild t ~weight ~alive
  else if t.prev.(a) = b then repair_from t ~weight ~alive ~root:a
  else if t.prev.(b) = a then repair_from t ~weight ~alive ~root:b
  else t.affected_count <- 0
