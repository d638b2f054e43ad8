(* Weighted directed graphs over integer node ids: the Dijkstra oracle
   the route trees are held to.

   Adjacency is stored as flat, doubling arrays per source, Dijkstra
   runs on an unboxed float-keyed heap, plus BFS hop counts and
   connectivity.  Edges are *stored* in insertion order but *visited*
   most-recent-first; a graph built in ascending source, then ascending
   destination order therefore relaxes each node's neighbours in
   descending id, as [Amb_net.Route_tree] sweeps its rows.  The
   equal-cost tie-breaks of the two then agree, so trees built here and
   there compare bit for bit. *)

type edge = { dst : int; weight : float }

type t = {
  node_count : int;
  degree : int array;  (** edges out of each source *)
  mutable dsts : int array array;  (** per-source destination ids, 0..degree-1 *)
  mutable weights : float array array;  (** per-source edge weights, 0..degree-1 *)
}

let create node_count =
  if node_count < 0 then invalid_arg "Graph.create: negative node count";
  let slots = Stdlib.max node_count 1 in
  {
    node_count;
    degree = Array.make slots 0;
    dsts = Array.make slots [||];
    weights = Array.make slots [||];
  }

let node_count g = g.node_count

let check_node g v =
  if v < 0 || v >= g.node_count then
    invalid_arg (Printf.sprintf "Graph: node %d outside 0..%d" v (g.node_count - 1))

(** [add_edge g ~src ~dst ~weight] — directed edge; negative weights are
    rejected (Dijkstra). *)
let add_edge g ~src ~dst ~weight =
  check_node g src;
  check_node g dst;
  if weight < 0.0 then invalid_arg "Graph.add_edge: negative weight";
  let deg = g.degree.(src) in
  let capacity = Array.length g.dsts.(src) in
  if deg >= capacity then begin
    let bigger = Stdlib.max 4 (capacity * 2) in
    let d = Array.make bigger 0 and w = Array.make bigger 0.0 in
    Array.blit g.dsts.(src) 0 d 0 deg;
    Array.blit g.weights.(src) 0 w 0 deg;
    g.dsts.(src) <- d;
    g.weights.(src) <- w
  end;
  g.dsts.(src).(deg) <- dst;
  g.weights.(src).(deg) <- weight;
  g.degree.(src) <- deg + 1

(** [add_undirected g a b ~weight] — edge in both directions. *)
let add_undirected g a b ~weight =
  add_edge g ~src:a ~dst:b ~weight;
  add_edge g ~src:b ~dst:a ~weight

(* Most-recent-first edge list, matching the historical cons-list order. *)
let neighbors g v =
  check_node g v;
  let dsts = g.dsts.(v) and weights = g.weights.(v) in
  let rec build i acc =
    if i >= g.degree.(v) then acc
    else build (i + 1) ({ dst = dsts.(i); weight = weights.(i) } :: acc)
  in
  build 0 []

let edge_count g = Array.fold_left ( + ) 0 g.degree

(** [dijkstra g ~src] — arrays of (distance, predecessor) from [src];
    unreachable nodes have infinite distance and predecessor -1. *)
let dijkstra g ~src =
  check_node g src;
  let dist = Array.make g.node_count Float.infinity in
  let prev = Array.make g.node_count (-1) in
  let visited = Array.make g.node_count false in
  dist.(src) <- 0.0;
  (* Unboxed (distance, node) heap; stale entries are skipped. *)
  let heap = Amb_sim.Float_heap.create ~capacity:(Stdlib.max 16 g.node_count) () in
  (* Keys go in and come back out through flat float cells: no
     allocation per push or pop. *)
  let key = { Amb_sim.Float_heap.v = 0.0 } and pushed = { Amb_sim.Float_heap.v = 0.0 } in
  Amb_sim.Float_heap.push_cell heap pushed src;
  while not (Amb_sim.Float_heap.is_empty heap) do
    let u = Amb_sim.Float_heap.pop_min heap key in
    if (not visited.(u)) && key.v <= dist.(u) then begin
      visited.(u) <- true;
      let dsts = g.dsts.(u) and weights = g.weights.(u) in
      let base = dist.(u) in
      for k = g.degree.(u) - 1 downto 0 do
        let v = dsts.(k) in
        let candidate = base +. weights.(k) in
        if candidate < dist.(v) then begin
          dist.(v) <- candidate;
          prev.(v) <- u;
          pushed.v <- candidate;
          Amb_sim.Float_heap.push_cell heap pushed v
        end
      done
    end
  done;
  (dist, prev)

(** [shortest_path g ~src ~dst] — node list from [src] to [dst] inclusive,
    or [None] when unreachable. *)
let shortest_path g ~src ~dst =
  check_node g dst;
  let dist, prev = dijkstra g ~src in
  if dist.(dst) = Float.infinity then None
  else
    let rec walk v acc = if v = src then src :: acc else walk prev.(v) (v :: acc) in
    Some (walk dst [])

(** [path_cost g path] — sum of edge weights along [path]; raises
    [Not_found] if an edge is missing. *)
let path_cost g path =
  let edge_weight u v =
    let dsts = g.dsts.(u) and weights = g.weights.(u) in
    let rec find k =
      if k < 0 then raise Not_found
      else if dsts.(k) = v then weights.(k)
      else find (k - 1)
    in
    find (g.degree.(u) - 1)
  in
  let rec walk = function
    | [] | [ _ ] -> 0.0
    | u :: (v :: _ as rest) -> edge_weight u v +. walk rest
  in
  walk path

(** [hops g ~src] — BFS hop counts from [src] (edges treated as unit
    weight); -1 for unreachable nodes. *)
let hops g ~src =
  check_node g src;
  let dist = Array.make g.node_count (-1) in
  dist.(src) <- 0;
  let q = Queue.create () in
  Queue.push src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    let dsts = g.dsts.(u) in
    for k = g.degree.(u) - 1 downto 0 do
      let v = dsts.(k) in
      if dist.(v) < 0 then begin
        dist.(v) <- dist.(u) + 1;
        Queue.push v q
      end
    done
  done;
  dist

(** [is_connected g] — every node reachable from node 0 (undirected
    usage). *)
let is_connected g =
  if g.node_count = 0 then true
  else
    let dist = hops g ~src:0 in
    Array.for_all (fun d -> d >= 0) dist
