(* The all-pairs range scan: every pair tested with
   [Topology.pair_distance <= range_m], in ascending order.  The
   [Spatial] grid, which every run path queries, is held to it on
   random and boundary layouts, and tests that need a range graph build
   it here. *)

open Amb_net

(* Ascending ids within [range_m] of node [i]. *)
let neighbors_within topo i ~range_m =
  List.filter
    (fun j -> j <> i && Topology.pair_distance topo i j <= range_m)
    (List.init (Topology.node_count topo) Fun.id)

(* Undirected graph with an edge wherever two nodes are within
   [range_m], weighted by their distance (floored at 1 mm), inserted in
   ascending [i], then ascending [j]. *)
let connectivity topo ~range_m =
  let n = Topology.node_count topo in
  let g = Graph.create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let d = Topology.pair_distance topo i j in
      if d <= range_m then Graph.add_undirected g i j ~weight:(Float.max d 1e-3)
    done
  done;
  g
