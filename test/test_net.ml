(* Unit tests for Amb_net: graphs, topologies, routing, clustering,
   collection flows. *)

open Amb_units
open Amb_circuit
open Amb_radio
open Amb_net

let check_float = Alcotest.(check (float 1e-9))

(* --- Graph --- *)

let diamond () =
  (* 0 -> 1 -> 3 (cost 1+1) and 0 -> 2 -> 3 (cost 5+1). *)
  let g = Graph.create 4 in
  Graph.add_edge g ~src:0 ~dst:1 ~weight:1.0;
  Graph.add_edge g ~src:1 ~dst:3 ~weight:1.0;
  Graph.add_edge g ~src:0 ~dst:2 ~weight:5.0;
  Graph.add_edge g ~src:2 ~dst:3 ~weight:1.0;
  g

let test_dijkstra_distances () =
  let dist, prev = Graph.dijkstra (diamond ()) ~src:0 in
  check_float "d(3)" 2.0 dist.(3);
  check_float "d(2)" 5.0 dist.(2);
  Alcotest.(check int) "prev(3)" 1 prev.(3)

let test_shortest_path () =
  match Graph.shortest_path (diamond ()) ~src:0 ~dst:3 with
  | Some path -> Alcotest.(check (list int)) "via 1" [ 0; 1; 3 ] path
  | None -> Alcotest.fail "path exists"

let test_unreachable () =
  let g = Graph.create 3 in
  Graph.add_edge g ~src:0 ~dst:1 ~weight:1.0;
  Alcotest.(check bool) "no path" true (Graph.shortest_path g ~src:0 ~dst:2 = None);
  Alcotest.(check bool) "not connected" false (Graph.is_connected g)

let test_path_cost () =
  check_float "cost along path" 2.0 (Graph.path_cost (diamond ()) [ 0; 1; 3 ])

let test_hops () =
  let hops = Graph.hops (diamond ()) ~src:0 in
  Alcotest.(check int) "one hop" 1 hops.(1);
  Alcotest.(check int) "two hops" 2 hops.(3)

let test_graph_validation () =
  let g = Graph.create 2 in
  Alcotest.check_raises "negative weight" (Invalid_argument "Graph.add_edge: negative weight")
    (fun () -> Graph.add_edge g ~src:0 ~dst:1 ~weight:(-1.0))

(* --- Topology --- *)

let test_grid () =
  let topo = Topology.grid ~columns:3 ~rows:3 ~spacing_m:10.0 in
  Alcotest.(check int) "9 nodes" 9 (Topology.node_count topo);
  check_float "adjacent" 10.0 (Topology.pair_distance topo 0 1);
  check_float "diagonal" (10.0 *. Float.sqrt 2.0) (Topology.pair_distance topo 0 4)

let test_star () =
  let topo = Topology.star ~leaves:8 ~radius_m:5.0 in
  Alcotest.(check int) "hub + leaves" 9 (Topology.node_count topo);
  for i = 1 to 8 do
    check_float "leaf radius" 5.0 (Topology.pair_distance topo 0 i)
  done

let test_random_within_field () =
  let rng = Amb_sim.Rng.create 5 in
  let topo = Topology.random rng ~nodes:100 ~width_m:20.0 ~height_m:30.0 in
  Alcotest.(check int) "count" 100 (Topology.node_count topo);
  for i = 0 to 99 do
    let p = Topology.position topo i in
    Alcotest.(check bool) "inside" true
      (p.Topology.x >= 0.0 && p.Topology.x <= 20.0 && p.Topology.y >= 0.0 && p.Topology.y <= 30.0)
  done

let test_connectivity_by_range () =
  let topo = Topology.grid ~columns:3 ~rows:1 ~spacing_m:10.0 in
  let g_short = Topology_reference.connectivity topo ~range_m:10.5 in
  Alcotest.(check bool) "chain connected" true (Graph.is_connected g_short);
  let hops = Graph.hops g_short ~src:0 in
  Alcotest.(check int) "two hops across chain" 2 hops.(2);
  let g_long = Topology_reference.connectivity topo ~range_m:25.0 in
  let hops_long = Graph.hops g_long ~src:0 in
  Alcotest.(check int) "direct within long range" 1 hops_long.(2)

let test_neighbors_within () =
  let topo = Topology.grid ~columns:3 ~rows:1 ~spacing_m:10.0 in
  Alcotest.(check (list int)) "middle sees both" [ 0; 2 ]
    (Spatial.neighbors_within (Topology.spatial topo ~cell_m:10.5) 1 ~range_m:10.5)

(* --- Routing --- *)

let router topo =
  let link = Link_budget.make ~radio:Radio_frontend.low_power_uhf ~channel:Path_loss.indoor () in
  Routing.make ~topology:topo ~link ~packet:Packet.sensor_report ()

let test_hop_energy_monotone () =
  let r = router (Topology.grid ~columns:2 ~rows:1 ~spacing_m:10.0) in
  match (Routing.hop_energy r ~distance_m:5.0, Routing.hop_energy r ~distance_m:80.0) with
  | Some near, Some far -> Alcotest.(check bool) "monotone" true (Energy.ge far near)
  | _ -> Alcotest.fail "both in range"

let test_route_exists_on_chain () =
  (* A 5-node chain, 80 m spacing: direct src->dst (320 m) is out of radio
     reach, so the route must be multi-hop. *)
  let topo = Topology.grid ~columns:5 ~rows:1 ~spacing_m:80.0 in
  let r = router topo in
  let residual _ = Amb_units.Energy.joules 1.0 in
  match Routing.route r ~policy:Routing.Min_hop ~residual ~src:0 ~dst:4 with
  | None -> Alcotest.fail "chain is connected"
  | Some path ->
    Alcotest.(check bool) "multi-hop" true (List.length path > 2);
    Alcotest.(check int) "starts at src" 0 (List.hd path);
    Alcotest.(check int) "ends at dst" 4 (List.nth path (List.length path - 1))

let test_path_energy_consistent () =
  let topo = Topology.grid ~columns:3 ~rows:1 ~spacing_m:50.0 in
  let r = router topo in
  let hop = match Routing.hop_energy r ~distance_m:50.0 with Some e -> e | None -> Energy.zero in
  match Routing.path_energy r [ 0; 1; 2 ] with
  | Some total -> check_float "two hops" (2.0 *. Energy.to_joules hop) (Energy.to_joules total)
  | None -> Alcotest.fail "path energy defined"

let test_min_energy_prefers_cheap_path () =
  (* min-energy never costs more than min-hop. *)
  let rng = Amb_sim.Rng.create 9 in
  let topo = Topology.random rng ~nodes:30 ~width_m:200.0 ~height_m:200.0 in
  let r = router topo in
  let residual _ = Amb_units.Energy.joules 1.0 in
  let energy_of policy =
    match Routing.route r ~policy ~residual ~src:1 ~dst:2 with
    | None -> None
    | Some path -> Routing.path_energy r path
  in
  match (energy_of Routing.Min_hop, energy_of Routing.Min_energy) with
  | Some hop_e, Some energy_e ->
    Alcotest.(check bool) "min-energy <= min-hop" true (Energy.le energy_e hop_e)
  | _ -> Alcotest.fail "connected pair expected"

(* --- Cluster --- *)

let cluster =
  Cluster.make ~nodes:100 ~field_m:100.0 ~sink_distance_m:150.0 ~e_elec_nj_per_bit:50.0
    ~e_amp_pj_per_bit_m2:100.0 ~bits_per_round:256.0 ()

let test_cluster_beats_direct () =
  let p = Cluster.optimal_head_fraction cluster in
  let clustered = Cluster.round_energy cluster ~head_fraction:p in
  let direct = Cluster.direct_energy cluster in
  Alcotest.(check bool) "clustering saves energy" true (Energy.lt clustered direct)

let test_cluster_optimum_interior () =
  let p = Cluster.optimal_head_fraction cluster in
  Alcotest.(check bool) "interior optimum" true (p > 0.005 && p < 0.5);
  let e q = Energy.to_joules (Cluster.round_energy cluster ~head_fraction:q) in
  Alcotest.(check bool) "optimum beats neighbours" true
    (e p <= e (p /. 2.0) && e p <= e (Float.min 0.5 (p *. 2.0)))

let test_cluster_validation () =
  Alcotest.check_raises "fraction" (Invalid_argument "Cluster.round_energy: head fraction outside (0,1]")
    (fun () -> ignore (Cluster.round_energy cluster ~head_fraction:0.0))

(* --- Flow --- *)

let chain_router () = router (Topology.grid ~columns:4 ~rows:1 ~spacing_m:80.0)

let test_collection_tree_structure () =
  let r = chain_router () in
  let residual _ = Energy.joules 1.0 in
  let tree = Flow.collection_tree r ~policy:Routing.Min_hop ~residual ~sink:0 in
  Alcotest.(check int) "sink parent" (-1) tree.Flow.parent.(0);
  Alcotest.(check int) "all connected" 4 (Flow.connected_count tree);
  (* On a chain everyone routes through node 1 towards sink 0. *)
  Alcotest.(check int) "sink subtree covers all" 4 tree.Flow.subtree_size.(0)

let test_bottleneck_is_near_sink () =
  let r = chain_router () in
  let residual _ = Energy.joules 1.0 in
  let tree = Flow.collection_tree r ~policy:Routing.Min_hop ~residual ~sink:0 in
  let budget _ = Energy.joules 1.0 in
  match Flow.bottleneck r tree ~budget with
  | Some (node, _) -> Alcotest.(check int) "first hop dies first" 1 node
  | None -> Alcotest.fail "bottleneck exists"

let test_lifetime_rounds_positive () =
  let r = chain_router () in
  let residual _ = Energy.joules 1.0 in
  let tree = Flow.collection_tree r ~policy:Routing.Min_hop ~residual ~sink:0 in
  let rounds = Flow.lifetime_rounds r tree ~budget:(fun _ -> Energy.joules 1.0) in
  Alcotest.(check bool) "finite positive" true (rounds > 0.0 && rounds < Float.infinity)

let test_depletion_at_least_static () =
  let r = chain_router () in
  let budget _ = Energy.joules 1.0 in
  let residual = budget in
  let static_tree = Flow.collection_tree r ~policy:Routing.Min_hop ~residual ~sink:0 in
  let static_rounds = Flow.lifetime_rounds r static_tree ~budget in
  let simulated =
    Flow.simulate_depletion r ~policy:Routing.Min_hop ~budget ~sink:0 ~rebuild_every:1e9
  in
  Alcotest.(check bool) "single-block simulation matches static analysis" true
    (Si.approx_equal ~rel:1e-6 static_rounds simulated)

let test_max_lifetime_rebuilds_help () =
  let rng = Amb_sim.Rng.create 42 in
  let topo = Topology.random rng ~nodes:40 ~width_m:250.0 ~height_m:250.0 in
  let r = router topo in
  let budget _ = Energy.joules 0.5 in
  let static_minhop =
    Flow.simulate_depletion r ~policy:Routing.Min_hop ~budget ~sink:0 ~rebuild_every:1e9
  in
  let adaptive =
    Flow.simulate_depletion r ~policy:Routing.Max_lifetime ~budget ~sink:0 ~rebuild_every:100.0
  in
  Alcotest.(check bool) "adaptive routing lives at least as long" true
    (adaptive >= static_minhop *. 0.999)

let suite =
  [ ("dijkstra distances", `Quick, test_dijkstra_distances);
    ("shortest path", `Quick, test_shortest_path);
    ("unreachable", `Quick, test_unreachable);
    ("path cost", `Quick, test_path_cost);
    ("bfs hops", `Quick, test_hops);
    ("graph validation", `Quick, test_graph_validation);
    ("grid topology", `Quick, test_grid);
    ("star topology", `Quick, test_star);
    ("random in field", `Quick, test_random_within_field);
    ("connectivity by range", `Quick, test_connectivity_by_range);
    ("neighbors within", `Quick, test_neighbors_within);
    ("hop energy monotone", `Quick, test_hop_energy_monotone);
    ("multi-hop route on chain", `Quick, test_route_exists_on_chain);
    ("path energy", `Quick, test_path_energy_consistent);
    ("min-energy optimality", `Quick, test_min_energy_prefers_cheap_path);
    ("clustering beats direct", `Quick, test_cluster_beats_direct);
    ("cluster optimum interior", `Quick, test_cluster_optimum_interior);
    ("cluster validation", `Quick, test_cluster_validation);
    ("collection tree structure", `Quick, test_collection_tree_structure);
    ("bottleneck near sink", `Quick, test_bottleneck_is_near_sink);
    ("lifetime rounds", `Quick, test_lifetime_rounds_positive);
    ("depletion matches static", `Quick, test_depletion_at_least_static);
    ("adaptive routing helps", `Quick, test_max_lifetime_rebuilds_help);
  ]
