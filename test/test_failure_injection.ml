(* Failure injection: systematic sweep of invalid inputs and degenerate
   states across the public constructors, verifying that every guard
   fires (Invalid_argument) and that degenerate-but-legal states behave
   sanely rather than crashing. *)

open Amb_units

let raises_invalid f =
  match f () with
  | exception Invalid_argument _ -> true
  | _ -> false

let check_guard name f = Alcotest.(check bool) name true (raises_invalid f)

(* --- constructor guards, one library at a time --- *)

let test_units_guards () =
  check_guard "energy average_power zero duration" (fun () ->
      Energy.average_power (Energy.joules 1.0) Time_span.zero);
  check_guard "data_rate transfer zero rate" (fun () ->
      Data_rate.transfer_time Data_rate.zero 100.0);
  check_guard "decibel of_ratio zero" (fun () -> Decibel.of_ratio 0.0);
  check_guard "decibel dbm of zero power" (fun () -> Decibel.dbm_of_power Power.zero);
  check_guard "area density zero area" (fun () ->
      Area.power_density (Power.watts 1.0) Area.zero);
  check_guard "charge draw zero duration" (fun () ->
      Charge.current_draw (Charge.coulombs 1.0) Time_span.zero)

let test_tech_guards () =
  check_guard "scaling factor" (fun () -> Amb_tech.Scaling.factor ~from_nm:(-1.0) ~to_nm:10.0);
  check_guard "doubling period single node" (fun () ->
      Amb_tech.Scaling.efficiency_doubling_period [ Amb_tech.Process_node.n130 ]);
  check_guard "logic negative gates" (fun () ->
      Amb_tech.Logic.block ~name:"x" ~gates:(-1.0) ~activity:0.5);
  check_guard "memory zero bits" (fun () ->
      Amb_tech.Memory.make ~name:"x" ~kind:Amb_tech.Memory.Sram ~bits:0.0
        ~node:Amb_tech.Process_node.n130);
  check_guard "noc zero cores" (fun () ->
      Amb_tech.Noc.make ~node:Amb_tech.Process_node.n130 ~cores:0 ~die_edge_mm:10.0 ());
  check_guard "variability few dies" (fun () ->
      Amb_tech.Variability.monte_carlo
        (Amb_tech.Variability.spread_of Amb_tech.Process_node.n130)
        ~dies:3 ~seed:1);
  check_guard "roadmap empty timeline" (fun () ->
      Amb_tech.Roadmap.timeline ~from_year:2010 ~to_year:2005)

let test_energy_guards () =
  check_guard "battery zero capacity" (fun () ->
      Amb_energy.Battery.make ~name:"x" ~chemistry:Amb_energy.Battery.Alkaline ~voltage_v:1.5
        ~capacity_mah:0.0 ~rated_current_ma:1.0 ~peukert_exponent:1.0
        ~self_discharge_per_year:0.0 ~max_continuous_current_ma:1.0 ~mass_g:1.0);
  check_guard "battery self-discharge 1.0" (fun () ->
      Amb_energy.Battery.make ~name:"x" ~chemistry:Amb_energy.Battery.Alkaline ~voltage_v:1.5
        ~capacity_mah:100.0 ~rated_current_ma:1.0 ~peukert_exponent:1.0
        ~self_discharge_per_year:1.0 ~max_continuous_current_ma:1.0 ~mass_g:1.0);
  check_guard "supply bad regulator" (fun () ->
      Amb_energy.Supply.make ~name:"x" ~regulator_efficiency:1.5 ());
  check_guard "regulator bad efficiency" (fun () ->
      Amb_energy.Regulator.make ~name:"x" ~peak_efficiency:0.0 ~quiescent_uw:1.0
        ~switching_overhead_uw:1.0 ~rated_load_mw:1.0);
  check_guard "day profile empty" (fun () -> Amb_energy.Day_profile.make ~name:"x" []);
  check_guard "day profile negative scale" (fun () ->
      Amb_energy.Day_profile.make ~name:"x"
        [ { Amb_energy.Day_profile.duration = Time_span.hours 1.0; scale = -0.1 } ]);
  check_guard "buffer capacitance empty window" (fun () ->
      Amb_energy.Day_profile.buffer_capacitance_required Amb_energy.Day_profile.office_lighting
        ~load:(Power.microwatts 10.0) ~income:(Power.microwatts 100.0)
        ~v_max:(Voltage.volts 1.0) ~v_min:(Voltage.volts 2.0));
  check_guard "lifetime average_load bad duty" (fun () ->
      Amb_energy.Lifetime.average_load ~active:Power.zero ~sleep:Power.zero ~duty:1.5)

let test_circuit_guards () =
  check_guard "processor alpha" (fun () ->
      Amb_circuit.Processor.make ~name:"x" ~node:Amb_tech.Process_node.n130 ~c_eff_per_op_pf:1.0
        ~f_max_mhz:10.0 ~ops_per_cycle:1.0 ~alpha:3.0 ~leakage_mw:1.0 ~v_min_v:0.8);
  check_guard "adc bits" (fun () ->
      Amb_circuit.Adc.make ~name:"x" ~bits:40 ~enob:10.0 ~sample_rate_hz:1e3
        ~fom_pj_per_step:1.0 ~standby_uw:1.0);
  check_guard "radio pa efficiency" (fun () ->
      Amb_circuit.Radio_frontend.make ~name:"x" ~carrier_mhz:868.0 ~bitrate_kbps:100.0
        ~p_tx_electronics_mw:10.0 ~pa_efficiency:0.0 ~max_tx_dbm:0.0 ~p_rx_mw:10.0
        ~p_sleep_uw:1.0 ~startup_us:100.0 ~sensitivity_dbm:(-100.0) ~noise_figure_db:10.0
        ~bandwidth_khz:100.0);
  check_guard "radio energy zero bits" (fun () ->
      Amb_circuit.Radio_frontend.effective_energy_per_bit Amb_circuit.Radio_frontend.low_power_uhf
        ~tx_dbm:0.0 ~bits:0.0);
  check_guard "display brightness" (fun () ->
      Amb_circuit.Display.average_power Amb_circuit.Display.pda_lcd ~brightness:2.0
        ~updates_per_s:0.0);
  check_guard "power gate retention" (fun () ->
      Amb_circuit.Power_gate.make ~name:"x" ~leakage_active:Power.zero ~retention_factor:2.0
        ~wakeup_energy:Energy.zero ~wakeup_latency:Time_span.zero);
  check_guard "accelerator zero throughput" (fun () ->
      Amb_circuit.Accelerator.make ~name:"x" ~kind:Amb_circuit.Accelerator.Fixed_function
        ~node:Amb_tech.Process_node.n130 ~throughput_mops:0.0 ~power_mw:1.0 ~standby_uw:1.0
        ~area_mm2:1.0 ~supported:[])

let test_radio_guards () =
  check_guard "log distance exponent" (fun () -> Amb_radio.Path_loss.log_distance 0.5);
  check_guard "loss zero carrier" (fun () ->
      Amb_radio.Path_loss.loss_db Amb_radio.Path_loss.free_space ~carrier_hz:0.0
        ~distance_m:10.0);
  check_guard "ber negative snr" (fun () ->
      Amb_radio.Modulation.ber Amb_radio.Modulation.Bpsk ~ebn0:(-1.0));
  check_guard "required ebn0 bad target" (fun () ->
      Amb_radio.Modulation.required_ebn0 Amb_radio.Modulation.Bpsk ~target_ber:0.6);
  check_guard "packet negative payload" (fun () -> Amb_radio.Packet.make ~payload_bits:(-1.0) ());
  check_guard "mac zero wakeup" (fun () ->
      Amb_radio.Mac_duty_cycle.make ~radio:Amb_circuit.Radio_frontend.low_power_uhf
        ~t_wakeup:Time_span.zero ~packet:Amb_radio.Packet.sensor_reading ());
  check_guard "csma negative load" (fun () -> Amb_radio.Mac_csma.success_probability ~g:(-0.1));
  check_guard "macsim zero nodes" (fun () ->
      Amb_radio.Mac_sim.config ~radio:Amb_circuit.Radio_frontend.low_power_uhf
        ~packet:Amb_radio.Packet.sensor_reading ~nodes:0 ~per_node_rate:1.0
        ~horizon:(Time_span.seconds 1.0))

let test_net_guards () =
  check_guard "graph negative count" (fun () -> Graph.create (-1));
  check_guard "graph out of range" (fun () ->
      let g = Graph.create 2 in
      Graph.add_edge g ~src:0 ~dst:5 ~weight:1.0);
  check_guard "topology node outside" (fun () ->
      Amb_net.Topology.of_positions ~width_m:10.0 ~height_m:10.0
        [| { Amb_net.Topology.x = 20.0; y = 0.0 } |]);
  check_guard "grid zero spacing" (fun () ->
      Amb_net.Topology.grid ~columns:2 ~rows:2 ~spacing_m:0.0);
  check_guard "spatial zero cell" (fun () ->
      Amb_net.Topology.spatial (Amb_net.Topology.grid ~columns:2 ~rows:1 ~spacing_m:1.0)
        ~cell_m:0.0);
  check_guard "cluster one node" (fun () ->
      Amb_net.Cluster.make ~nodes:1 ~field_m:10.0 ~sink_distance_m:10.0 ~e_elec_nj_per_bit:1.0
        ~e_amp_pj_per_bit_m2:1.0 ~bits_per_round:1.0 ());
  let router ?(columns = 3) () =
    let topo = Amb_net.Topology.grid ~columns ~rows:1 ~spacing_m:10.0 in
    let link =
      Amb_radio.Link_budget.make ~radio:Amb_circuit.Radio_frontend.low_power_uhf
        ~channel:Amb_radio.Path_loss.indoor ()
    in
    Amb_net.Routing.make ~topology:topo ~link ~packet:Amb_radio.Packet.sensor_reading ()
  in
  let depletion ?columns rebuild_every () =
    Amb_net.Flow.simulate_depletion (router ?columns ()) ~policy:Amb_net.Routing.Min_hop
      ~budget:(fun _ -> Energy.joules 1.0) ~sink:0 ~rebuild_every
  in
  check_guard "depletion zero rebuild" (depletion 0.0);
  check_guard "depletion NaN rebuild" (depletion Float.nan);
  check_guard "depletion infinite rebuild" (depletion Float.infinity);
  (* The 4-node chain's first death needs ~388 000 blocks of 0.1 rounds.
     Past the 10 000-block cap this used to answer 1000.1 rounds, as if
     the first death had come then. *)
  check_guard "depletion past the block cap" (depletion ~columns:4 0.1);
  Alcotest.(check (float 1e-6)) "chain first death in one block" 38839.904336738648
    (depletion ~columns:4 1e9 ());
  let tree sink () =
    Amb_net.Flow.collection_tree (router ()) ~policy:Amb_net.Routing.Min_hop
      ~residual:(fun _ -> Energy.joules 1.0) ~sink
  in
  check_guard "collection tree sink past the last node" (tree 3);
  check_guard "collection tree negative sink" (tree (-1));
  (* A NaN horizon used to run until every node had died; a zero
     rebuild period and an absent sink were accepted here and raised
     only at [run]. *)
  let net_sim ?(sink = 0) ?(report_period = Time_span.seconds 10.0)
      ?(horizon = Time_span.minutes 5.0) ?rebuild_period () =
    Amb_net.Net_sim.config ?rebuild_period ~router:(router ()) ~sink
      ~policy:Amb_net.Routing.Min_hop ~report_period
      ~budget:(fun _ -> Energy.joules 1.0)
      ~horizon ()
  in
  check_guard "net_sim NaN horizon" (net_sim ~horizon:(Time_span.seconds Float.nan));
  check_guard "net_sim infinite horizon" (net_sim ~horizon:(Time_span.seconds Float.infinity));
  check_guard "net_sim NaN report period"
    (net_sim ~report_period:(Time_span.seconds Float.nan));
  check_guard "net_sim zero rebuild period" (net_sim ~rebuild_period:Time_span.zero);
  check_guard "net_sim NaN rebuild period"
    (net_sim ~rebuild_period:(Time_span.seconds Float.nan));
  check_guard "net_sim sink past the last node" (net_sim ~sink:3)

let test_workload_guards () =
  check_guard "task graph bad edge" (fun () ->
      Amb_workload.Task_graph.make ~nodes:[| { Amb_workload.Task_graph.name = "a"; ops = 1.0 } |]
        ~edges:[ (0, 4) ]);
  check_guard "rm bound zero" (fun () -> Amb_workload.Scheduler.rm_bound 0);
  check_guard "traffic zero period" (fun () -> Amb_workload.Traffic.periodic Time_span.zero);
  check_guard "traffic zero rate" (fun () -> Amb_workload.Traffic.poisson 0.0);
  check_guard "scenario zero duration" (fun () ->
      Amb_workload.Scenario.make ~name:"x" ~compute_rate:Frequency.zero ~comm_rate:Data_rate.zero
        ~sample_rate:Frequency.zero
        ~activation:(Amb_workload.Traffic.poisson 1.0)
        ~active_duration:Time_span.zero);
  check_guard "edf zero capacity" (fun () ->
      Amb_workload.Edf_sim.run ~policy:Amb_workload.Edf_sim.Earliest_deadline_first
        ~tasks:[ Amb_workload.Task.make ~name:"t" ~ops:1.0 ~period:(Time_span.seconds 1.0) () ]
        ~capacity:Frequency.zero ~horizon:(Time_span.seconds 1.0))

let test_node_guards () =
  check_guard "power_state unknown initial" (fun () ->
      Amb_node.Power_state.make ~states:[] ~transitions:[] ~initial:"ghost");
  check_guard "activation negative ops" (fun () ->
      Amb_node.Node_model.activation ~compute_ops:(-1.0) ~tx_bits:0.0 ());
  check_guard "lifetime_sim zero horizon" (fun () ->
      let node = Amb_node.Reference_designs.microwatt_node () in
      Amb_node.Lifetime_sim.config
        ~profile:(Amb_node.Node_model.duty_profile node Amb_node.Reference_designs.microwatt_activation)
        ~supply:node.Amb_node.Node_model.supply
        ~activation_traffic:(Amb_workload.Traffic.poisson 1.0) ~horizon:Time_span.zero ());
  check_guard "state_sim zero cycles" (fun () ->
      let machine =
        Amb_node.Power_state.make
          ~states:[ { Amb_node.Power_state.name = "s"; power = Power.zero } ]
          ~transitions:[] ~initial:"s"
      in
      Amb_node.State_sim.run machine
        [ { Amb_node.Power_state.state = "s"; dwell = Time_span.seconds 1.0 } ]
        ~cycles:0)

let test_core_guards () =
  check_guard "entry negative power" (fun () ->
      Amb_core.Power_information.entry ~name:"x" ~kind:Amb_core.Power_information.Computing
        ~info_rate:Data_rate.zero ~power:(Power.watts (-1.0)));
  check_guard "gap zero efficiency" (fun () ->
      Amb_core.Challenge.compute_gap ~subject:"x" ~required:0.0 ~available:1.0 ~base_year:2003);
  check_guard "mission zero rate" (fun () ->
      Amb_core.Design_space.mission ~name:"x"
        ~activation:Amb_node.Reference_designs.microwatt_activation ~rate:0.0
        ~lifetime_target:(Time_span.years 1.0) ~class_limit:Amb_core.Device_class.Microwatt ())

(* --- degenerate-but-legal states must not crash --- *)

let test_degenerate_states () =
  (* Disconnected topology: trees partial, lifetime inf. *)
  let topo =
    Amb_net.Topology.of_positions ~width_m:10000.0 ~height_m:10.0
      [| { Amb_net.Topology.x = 0.0; y = 0.0 }; { Amb_net.Topology.x = 9999.0; y = 0.0 } |]
  in
  let link =
    Amb_radio.Link_budget.make ~radio:Amb_circuit.Radio_frontend.low_power_uhf
      ~channel:Amb_radio.Path_loss.indoor ()
  in
  let router = Amb_net.Routing.make ~topology:topo ~link ~packet:Amb_radio.Packet.sensor_reading () in
  let toward_1 =
    Amb_net.Flow.collection_tree router ~policy:Amb_net.Routing.Min_hop
      ~residual:(fun _ -> Energy.joules 1.0) ~sink:1
  in
  Alcotest.(check int) "no route across the gap" (-2) toward_1.Amb_net.Flow.parent.(0);
  let tree =
    Amb_net.Flow.collection_tree router ~policy:Amb_net.Routing.Min_hop
      ~residual:(fun _ -> Energy.joules 1.0) ~sink:0
  in
  Alcotest.(check int) "only the sink connected" 1 (Amb_net.Flow.connected_count tree);
  let rounds =
    Amb_net.Flow.lifetime_rounds router tree ~budget:(fun _ -> Energy.joules 1.0)
  in
  Alcotest.(check bool) "nothing drains" true (rounds = Float.infinity);
  (* A network simulation over the disconnected pair: traffic drops, no
     crash. *)
  let cfg =
    Amb_net.Net_sim.config ~router ~sink:0 ~policy:Amb_net.Routing.Min_hop
      ~report_period:(Time_span.seconds 10.0)
      ~budget:(fun _ -> Energy.joules 1.0)
      ~horizon:(Time_span.minutes 5.0) ()
  in
  let o = Amb_net.Net_sim.run cfg ~seed:1 in
  Alcotest.(check int) "all generated dropped" o.Amb_net.Net_sim.generated
    o.Amb_net.Net_sim.dropped

let test_zero_budget_network () =
  (* Zero energy budgets: first death on the first transmission. *)
  let topo = Amb_net.Topology.grid ~columns:3 ~rows:1 ~spacing_m:20.0 in
  let link =
    Amb_radio.Link_budget.make ~radio:Amb_circuit.Radio_frontend.low_power_uhf
      ~channel:Amb_radio.Path_loss.indoor ()
  in
  let router = Amb_net.Routing.make ~topology:topo ~link ~packet:Amb_radio.Packet.sensor_reading () in
  let cfg =
    Amb_net.Net_sim.config ~router ~sink:0 ~policy:Amb_net.Routing.Min_hop
      ~report_period:(Time_span.seconds 10.0)
      ~budget:(fun _ -> Energy.joules 1e-9)
      ~horizon:(Time_span.minutes 10.0) ()
  in
  let o = Amb_net.Net_sim.run cfg ~seed:2 in
  Alcotest.(check bool) "death happened" true (o.Amb_net.Net_sim.first_death <> None);
  Alcotest.(check bool) "nothing delivered" true (o.Amb_net.Net_sim.delivered = 0)

let test_empty_mapping () =
  let a = Amb_core.Mapping.assign ~hosts:[] ~functions:Amb_core.Ami_function.catalogue in
  Alcotest.(check bool) "nothing placed" true (a.Amb_core.Mapping.placed = []);
  Alcotest.(check int) "all unplaced" 6 (List.length a.Amb_core.Mapping.unplaced);
  let b = Amb_core.Mapping.assign ~hosts:(Amb_core.Experiments.smart_home_hosts ()) ~functions:[] in
  Alcotest.(check bool) "empty function set feasible" true (Amb_core.Mapping.feasible b)

let suite =
  [ ("units guards", `Quick, test_units_guards);
    ("tech guards", `Quick, test_tech_guards);
    ("energy guards", `Quick, test_energy_guards);
    ("circuit guards", `Quick, test_circuit_guards);
    ("radio guards", `Quick, test_radio_guards);
    ("net guards", `Quick, test_net_guards);
    ("workload guards", `Quick, test_workload_guards);
    ("node guards", `Quick, test_node_guards);
    ("core guards", `Quick, test_core_guards);
    ("degenerate network states", `Quick, test_degenerate_states);
    ("zero-budget network", `Quick, test_zero_budget_network);
    ("empty mapping", `Quick, test_empty_mapping);
  ]
