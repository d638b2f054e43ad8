(* Gap-filling coverage: public API surface not exercised by the other
   suites (formatting corners, catalogue helpers, small utilities). *)

open Amb_units

let check_float = Alcotest.(check (float 1e-9))

(* --- Si / formatting corners --- *)

let test_si_parse_prefix () =
  Alcotest.(check (option (float 0.0))) "milli" (Some 1e-3) (Si.parse_prefix "m");
  Alcotest.(check (option (float 0.0))) "none" (Some 1.0) (Si.parse_prefix "");
  Alcotest.(check (option (float 0.0))) "unknown" None (Si.parse_prefix "q")

let test_si_format_specials () =
  Alcotest.(check string) "nan" "nan W" (Si.format ~unit:"W" Float.nan);
  Alcotest.(check string) "inf" "inf W" (Si.format ~unit:"W" Float.infinity);
  Alcotest.(check string) "-inf" "-inf W" (Si.format ~unit:"W" Float.neg_infinity)

let test_quantity_misc () =
  Alcotest.(check string) "power symbol" "W" Power.symbol;
  Alcotest.(check bool) "is_zero" true (Power.is_zero Power.zero);
  Alcotest.(check bool) "is_positive" true (Power.is_positive (Power.watts 1.0));
  Alcotest.(check bool) "is_finite" false (Power.is_finite (Power.watts Float.infinity));
  check_float "neg" (-1.0) (Power.to_watts (Power.neg (Power.watts 1.0)));
  check_float "abs" 1.0 (Power.to_watts (Power.abs (Power.watts (-1.0))));
  check_float "ratio" 2.0 (Power.ratio (Power.watts 2.0) (Power.watts 1.0));
  Alcotest.(check bool) "pp works" true
    (String.length (Format.asprintf "%a" Power.pp (Power.milliwatts 3.0)) > 0)

(* --- Tech helpers --- *)

let test_process_node_pp () =
  Alcotest.(check string) "pp name" "130nm"
    (Format.asprintf "%a" Amb_tech.Process_node.pp Amb_tech.Process_node.n130)

let test_logic_energy_per_cycle () =
  let blk = Amb_tech.Logic.block ~name:"b" ~gates:1000.0 ~activity:0.5 in
  let e = Amb_tech.Logic.energy_per_cycle Amb_tech.Process_node.n130 blk in
  check_float "0.5 * 1000 * 5fJ" (0.5 *. 1000.0 *. 5e-15) (Energy.to_joules e)

let test_memory_area () =
  let sram =
    Amb_tech.Memory.make ~name:"m" ~kind:Amb_tech.Memory.Sram ~bits:1e6
      ~node:Amb_tech.Process_node.n130
  in
  (* 1e6 bits x 2 um^2 = 2 mm^2. *)
  check_float "macro area" 2.0 (Area.to_square_millimetres (Amb_tech.Memory.area sram))

let test_soc_area_and_memory_power () =
  let soc = Amb_core.Experiments.media_soc Amb_tech.Process_node.n130 in
  Alcotest.(check bool) "area in single-digit-to-tens mm^2 range" true
    (let a = Area.to_square_millimetres (Amb_tech.Soc.area soc) in
     a > 5.0 && a < 100.0);
  Alcotest.(check bool) "onchip memory power positive" true
    (Power.is_positive (Amb_tech.Soc.onchip_memory_power soc))

(* --- Energy helpers --- *)

let test_battery_misc () =
  Alcotest.(check string) "chemistry name" "Li coin"
    (Amb_energy.Battery.chemistry_name Amb_energy.Battery.Lithium_coin);
  Alcotest.(check bool) "find by name" true
    (Amb_energy.Battery.find "CR2032 coin cell" <> None);
  Alcotest.(check bool) "Li-ion beats alkaline per gram" true
    (Amb_energy.Battery.energy_density_j_per_g Amb_energy.Battery.liion_phone
    > Amb_energy.Battery.energy_density_j_per_g Amb_energy.Battery.aa_alkaline /. 2.0)

let test_harvester_describe () =
  Alcotest.(check bool) "photovoltaic described" true
    (String.length (Amb_energy.Harvester.describe Amb_energy.Harvester.small_solar_cell) > 5);
  Alcotest.(check int) "five environments" 5 (List.length Amb_energy.Harvester.environments)

let test_storage_total_energy () =
  let cap = Amb_energy.Storage.supercap_100mf in
  Alcotest.(check bool) "usable < total" true
    (Energy.lt (Amb_energy.Storage.usable_energy cap) (Amb_energy.Storage.total_energy cap))

let test_supply_harvester_with_buffer () =
  let s =
    Amb_energy.Supply.harvester_with_buffer ~name:"hb" Amb_energy.Harvester.small_solar_cell
      Amb_energy.Harvester.office_indoor Amb_energy.Storage.supercap_100mf
  in
  (* Income minus the buffer's 1 uW leakage. *)
  check_float "income with leakage" ((125e-6 *. 0.85) -. 1e-6)
    (Power.to_watts (Amb_energy.Supply.harvest_income s));
  Alcotest.(check bool) "no battery: zero lifetime when over income" true
    (Time_span.to_seconds (Amb_energy.Supply.lifetime s (Power.milliwatts 1.0)) = 0.0)

(* --- Circuit helpers --- *)

let test_processor_mips_per_mw () =
  let v = Amb_circuit.Processor.mips_per_mw Amb_circuit.Processor.arm7_class in
  Alcotest.(check bool) "era-plausible MIPS/mW" true (v > 0.1 && v < 100.0)

let test_modulation_names () =
  Alcotest.(check string) "fsk" "FSK (non-coherent)"
    (Amb_radio.Modulation.name Amb_radio.Modulation.Fsk_noncoherent);
  check_float "qpsk 2 bits" 2.0 (Amb_radio.Modulation.bits_per_symbol Amb_radio.Modulation.Qpsk)

let test_sensor_modality_names () =
  Alcotest.(check string) "pir" "PIR"
    (Amb_circuit.Sensor.modality_name Amb_circuit.Sensor.Passive_infrared)

let test_accelerator_kind_names () =
  Alcotest.(check string) "fixed" "fixed-function"
    (Amb_circuit.Accelerator.kind_name Amb_circuit.Accelerator.Fixed_function)

let test_packet_with_preamble () =
  let p = Amb_radio.Packet.sensor_reading in
  let stretched = Amb_radio.Packet.with_preamble p ~preamble_bits:1000.0 in
  check_float "payload unchanged" p.Amb_radio.Packet.payload_bits
    stretched.Amb_radio.Packet.payload_bits;
  check_float "preamble set" 1000.0 stretched.Amb_radio.Packet.preamble_bits

(* --- Sim helpers --- *)

let test_engine_pending () =
  let e = Amb_sim.Engine.create () in
  Amb_sim.Engine.schedule e ~delay:(Time_span.seconds 1.0) (fun _ -> ());
  Alcotest.(check int) "one pending" 1 (Amb_sim.Engine.pending e);
  ignore (Amb_sim.Engine.run e);
  Alcotest.(check int) "drained" 0 (Amb_sim.Engine.pending e)

let test_distribution_sample_positive () =
  let rng = Amb_sim.Rng.create 3 in
  let d = Amb_sim.Distribution.gaussian 0.5 2.0 in
  for _ = 1 to 200 do
    Alcotest.(check bool) "non-negative" true (Amb_sim.Distribution.sample_positive rng d >= 0.0)
  done

let test_queue_clear () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:1.0 ();
  Event_queue.clear q;
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q)

let test_trace_pp () =
  let t = Amb_sim.Trace.create () in
  Amb_sim.Trace.record t ~time:1.5 "hello";
  let s = Format.asprintf "%a" Amb_sim.Trace.pp t in
  Alcotest.(check bool) "rendered" true (String.length s > 5)

(* --- Net helpers --- *)

let test_graph_edge_count () =
  let g = Graph.create 3 in
  Graph.add_undirected g 0 1 ~weight:1.0;
  Alcotest.(check int) "two directed edges" 2 (Graph.edge_count g)

let test_topology_density () =
  let topo = Amb_net.Topology.grid ~columns:2 ~rows:2 ~spacing_m:10.0 in
  check_float "4 nodes / 100 m^2" 0.04 (Amb_net.Topology.density topo)

let test_routing_policy_names () =
  Alcotest.(check string) "min-hop" "min-hop"
    (Amb_net.Routing.policy_name Amb_net.Routing.Min_hop)

let test_cluster_member_distance () =
  let c =
    Amb_net.Cluster.make ~nodes:100 ~field_m:100.0 ~sink_distance_m:100.0
      ~e_elec_nj_per_bit:50.0 ~e_amp_pj_per_bit_m2:100.0 ~bits_per_round:100.0 ()
  in
  (* More heads -> shorter member hops. *)
  let d2 p = Amb_net.Cluster.expected_member_distance_sq c ~head_fraction:p in
  Alcotest.(check bool) "monotone" true (d2 0.2 < d2 0.05)

(* --- Workload helpers --- *)

let test_scenario_helpers () =
  Alcotest.(check int) "six scenarios" 6 (List.length Amb_workload.Scenario.catalogue);
  Alcotest.(check bool) "voice comm is modest" true
    (Data_rate.to_bits_per_second (Amb_workload.Scenario.average_comm Amb_workload.Scenario.voice_interface)
    < 64e3)

let test_task_graph_node_count () =
  Alcotest.(check int) "decoder nodes" 6
    (Amb_workload.Task_graph.node_count Amb_workload.Task_graph.audio_decoder)

let test_edf_policy_names () =
  Alcotest.(check string) "edf" "EDF"
    (Amb_workload.Edf_sim.policy_name Amb_workload.Edf_sim.Earliest_deadline_first)

(* --- Node / state_sim --- *)

let test_state_sim_outcome_fields () =
  let machine =
    Amb_node.Power_state.make
      ~states:
        [ { Amb_node.Power_state.name = "sleep"; power = Power.microwatts 10.0 };
          { Amb_node.Power_state.name = "on"; power = Power.milliwatts 1.0 };
        ]
      ~transitions:[] ~initial:"sleep"
  in
  let schedule =
    [ { Amb_node.Power_state.state = "sleep"; dwell = Time_span.milliseconds 90.0 };
      { Amb_node.Power_state.state = "on"; dwell = Time_span.milliseconds 10.0 };
    ]
  in
  let o = Amb_node.State_sim.run machine schedule ~cycles:5 in
  Alcotest.(check int) "cycles" 5 o.Amb_node.State_sim.cycles_completed;
  check_float "duration" 0.5 (Time_span.to_seconds o.Amb_node.State_sim.simulated_time);
  (* 0.9 * 10 uW + 0.1 * 1 mW = 109 uW. *)
  Alcotest.(check (float 1e-12)) "average" 109e-6
    (Power.to_watts o.Amb_node.State_sim.average_power);
  Alcotest.(check bool) "trace recorded" true
    (Amb_sim.Trace.recorded o.Amb_node.State_sim.trace >= 20)

let test_state_sim_with_transitions_matches () =
  let machine =
    Amb_node.Power_state.make
      ~states:
        [ { Amb_node.Power_state.name = "sleep"; power = Power.microwatts 5.0 };
          { Amb_node.Power_state.name = "tx"; power = Power.milliwatts 15.0 };
        ]
      ~transitions:
        [ { Amb_node.Power_state.from_state = "sleep"; to_state = "tx";
            latency = Time_span.microseconds 250.0; energy = Energy.microjoules 3.0 };
          { Amb_node.Power_state.from_state = "tx"; to_state = "sleep";
            latency = Time_span.microseconds 10.0; energy = Energy.microjoules 0.1 };
        ]
      ~initial:"sleep"
  in
  let schedule =
    [ { Amb_node.Power_state.state = "sleep"; dwell = Time_span.seconds 1.0 };
      { Amb_node.Power_state.state = "tx"; dwell = Time_span.milliseconds 5.0 };
    ]
  in
  Alcotest.(check bool) "sim = closed form" true
    (Amb_node.State_sim.matches_closed_form machine schedule ~cycles:4 ~rel:1e-9)

(* --- Core helpers --- *)

let test_device_class_misc () =
  Alcotest.(check bool) "compatible below band" true
    (Amb_core.Device_class.compatible Amb_core.Device_class.Milliwatt (Power.microwatts 10.0));
  Alcotest.(check bool) "peak budgets ordered" true
    (Power.lt
       (Amb_core.Device_class.peak_budget Amb_core.Device_class.Microwatt)
       (Amb_core.Device_class.peak_budget Amb_core.Device_class.Watt));
  Alcotest.(check bool) "pp renders" true
    (String.length (Format.asprintf "%a" Amb_core.Device_class.pp Amb_core.Device_class.Watt) > 3)

let test_power_information_kinds () =
  Alcotest.(check string) "kind name" "communication"
    (Amb_core.Power_information.kind_name Amb_core.Power_information.Communication);
  check_float "bits per op" 32.0 Amb_core.Power_information.bits_per_op

let test_run_all_experiments () =
  let results = Amb_core.Experiments.run_all () in
  Alcotest.(check int) "32 experiments + 3 ablations" 35 (List.length results)

let test_case_study_find_miss () =
  Alcotest.(check bool) "unknown id" true (Amb_core.Case_study.find "Z" = None)

let suite =
  [ ("si parse prefix", `Quick, test_si_parse_prefix);
    ("si format specials", `Quick, test_si_format_specials);
    ("quantity misc", `Quick, test_quantity_misc);
    ("process node pp", `Quick, test_process_node_pp);
    ("logic energy per cycle", `Quick, test_logic_energy_per_cycle);
    ("memory area", `Quick, test_memory_area);
    ("soc area and memory power", `Quick, test_soc_area_and_memory_power);
    ("battery misc", `Quick, test_battery_misc);
    ("harvester describe", `Quick, test_harvester_describe);
    ("storage total energy", `Quick, test_storage_total_energy);
    ("supply harvester+buffer", `Quick, test_supply_harvester_with_buffer);
    ("processor mips/mw", `Quick, test_processor_mips_per_mw);
    ("modulation names", `Quick, test_modulation_names);
    ("sensor modality names", `Quick, test_sensor_modality_names);
    ("accelerator kind names", `Quick, test_accelerator_kind_names);
    ("packet with preamble", `Quick, test_packet_with_preamble);
    ("engine pending", `Quick, test_engine_pending);
    ("distribution sample positive", `Quick, test_distribution_sample_positive);
    ("queue clear", `Quick, test_queue_clear);
    ("trace pp", `Quick, test_trace_pp);
    ("graph edge count", `Quick, test_graph_edge_count);
    ("topology density", `Quick, test_topology_density);
    ("routing policy names", `Quick, test_routing_policy_names);
    ("cluster member distance", `Quick, test_cluster_member_distance);
    ("scenario helpers", `Quick, test_scenario_helpers);
    ("task graph node count", `Quick, test_task_graph_node_count);
    ("edf policy names", `Quick, test_edf_policy_names);
    ("state sim outcome", `Quick, test_state_sim_outcome_fields);
    ("state sim with transitions", `Quick, test_state_sim_with_transitions_matches);
    ("device class misc", `Quick, test_device_class_misc);
    ("power information kinds", `Quick, test_power_information_kinds);
    ("run all experiments", `Quick, test_run_all_experiments);
    ("case study find miss", `Quick, test_case_study_find_miss);
  ]
