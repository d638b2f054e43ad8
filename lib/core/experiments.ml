(** The reconstructed experiment suite — one builder per table/figure.

    Each experiment E1..E31 (plus ablations A1..A3) regenerates one
    paper-shaped artifact as a {!Report.t}.  DESIGN.md maps each id to the
    modules it exercises; EXPERIMENTS.md records expected-shape vs
    measured.  The bench harness and the CLI both dispatch through
    {!all}. *)

open Amb_units
open Amb_tech
open Amb_energy
open Amb_circuit
open Amb_radio
open Amb_node

(* Shorthand for the qualitative cells of a typed row. *)
let txt = Report.cell_text

(* ------------------------------------------------------------------ *)
(* E1 — power-information graph                                        *)

let e1 () = Power_information.to_report (Power_information.catalogue ())

(* ------------------------------------------------------------------ *)
(* E2 — the three device classes                                       *)

let e2 () =
  let row cls =
    let lo, hi = Device_class.keynote_band cls in
    [ txt (Device_class.name cls);
      txt (Printf.sprintf "%s .. %s" (Power.to_string lo) (Power.to_string hi));
      Report.cell_power (Device_class.average_budget cls);
      txt (Device_class.energy_source cls);
      (match Device_class.lifetime_target cls with
      | None -> txt "n/a (mains)"
      | Some t -> Report.cell_time t);
      txt (String.concat ", " (Device_class.typical_functions cls));
    ]
  in
  Report.make ~title:"E2: the three device classes"
    ~header:[ "class"; "power band"; "avg budget"; "energy source"; "lifetime target"; "functions" ]
    (List.map row Device_class.keynote)
    ~notes:[ "challenges: " ^ String.concat " | "
               (List.map (fun c -> Device_class.short_name c ^ ": " ^ Device_class.design_challenge c)
                  Device_class.keynote) ]

(* ------------------------------------------------------------------ *)
(* E3 — CS-A energy budget per activation                              *)

let e3 () =
  let node = Reference_designs.microwatt_node () in
  let act = Reference_designs.microwatt_activation in
  let b = Node_model.cycle_breakdown node act in
  let total = Energy.to_joules b.Node_model.total in
  let share e = if total <= 0.0 then 0.0 else Energy.to_joules e /. total in
  let row name e = [ txt name; Report.cell_energy e; Report.cell_percent (share e) ] in
  Report.make ~title:"E3: microwatt-node energy budget per sense-process-transmit cycle"
    ~header:[ "subsystem"; "energy"; "share" ]
    [ row "sensing" b.Node_model.sensing;
      row "A/D conversion" b.Node_model.conversion;
      row "computation" b.Node_model.computation;
      row "communication (radio)" b.Node_model.communication;
      row "total" b.Node_model.total;
    ]
    ~notes:
      [ Printf.sprintf "radio start-up alone: %s"
          (Energy.to_string (Radio_frontend.startup_energy node.Node_model.radio));
        "communication dominates: the radio, not the MCU, sets the duty-cycle budget";
      ]

(* ------------------------------------------------------------------ *)
(* E4 — CS-A lifetime vs activation rate (+ ablation A1)               *)

let e4_rates = [ 1.0 /. 3600.0; 1.0 /. 600.0; 1.0 /. 60.0; 1.0 /. 10.0; 1.0; 5.0 ]

let e4_core ~peukert () =
  let env = Harvester.office_indoor in
  let node = Reference_designs.microwatt_node ~environment:env () in
  let act = Reference_designs.microwatt_activation in
  let profile = Node_model.duty_profile node act in
  let battery = if peukert then Battery.cr2032 else { Battery.cr2032 with Battery.peukert_exponent = 1.0 } in
  let battery_supply = Supply.battery_only ~name:"CR2032 only" battery in
  let harvest_supply = node.Node_model.supply in
  let row rate =
    let p = Duty_cycle.average_power profile ~rate in
    let life_batt = Supply.lifetime battery_supply p in
    let verdict = Lifetime.evaluate harvest_supply p in
    [ Report.cell_float ~digits:4 rate;
      Report.cell_power p;
      Report.cell_time life_batt;
      txt (Lifetime.verdict_to_string verdict);
    ]
  in
  let autonomy =
    match Duty_cycle.autonomy_rate profile harvest_supply with
    | Some r when r < Float.infinity -> Printf.sprintf "%.3g activations/s" r
    | Some _ -> "unlimited"
    | None -> "none (sleep exceeds harvest)"
  in
  Report.make
    ~title:
      (Printf.sprintf "E4%s: microwatt-node lifetime vs activation rate"
         (if peukert then "" else " (A1: Peukert off)"))
    ~header:[ "rate (1/s)"; "avg power"; "CR2032 alone"; "PV + CR2032" ]
    (List.map row e4_rates)
    ~notes:
      [ "PV cell: 5 cm^2 amorphous Si in office light (5 W/m^2)";
        "autonomy boundary (harvester covers load) at " ^ autonomy;
      ]

let e4 () = e4_core ~peukert:true ()
let a1 () = e4_core ~peukert:false ()

(* ------------------------------------------------------------------ *)
(* E5 — DSP efficiency gaps                                            *)

let e5 () = Challenge.to_report (Challenge.standard_gaps ())

(* ------------------------------------------------------------------ *)
(* E6 — DVFS vs race-to-idle on the mW node                            *)

let e6 () =
  let p = Processor.arm7_class in
  let capacity = Frequency.to_hertz (Processor.max_throughput p) in
  let utilizations = [ 0.05; 0.1; 0.2; 0.3; 0.5; 0.7; 0.9; 1.0 ] in
  let row u =
    let rate = Frequency.hertz (u *. capacity) in
    match (Processor.race_to_idle_power p rate, Processor.dvfs_power p rate) with
    | Some race, Some dvfs ->
      let v =
        match Processor.min_voltage_for p rate with
        | Some v -> Printf.sprintf "%.2f V" (Voltage.to_volts v)
        | None -> "-"
      in
      let saving = (Power.to_watts race -. Power.to_watts dvfs) /. Power.to_watts race in
      [ Report.cell_percent u; txt v; Report.cell_power race; Report.cell_power dvfs;
        Report.cell_percent saving ]
    | _ -> [ Report.cell_percent u; txt "-"; txt "-"; txt "-"; txt "infeasible" ]
  in
  Report.make ~title:"E6: voltage scaling vs race-to-idle (ARM7-class core)"
    ~header:[ "utilization"; "DVFS Vdd"; "race-to-idle"; "DVFS"; "saving" ]
    (List.map row utilizations)
    ~notes:[ "savings grow as utilization falls until leakage dominates" ]

(* ------------------------------------------------------------------ *)
(* E7 — W-node SoC across process nodes (+ ablation A2)                *)

let media_soc node =
  Soc.make ~name:"SD media SoC" ~node ~clock:(Frequency.megahertz 200.0)
    ~logic_blocks:
      [ Logic.block ~name:"video core" ~gates:2_000_000.0 ~activity:0.15;
        Logic.block ~name:"audio+control" ~gates:500_000.0 ~activity:0.10;
        Logic.block ~name:"peripherals" ~gates:300_000.0 ~activity:0.05;
      ]
    ~memories:
      [ Memory.make ~name:"L1+buffers" ~kind:Memory.Sram ~bits:(2_000_000.0 *. 8.0) ~node;
      ]
    ~offchip_accesses_per_s:50.0e6

let e7 () =
  let row node =
    let soc = media_soc node in
    let b = Soc.breakdown soc in
    let leak_frac =
      Power.to_watts b.Soc.leakage /. Float.max 1e-30 (Power.to_watts b.Soc.total)
    in
    [ txt node.Process_node.name;
      Report.cell_power b.Soc.dynamic;
      Report.cell_power b.Soc.leakage;
      Report.cell_power (Power.add b.Soc.onchip_memory b.Soc.offchip_memory);
      Report.cell_power b.Soc.total;
      Report.cell_percent leak_frac;
      txt (Printf.sprintf "%.2f W/cm^2" (Soc.power_density soc));
    ]
  in
  Report.make ~title:"E7: media SoC power across process nodes (fixed 200 MHz architecture)"
    ~header:[ "node"; "dynamic"; "leakage"; "memory"; "total"; "leak frac"; "density" ]
    (List.map row Process_node.catalogue)
    ~notes:[ "dynamic falls with scaling; leakage and memory traffic take over" ]

let a2 () =
  let base = Process_node.n130 in
  let project regime = Scaling.project regime base ~to_nm:65.0 in
  let row name node =
    let soc = media_soc node in
    let b = Soc.breakdown soc in
    [ txt name; Report.cell_power b.Soc.dynamic; Report.cell_power b.Soc.leakage;
      Report.cell_power b.Soc.total ]
  in
  Report.make ~title:"A2: 130->65 nm projection, ideal Dennard vs leakage-aware"
    ~header:[ "projection"; "dynamic"; "leakage"; "total" ]
    [ row "130 nm (base)" base;
      row "65 nm Dennard" (project Scaling.Dennard);
      row "65 nm leakage-aware" (project Scaling.Leakage_aware);
      row "65 nm (catalogue)" Process_node.n65;
    ]
    ~notes:[ "ideal scaling predicts ~8x energy gain; leakage erodes most of it" ]

(* ------------------------------------------------------------------ *)
(* E8 — radio energy per delivered bit vs range and packet size        *)

let e8 () =
  let radio = Radio_frontend.low_power_uhf in
  let link = Link_budget.make ~radio ~channel:Path_loss.indoor () in
  let distances = [ 1.0; 3.0; 10.0; 30.0; 60.0; 100.0; 150.0; 250.0 ] in
  let packets =
    [ ("4 B reading", Packet.sensor_reading); ("32 B report", Packet.sensor_report);
      ("1500 B frame", Packet.stream_frame) ]
  in
  let row d =
    let cells =
      List.map
        (fun (_, p) ->
          match
            Link_budget.energy_per_delivered_bit link ~distance_m:d
              ~packet_bits:(Packet.total_bits p)
          with
          | None -> txt "out of reach"
          | Some e -> Report.cell_energy e)
        packets
    in
    txt (Printf.sprintf "%.0f m" d)
    :: (match Link_budget.required_tx_dbm link ~distance_m:d with
       | None -> txt "-"
       | Some dbm -> txt (Printf.sprintf "%.1f dBm" dbm))
    :: cells
  in
  Report.make ~title:"E8: TX energy per bit vs distance (868 MHz, indoor n=3.3)"
    ~header:([ "distance"; "required TX" ] @ List.map fst packets)
    (List.map row distances)
    ~notes:
      [ Printf.sprintf "radio start-up energy %s is amortised over the packet"
          (Energy.to_string (Radio_frontend.startup_energy radio));
        "short packets pay mostly overhead: framing + start-up dominate";
      ]

(* ------------------------------------------------------------------ *)
(* E9 — preamble-sampling MAC power vs wake-up interval (+ A3)         *)

let e9_core ~with_startup () =
  let radio =
    if with_startup then Radio_frontend.low_power_uhf
    else { Radio_frontend.low_power_uhf with Radio_frontend.startup_time = Time_span.zero }
  in
  let packet = Packet.sensor_report in
  let tx_rate = 1.0 /. 30.0 and rx_rate = 1.0 /. 30.0 in
  let intervals = [ 0.01; 0.05; 0.1; 0.5; 1.0; 5.0 ] in
  let mac t = Mac_duty_cycle.make ~radio ~t_wakeup:(Time_span.seconds t) ~packet () in
  let row t =
    let p = Mac_duty_cycle.average_power (mac t) ~tx_rate ~rx_rate in
    [ txt (Printf.sprintf "%.2f s" t); Report.cell_power p ]
  in
  let opt = Mac_duty_cycle.optimal_wakeup (mac 1.0) ~tx_rate ~rx_rate in
  let opt_num = Mac_duty_cycle.optimal_wakeup_numeric (mac 1.0) ~tx_rate ~rx_rate in
  let p_opt = Mac_duty_cycle.average_power (mac (Time_span.to_seconds opt)) ~tx_rate ~rx_rate in
  Report.make
    ~title:
      (Printf.sprintf "E9%s: preamble-sampling MAC power vs wake-up interval"
         (if with_startup then "" else " (A3: start-up cost removed)"))
    ~header:[ "wake-up interval"; "avg radio power" ]
    (List.map row intervals)
    ~notes:
      [ Printf.sprintf "closed-form optimum %.3f s (numeric %.3f s) -> %s"
          (Time_span.to_seconds opt) (Time_span.to_seconds opt_num) (Power.to_string p_opt);
        "traffic: one 32 B report sent and received every 30 s";
      ]

let e9 () = e9_core ~with_startup:true ()
let a3 () = e9_core ~with_startup:false ()

(* ------------------------------------------------------------------ *)
(* E10 — ambient functions mapped on a smart-home network              *)

let smart_home_hosts () =
  let uw i = Mapping.of_node_model (Reference_designs.microwatt_node ()) |> fun h ->
    { h with Mapping.host_name = Printf.sprintf "sensor-%d" i } in
  let mw name =
    Mapping.of_node_model (Reference_designs.milliwatt_node ()) |> fun h ->
    { h with Mapping.host_name = name }
  in
  (* The hub is an 8-way media MPSoC: one W-node with eight media-processor
     cores (the "scaling into ambient intelligence" architecture). *)
  let w name =
    Mapping.of_node_model ~cores:8 (Reference_designs.watt_node ()) |> fun h ->
    { h with Mapping.host_name = name }
  in
  [ uw 1; uw 2; uw 3; uw 4; mw "wearable"; mw "handheld"; w "media-hub" ]

let e10 () =
  let assignment = Mapping.assign ~hosts:(smart_home_hosts ()) ~functions:Ami_function.catalogue in
  Mapping.to_report assignment

(* ------------------------------------------------------------------ *)
(* E11 — sensor-field lifetime vs routing policy                       *)

let e11_policies =
  [ Amb_net.Routing.Min_hop; Amb_net.Routing.Min_energy; Amb_net.Routing.Max_lifetime ]

let e11_ctx () =
  let rng = Amb_sim.Rng.create 42 in
  let nodes = 60 in
  (* 300x300 m: the low-power radio reaches ~110 m indoors, so traffic to
     the corner sink needs 2-4 hops and forwarding load matters. *)
  let topology = Amb_net.Topology.random rng ~nodes ~width_m:300.0 ~height_m:300.0 in
  let radio = Radio_frontend.low_power_uhf in
  let link = Link_budget.make ~radio ~channel:Path_loss.indoor () in
  let packet = Packet.sensor_report in
  (Amb_net.Routing.make ~topology ~link ~packet (), nodes)

let e11_row (router, nodes) policy =
  (* Each node dedicates 10% of a CR2032 to forwarding. *)
  let budget _ = Energy.scale 0.1 (Battery.energy Battery.cr2032) in
  let sink = 0 in
  let tree = Amb_net.Flow.collection_tree router ~policy ~residual:budget ~sink in
  let connected = Amb_net.Flow.connected_count tree in
  let rounds =
    Amb_net.Flow.simulate_depletion router ~policy ~budget ~sink ~rebuild_every:500.0
  in
  let lifetime = Time_span.seconds (rounds *. 30.0) in
  [ txt (Amb_net.Routing.policy_name policy);
    txt (Printf.sprintf "%d/%d" connected nodes);
    Report.cell_float ~digits:4 rounds;
    Report.cell_time lifetime;
  ]

let e11_assemble rows =
  Report.make
    ~title:"E11: sensor-field lifetime vs routing policy (60 nodes, 300x300 m, 10% CR2032)"
    ~header:[ "policy"; "connected"; "rounds to first death"; "lifetime @30s/round" ]
    rows
    ~notes:
      [ "max-lifetime reroutes around draining bottlenecks (tree rebuilt every 500 rounds)" ]

let e11 () =
  let ctx = e11_ctx () in
  e11_assemble (List.map (e11_row ctx) e11_policies)

(* ------------------------------------------------------------------ *)
(* E12 — simulator vs closed form                                      *)

let e12_cases =
  [ (1.0 /. 300.0, "periodic"); (1.0 /. 30.0, "periodic"); (1.0 /. 30.0, "poisson") ]

let e12_ctx () =
  let node = Reference_designs.microwatt_node () in
  let act = Reference_designs.microwatt_activation in
  let profile = Node_model.duty_profile node act in
  let supply = Supply.battery_only ~name:"CR2032 only" Battery.cr2032 in
  (profile, supply)

let e12_row (profile, supply) (rate, kind) =
  let traffic =
    match kind with
    | "poisson" -> Amb_workload.Traffic.poisson rate
    | _ -> Amb_workload.Traffic.periodic (Time_span.seconds (1.0 /. rate))
  in
  let cfg =
    Lifetime_sim.config ~profile ~supply ~activation_traffic:traffic
      ~horizon:(Time_span.days 30.0) ()
  in
  let outcome = Lifetime_sim.run cfg ~seed:7 in
  let analytic = Duty_cycle.average_power profile ~rate in
  let measured = outcome.Lifetime_sim.average_power in
  let err =
    Float.abs (Power.to_watts measured -. Power.to_watts analytic)
    /. Float.max 1e-30 (Power.to_watts analytic)
  in
  [ txt (Printf.sprintf "%.4g /s %s" rate kind);
    Report.cell_power analytic;
    Report.cell_power measured;
    Report.cell_percent err;
    Report.cell_int outcome.Lifetime_sim.activations;
  ]

let e12_assemble rows =
  Report.make ~title:"E12: discrete-event simulation vs closed-form duty-cycle power (30 days)"
    ~header:[ "activation process"; "analytic"; "simulated"; "rel. error"; "activations" ]
    rows
    ~notes:[ "closed form excludes the per-activation sleep displacement; expect ~duty-sized error" ]

let e12 () =
  let ctx = e12_ctx () in
  e12_assemble (List.map (e12_row ctx) e12_cases)

(* ------------------------------------------------------------------ *)
(* E13 — closing the E5 gap by architecture                            *)

let e13 () =
  (* The hardest ambition row of E5: motion video on the personal (mW)
     device.  Required efficiency = demand / (half the mW budget). *)
  let f = Ami_function.video_streaming in
  let demand = Frequency.to_hertz (Ami_function.average_compute f) in
  let budget = Power.to_watts (Power.scale 0.5 (Device_class.average_budget Device_class.Milliwatt)) in
  let required = demand /. budget in
  let architectures =
    [ ("32-bit RISC (software)", Processor.ops_per_joule Processor.arm7_class);
      ("VLIW DSP (software)", Processor.ops_per_joule Processor.dsp_vliw);
      ("embedded FPGA fabric", Accelerator.ops_per_joule Accelerator.efpga_fabric);
      ("dedicated video ASIC", Accelerator.ops_per_joule Accelerator.video_pipeline_asic);
    ]
  in
  let doubling = Scaling.efficiency_doubling_period Process_node.catalogue in
  let row (name, available) =
    let gap = required /. available in
    let closing = Scaling.years_to_close ~doubling_period:doubling ~gap in
    [ txt name;
      Report.cell_float available;
      txt (Printf.sprintf "%.2fx" gap);
      (if gap <= 1.0 then txt "fits today"
       else txt (Printf.sprintf "+%.1f years of scaling" (Time_span.to_years closing)));
    ]
  in
  Report.make
    ~title:"E13: closing the video-on-mW gap by architecture (130 nm era)"
    ~header:[ "architecture"; "ops/J"; "gap vs required"; "verdict" ]
    (List.map row architectures)
    ~notes:
      [ Printf.sprintf "required: %.3g ops/J (SD video in half the mW-node budget)" required;
        "the efficiency ladder RISC < FPGA < DSP-class < ASIC is what closes the gap, not scaling";
      ]

(* ------------------------------------------------------------------ *)
(* E14 — riding through the night: diurnal harvesting                  *)

let e14_profiles =
  [ Day_profile.constant; Day_profile.office_lighting; Day_profile.living_room_lighting;
    Day_profile.outdoor_diurnal ]

let e14_ctx () =
  let node = Reference_designs.microwatt_node () in
  let act = Reference_designs.microwatt_activation in
  let profile = Node_model.duty_profile node act in
  let rate = 1.0 /. 30.0 in
  let load = Duty_cycle.average_power profile ~rate in
  let peak_income = Supply.harvest_income node.Node_model.supply in
  (node, profile, load, peak_income)

let e14_row (node, profile, load, peak_income) dp =
  let avg = Day_profile.average_income dp peak_income in
  let sustainable = Day_profile.sustainable dp ~load ~income:peak_income in
  let buffer = Day_profile.buffer_energy_required dp ~load ~income:peak_income in
  let cap_f =
    Day_profile.buffer_capacitance_required dp ~load ~income:peak_income
      ~v_max:(Voltage.volts 3.3) ~v_min:(Voltage.volts 1.8)
  in
  (* Cross-check with the discrete-event simulator over 30 days on a
     small buffer-sized reserve. *)
  let sim_supply =
    { (node.Node_model.supply) with Supply.battery = Some Battery.cr2032 }
  in
  let cfg =
    Lifetime_sim.config ~profile ~supply:sim_supply
      ~activation_traffic:(Amb_workload.Traffic.periodic (Time_span.seconds 30.0))
      ~horizon:(Time_span.days 30.0)
      ~income_multiplier:(Day_profile.income_multiplier dp) ()
  in
  let o = Lifetime_sim.run cfg ~seed:14 in
  [ txt dp.Day_profile.name;
    Report.cell_power avg;
    txt (if sustainable then "yes" else "NO");
    Report.cell_energy buffer;
    txt (Printf.sprintf "%.2f F" cap_f);
    txt (if o.Lifetime_sim.died then "died" else "alive @30d");
  ]

let e14_assemble rows =
  let _, _, load, peak_income = e14_ctx () in
  Report.make ~title:"E14: diurnal harvesting - long-run balance and night buffer"
    ~header:[ "day profile"; "avg income"; "sustainable"; "night buffer"; "supercap"; "30-day sim" ]
    rows
    ~notes:
      [ Printf.sprintf "load: %s at one report per 30 s; peak income %s" (Power.to_string load)
          (Power.to_string peak_income);
        "buffer = energy to carry the load through the darkest stretch";
      ]

let e14 () =
  let ctx = e14_ctx () in
  e14_assemble (List.map (e14_row ctx) e14_profiles)

(* ------------------------------------------------------------------ *)
(* E15 — MPSoC interconnect: shared bus vs network-on-chip             *)

let e15 () =
  let demand_per_core = 2.0e9 (* bits/s: media streams between cores *) in
  let row cores =
    let t = Noc.make ~node:Process_node.n130 ~cores ~die_edge_mm:10.0 () in
    let bus = Noc.evaluate_bus t ~demand_per_core in
    let noc = Noc.evaluate_noc t ~demand_per_core in
    let bus_power = Noc.communication_power t ~demand_per_core ~use_noc:false in
    let noc_power = Noc.communication_power t ~demand_per_core ~use_noc:true in
    [ Report.cell_int cores;
      Report.cell_energy bus.Noc.energy_per_bit;
      (if bus.Noc.saturated then txt "SATURATED" else Report.cell_power bus_power);
      Report.cell_energy noc.Noc.energy_per_bit;
      (if noc.Noc.saturated then txt "SATURATED" else Report.cell_power noc_power);
    ]
  in
  let crossover =
    Noc.crossover_cores ~node:Process_node.n130 ~die_edge_mm:10.0 ~demand_per_core
  in
  Report.make ~title:"E15: MPSoC interconnect - shared bus vs 2D-mesh NoC (10 mm die)"
    ~header:[ "cores"; "bus J/bit"; "bus power"; "NoC J/bit"; "NoC power" ]
    (List.map row [ 2; 4; 8; 16; 32; 64 ])
    ~notes:
      [ (match crossover with
        | Some n -> Printf.sprintf "bus saturates (NoC does not) from %d cores" n
        | None -> "no crossover in 1..1024 cores");
        "per-core demand 2 Gbit/s of inter-core traffic";
      ]

(* ------------------------------------------------------------------ *)
(* E16 — event-driven MAC simulation vs the ALOHA closed form          *)

let e16_loads = [ 0.02; 0.05; 0.1; 0.2; 0.5; 1.0 ]

(* One shard per offered load: [Mac_sim.sweep] seeds row [i] with
   [seed + i], so a singleton sweep at [16 + i] reproduces the exact
   per-row RNG stream of the full sweep. *)
let e16_shard i g =
  let cfg =
    Mac_sim.config ~radio:Radio_frontend.low_power_uhf ~packet:Packet.sensor_report ~nodes:20
      ~per_node_rate:0.1 ~horizon:(Time_span.hours 2.0)
  in
  let row (g, simulated, analytic, throughput) =
    [ txt (Printf.sprintf "%.2f" g);
      Report.cell_percent simulated;
      Report.cell_percent analytic;
      txt (Printf.sprintf "%.3f" throughput);
    ]
  in
  List.map row (Mac_sim.sweep cfg ~loads:[ g ] ~seed:(16 + i))

let e16_assemble rows =
  Report.make ~title:"E16: shared-channel simulation vs pure-ALOHA closed form (20 nodes)"
    ~header:[ "offered load g"; "sim success"; "exp(-2g)"; "sim throughput S" ]
    rows
    ~notes:
      [ "burst collisions make the simulation slightly stricter than exp(-2g) at high load";
        "throughput peaks near g = 0.5, as the closed form predicts";
      ]

let e16 () = e16_assemble (List.concat (List.mapi e16_shard e16_loads))

(* ------------------------------------------------------------------ *)
(* E17 — the regulator sets the sleep floor                            *)

let e17 () =
  let sleeps = [ Power.microwatts 1.0; Power.microwatts 5.0; Power.microwatts 50.0;
                 Power.milliwatts 1.0 ] in
  let regs = Regulator.catalogue in
  let row sleep =
    let cells =
      List.map
        (fun reg ->
          let seen = Regulator.effective_sleep_floor reg ~sleep in
          txt
            (Printf.sprintf "%s (%.0f%%)" (Power.to_string seen)
               (100.0 *. Regulator.efficiency_at reg ~load:sleep)))
        regs
    in
    Report.cell_power sleep :: cells
  in
  Report.make ~title:"E17: what the battery sees while the silicon sleeps (regulator overheads)"
    ~header:("silicon sleep" :: List.map (fun (r : Regulator.t) -> r.Regulator.name) regs)
    (List.map row sleeps)
    ~notes:
      [ "a mW-class buck makes a 5 uW sleeper look like ~360 uW to the battery";
        Printf.sprintf "knee loads: %s"
          (String.concat ", "
             (List.map
                (fun (r : Regulator.t) ->
                  Printf.sprintf "%s %s" r.Regulator.name (Power.to_string (Regulator.knee_load r)))
                regs));
      ]

(* ------------------------------------------------------------------ *)
(* E18 — leakage spread from process variability                       *)

(* One shard per process node; the inner Monte Carlo can additionally
   split the die sweep across domains (statistics are bitwise
   independent of the worker count). *)
let e18_row ~jobs node =
  let block_gates = 2_000_000.0 in
  let spread = Variability.spread_of node in
  let stats = Variability.monte_carlo ~jobs spread ~dies:20_000 ~seed:18 in
  let nominal = Power.scale block_gates node.Process_node.leakage_per_gate in
  [ txt node.Process_node.name;
    txt (Printf.sprintf "%.1f mV" spread.Variability.sigma_vth_mv);
    Report.cell_power nominal;
    txt (Printf.sprintf "%.2fx" stats.Variability.mean_multiplier);
    txt (Printf.sprintf "%.2fx" stats.Variability.p95_multiplier);
    txt (Printf.sprintf "%.2fx" stats.Variability.spread_ratio);
  ]

let e18_assemble rows =
  Report.make
    ~title:"E18: per-die leakage spread across nodes (2 Mgate block, 20k dies)"
    ~header:[ "node"; "sigma Vth"; "nominal leak"; "mean/nom"; "p95/nom"; "p95/median" ]
    rows
    ~notes:
      [ "Vth sigma grows as features shrink; leakage is exponential in Vth";
        "the p95/median spread is the statistical-design margin the W-node must carry";
      ]

let e18 () =
  let jobs = Option.value (Amb_sim.Domain_pool.env_jobs ()) ~default:1 in
  e18_assemble (List.map (e18_row ~jobs) Process_node.catalogue)

(* ------------------------------------------------------------------ *)
(* E19 — sensitivity of the autonomy boundary to model constants       *)

let e19 () =
  let autonomy_with ~startup_scale ~pv_efficiency ~sleep_uw =
    let radio =
      let base = Radio_frontend.low_power_uhf in
      { base with
        Radio_frontend.startup_time = Time_span.scale startup_scale base.Radio_frontend.startup_time }
    in
    let cell =
      Harvester.Photovoltaic { area = Area.square_centimetres 5.0; efficiency = pv_efficiency }
    in
    let supply =
      Supply.harvester_and_battery ~name:"pv+coin" cell Harvester.office_indoor Battery.cr2032
    in
    let node =
      Node_model.make ~name:"sensitivity node" ~processor:Processor.mcu_16bit ~radio
        ~sensors:[ Sensor.temperature; Sensor.light ] ~adc:Adc.sensor_adc ~supply
        ~sleep_power:(Power.microwatts sleep_uw) ~tx_dbm:0.0 ()
    in
    let profile = Node_model.duty_profile node Reference_designs.microwatt_activation in
    match Duty_cycle.autonomy_rate profile supply with
    | Some r -> r
    | None -> 0.0
  in
  let nominal = autonomy_with ~startup_scale:1.0 ~pv_efficiency:0.05 ~sleep_uw:5.0 in
  let row (name, low, high) =
    [ txt name;
      txt (Printf.sprintf "%.3g /s (%+.0f%%)" low (100.0 *. ((low /. nominal) -. 1.0)));
      txt (Printf.sprintf "%.3g /s" nominal);
      txt (Printf.sprintf "%.3g /s (%+.0f%%)" high (100.0 *. ((high /. nominal) -. 1.0)));
    ]
  in
  let rows =
    [ ( "radio start-up time x0.5 / x2",
        autonomy_with ~startup_scale:2.0 ~pv_efficiency:0.05 ~sleep_uw:5.0,
        autonomy_with ~startup_scale:0.5 ~pv_efficiency:0.05 ~sleep_uw:5.0 );
      ( "PV efficiency 2.5% / 10%",
        autonomy_with ~startup_scale:1.0 ~pv_efficiency:0.025 ~sleep_uw:5.0,
        autonomy_with ~startup_scale:1.0 ~pv_efficiency:0.10 ~sleep_uw:5.0 );
      ( "sleep power 10 uW / 2.5 uW",
        autonomy_with ~startup_scale:1.0 ~pv_efficiency:0.05 ~sleep_uw:10.0,
        autonomy_with ~startup_scale:1.0 ~pv_efficiency:0.05 ~sleep_uw:2.5 );
    ]
  in
  Report.make
    ~title:"E19: sensitivity of the uW node's autonomy boundary (activations/s)"
    ~header:[ "parameter (pessimistic / optimistic)"; "pessimistic"; "nominal"; "optimistic" ]
    (List.map row rows)
    ~notes:
      [ "the boundary scales ~linearly with harvest income and is robust to 2x model-constant error";
        "conclusion preserved in all variants: >= 1 report / 30 s remains autonomous";
      ]

(* ------------------------------------------------------------------ *)
(* E20 — packet-level network simulation vs analytic depletion         *)

let e20_policies = [ Amb_net.Routing.Min_hop; Amb_net.Routing.Min_energy ]

let e20_ctx () =
  let rng = Amb_sim.Rng.create 20 in
  let nodes = 30 in
  let topology = Amb_net.Topology.random rng ~nodes ~width_m:250.0 ~height_m:250.0 in
  let link = Link_budget.make ~radio:Radio_frontend.low_power_uhf ~channel:Path_loss.indoor () in
  Amb_net.Routing.make ~topology ~link ~packet:Packet.sensor_report ()

let e20_row router policy =
  (* Small budgets so deaths happen within a tractable horizon. *)
  let budget _ = Energy.joules 20.0 in
  let report_period = Time_span.seconds 30.0 in
  let sink = 0 in
    let analytic_rounds =
      Amb_net.Flow.simulate_depletion router ~policy ~budget ~sink ~rebuild_every:500.0
    in
    let analytic_death = Time_span.scale analytic_rounds report_period in
    let cfg =
      Amb_net.Net_sim.config ~router ~sink ~policy ~report_period ~budget
        ~horizon:(Time_span.scale 3.0 analytic_death) ()
    in
    let o = Amb_net.Net_sim.run cfg ~seed:20 in
    let simulated_death =
      match o.Amb_net.Net_sim.first_death with
      | Some t -> Report.cell_time t
      | None -> txt "none"
    in
    let err =
      match o.Amb_net.Net_sim.first_death with
      | Some t ->
        Report.cell_percent
          (Float.abs (Time_span.to_seconds t -. Time_span.to_seconds analytic_death)
          /. Time_span.to_seconds analytic_death)
      | None -> txt "-"
    in
  [ txt (Amb_net.Routing.policy_name policy);
    Report.cell_time analytic_death;
    simulated_death;
    err;
    Report.cell_percent o.Amb_net.Net_sim.delivery_ratio;
    Report.cell_int o.Amb_net.Net_sim.dead_at_end;
  ]

let e20_assemble rows =
  Report.make
    ~title:"E20: packet-level network simulation vs analytic depletion (30 nodes, 20 J budgets)"
    ~header:[ "policy"; "analytic 1st death"; "simulated"; "error"; "delivery (to 3x)"; "dead @end" ]
    rows
    ~notes:
      [ "simulation runs to 3x the analytic first-death time; delivery degrades after deaths";
        "agreement validates the closed-form block analysis used by E11";
      ]

let e20 () =
  let router = e20_ctx () in
  e20_assemble (List.map (e20_row router) e20_policies)

(* ------------------------------------------------------------------ *)
(* E21 — analytic schedulability vs event-driven scheduling            *)

let e21 () =
  let open Amb_workload in
  let capacity = Processor.max_throughput Processor.arm7_class in
  let cap_hz = Frequency.to_hertz capacity in
  let make_set utilization count =
    List.init count (fun i ->
        let period = Time_span.milliseconds (Float.of_int ((i + 1) * 10)) in
        Task.make
          ~name:(Printf.sprintf "t%d" i)
          ~ops:(utilization /. Float.of_int count *. cap_hz *. Time_span.to_seconds period)
          ~period ())
  in
  let horizon = Time_span.seconds 6.0 in
  let row (label, tasks) =
    let u = Task.total_utilization tasks ~capacity in
    let simulate policy =
      let o = Edf_sim.run ~policy ~tasks ~capacity ~horizon in
      Printf.sprintf "%d/%d" o.Edf_sim.deadline_misses o.Edf_sim.jobs_released
    in
    [ txt label;
      txt (Printf.sprintf "%.2f" u);
      txt (if Scheduler.rm_schedulable tasks ~capacity then "yes" else "no");
      txt (simulate Edf_sim.Rate_monotonic);
      txt (if Scheduler.edf_schedulable tasks ~capacity then "yes" else "no");
      txt (simulate Edf_sim.Earliest_deadline_first);
    ]
  in
  Report.make
    ~title:"E21: analytic schedulability vs simulated deadline misses (6 s horizon)"
    ~header:[ "task set"; "U"; "RM bound"; "RM misses"; "EDF test"; "EDF misses" ]
    (List.map row
       [ ("3 tasks, light", make_set 0.5 3);
         ("3 tasks, U=0.78 (RM-hard)", make_set 0.78 3);
         ("3 tasks, U=0.95", make_set 0.95 3);
         ("3 tasks, overload U=1.2", make_set 1.2 3);
       ])
    ~notes:
      [ "the RM bound is sufficient, not necessary: sets above it may still simulate clean";
        "EDF is exact for deadline=period sets: misses appear exactly when U > 1";
      ]

(* ------------------------------------------------------------------ *)
(* E22 — the autonomous node's design space                            *)

let e22 () = Design_space.to_report Design_space.autonomous_sensing

(* ------------------------------------------------------------------ *)
(* E23 — the ten-year vision timeline                                  *)

let e23 () =
  (* Which push-down ambitions (E5) become scaling-feasible in which
     year?  Reference: what each class's core delivers in 2003. *)
  let ambitions =
    List.filter (fun g -> String.contains g.Challenge.subject '>') (Challenge.standard_gaps ())
  in
  let milestone_rows =
    List.map
      (fun (m : Roadmap.milestone) ->
        let feasible =
          List.filter_map
            (fun g ->
              let available =
                Roadmap.efficiency_in m.Roadmap.year
                  ~reference_ops_per_joule:g.Challenge.available_ops_per_joule
                  ~reference_year:2003
              in
              if available >= g.Challenge.required_ops_per_joule then
                (* Strip the "[-> cls]" suffix for readability. *)
                Some (String.sub g.Challenge.subject 0 (String.index g.Challenge.subject '['))
              else None)
            ambitions
        in
        [ Report.cell_int m.Roadmap.year;
          txt m.Roadmap.node.Process_node.name;
          Report.cell_energy m.Roadmap.gate_energy;
          txt (Printf.sprintf "%.1fx" m.Roadmap.relative_efficiency);
          txt
            (if feasible = [] then "-"
             else String.concat ", " (List.map String.trim feasible));
        ])
      (Roadmap.timeline ~from_year:2003 ~to_year:2015)
  in
  Report.make
    ~title:"E23: the ten-year vision timeline (leakage-aware scaling, class-down ambitions)"
    ~header:[ "year"; "node"; "gate energy"; "efficiency vs 2003"; "ambitions feasible by scaling" ]
    milestone_rows
    ~notes:
      [ "an ambition is feasible when scaled silicon alone reaches its required ops/J (E5)";
        "E13 shows dedicated architecture gets there a decade earlier";
      ]

(* ------------------------------------------------------------------ *)
(* E24 — 2.4 GHz coexistence in the ambient home                       *)

let e24 () =
  let radio = Radio_frontend.zigbee_class in
  let packet = Packet.sensor_report in
  (* A sensor 10 m from its hub: received level from the link budget. *)
  let link = Link_budget.make ~radio ~channel:Path_loss.indoor () in
  let victim_rssi_dbm = Link_budget.received_dbm link ~tx_dbm:0.0 ~distance_m:10.0 in
  let rows =
    Coexistence.victim_report radio packet ~victim_rssi_dbm ~mixes:Coexistence.home_mixes
  in
  let base_energy =
    Radio_frontend.transmit_energy radio ~tx_dbm:0.0 ~bits:(Packet.total_bits packet)
      ~include_startup:true
  in
  let row (mix, p, multiplier) =
    [ txt mix;
      Report.cell_percent p;
      (match multiplier with
      | None -> txt "unreliable (>1% loss after retries)"
      | Some m ->
        txt (Printf.sprintf "%.2fx (%s)" m (Energy.to_string (Energy.scale m base_energy))));
    ]
  in
  Report.make
    ~title:"E24: 2.4 GHz coexistence - sensor report delivery across home interference mixes"
    ~header:[ "interference mix"; "first-try delivery"; "energy multiplier (per delivered)" ]
    (List.map row rows)
    ~notes:
      [ Printf.sprintf "victim: 802.15.4-class report, RSSI %.1f dBm at 10 m, 10 dB capture margin"
          victim_rssi_dbm;
        "retransmissions multiply the uW node's dominant (radio) energy term";
      ]

(* ------------------------------------------------------------------ *)
(* E25 — heterogeneous-fleet co-simulation baseline                    *)

(* The shared fleet of the system experiments: 30 harvesting uW leaves,
   4 battery relays, one mains sink.  Leaf buffers are scaled down to
   0.5 J (a supercap, not a coin cell) so the 14 h office-lighting night
   runs them dry and the network visibly degrades within the two-day
   horizon. *)
let system_fleet () =
  let open Amb_system in
  let leaf =
    { (Fleet.microwatt_leaf ()) with Fleet.budget_override = Some (Energy.joules 0.5) }
  in
  Fleet.make ~leaf ~leaves:30 ~relays:4 ~seed:25 ()

let system_config ?faults fleet =
  let open Amb_system in
  Cosim.config ?faults ~fleet ~policy:Amb_net.Routing.Min_energy
    ~diurnal:Day_profile.office_lighting ~horizon:(Time_span.hours 48.0) ()

let e25 () =
  let open Amb_system in
  let fleet = system_fleet () in
  let outcome = Cosim.run (system_config fleet) ~seed:25 in
  let r = System_metrics.report ~title:"E25: heterogeneous fleet co-simulation (30 uW leaves, 4 mW relays, W sink, 48 h)" fleet outcome in
  Report.make ~title:r.Report.title ~header:r.Report.header r.Report.rows
    ~notes:
      (r.Report.notes
      @ [ "one engine clock couples battery drain, diurnal harvest, per-hop radio energy and rerouting";
          "leaf buffers scaled to 0.5 J so the 14 h office night drains them and deaths reroute traffic";
        ])

(* ------------------------------------------------------------------ *)
(* E26 — fault scenarios over the same fleet, in parallel              *)

let e26_scenarios fleet =
  let open Amb_system in
  let crash = Fault_plan.Node_crash { node = 1; at = Time_span.hours 12.0 } in
  let fade = Fault_plan.Link_fade { a = 0; b = 2; db = 20.0; at = Time_span.hours 6.0 } in
  let variation =
    Fault_plan.battery_variation ~sigma_scale:3.0 ~process:Process_node.n65
      ~nodes:(Fleet.node_count fleet) ~sink:fleet.Fleet.sink ~seed:26 ()
  in
  [ ("no faults", Fault_plan.none);
    ("relay 1 crash @ 12 h", [ crash ]);
    ("sink-relay 2 link fades 20 dB @ 6 h", [ fade ]);
    ("3-sigma battery variability (65 nm)", variation);
    ("crash + fade", [ crash; fade ]);
  ]

let e26_scenario_count = 5

let e26_row fleet (name, faults) =
  let open Amb_system in
  let o = Cosim.run (system_config ~faults fleet) ~seed:25 in
  [ txt name;
    Report.cell_percent o.Cosim.delivery_ratio;
    (match o.Cosim.first_death with Some t -> Report.cell_time t | None -> txt "-");
    Report.cell_int o.Cosim.dead_at_end;
    Report.cell_percent o.Cosim.availability;
    Report.cell_percent o.Cosim.mean_coverage;
  ]

(* One shard per fault scenario: each rebuilds the (deterministic) fleet
   and runs one co-simulation, so the suite scheduler can spread the five
   48 h runs across domains instead of serialising them inside E26. *)
let e26_shard k () =
  let fleet = system_fleet () in
  [ e26_row fleet (List.nth (e26_scenarios fleet) k) ]

let e26_assemble rows =
  Report.make ~title:"E26: fault injection on the heterogeneous fleet (48 h, one scenario per domain)"
    ~header:[ "scenario"; "delivery"; "first death"; "dead @48h"; "availability"; "coverage" ]
    rows
    ~notes:
      [ "availability = time with >= 90% of leaves routed to the sink";
        "battery variability maps Vth spread to capacity via the inverse leakage multiplier";
      ]

let e26 () =
  let fleet = system_fleet () in
  e26_assemble (List.map (e26_row fleet) (e26_scenarios fleet))

(* ------------------------------------------------------------------ *)
(* E27 — degenerate-config cross-checks against the standalone sims    *)

let e27_rel a b = Float.abs (a -. b) /. Float.max 1e-30 (Float.abs a)

(* Part 1 of E27: flat budgets, no sleep/harvest/activations, cached
   link costs — the co-simulation must reproduce Net_sim on E20's
   topology and seed.  Self-contained per policy so each cross-check is
   its own schedulable shard. *)
let e27_net_rows policy =
  let open Amb_system in
  let rel = e27_rel in
  let rng = Amb_sim.Rng.create 20 in
  let topology = Amb_net.Topology.random rng ~nodes:30 ~width_m:250.0 ~height_m:250.0 in
  let budget = Energy.joules 20.0 in
  let flat =
    {
      Fleet.name = "flat 20 J";
      activation_energy = Energy.zero;
      sleep_power = Power.zero;
      supply = Supply.make ~name:"flat budget" ~regulator_efficiency:1.0 ();
      report_period = Some (Time_span.seconds 30.0);
      budget_override = Some budget;
    }
  in
  let fleet = Fleet.homogeneous ~topology ~sink:0 ~node:flat () in
  (* Horizon at 3x the closed-form depletion estimate, as in E20, so
     deaths land well inside the run. *)
  let analytic_rounds =
    Amb_net.Flow.simulate_depletion fleet.Fleet.router ~policy ~budget:(fun _ -> budget)
      ~sink:0 ~rebuild_every:500.0
  in
  let horizon = Time_span.scale (3.0 *. analytic_rounds) (Time_span.seconds 30.0) in
  let net_cfg =
    Amb_net.Net_sim.config ~router:fleet.Fleet.router ~sink:0 ~policy
      ~report_period:(Time_span.seconds 30.0) ~budget:(fun _ -> budget) ~horizon ()
  in
  let reference = Amb_net.Net_sim.run net_cfg ~seed:20 in
  let cosim_cfg = Cosim.config ~fleet ~policy ~horizon () in
  let o = Cosim.run cosim_cfg ~seed:20 in
  let name = Amb_net.Routing.policy_name policy in
  let death_row =
    match (reference.Amb_net.Net_sim.first_death, o.Cosim.first_death) with
    | Some a, Some b ->
      [ txt (name ^ " first death"); Report.cell_time a; Report.cell_time b;
        Report.cell_percent (rel (Time_span.to_seconds a) (Time_span.to_seconds b));
      ]
    | _ -> [ txt (name ^ " first death"); txt "none"; txt "none"; txt "-" ]
  in
  [ [ txt (name ^ " delivery");
      Report.cell_percent reference.Amb_net.Net_sim.delivery_ratio;
      Report.cell_percent o.Cosim.delivery_ratio;
      Report.cell_percent (rel reference.Amb_net.Net_sim.delivery_ratio o.Cosim.delivery_ratio);
    ];
    death_row;
  ]

(* Part 2 of E27: a single leaf whose activation carries the whole duty
   cycle (link layer off) must reproduce Lifetime_sim's battery
   lifetime. *)
let e27_lifetime_row () =
  let open Amb_system in
  let rel = e27_rel in
  let node = Reference_designs.microwatt_node () in
  let profile = Node_model.duty_profile node Reference_designs.microwatt_activation in
  let cell =
    Battery.make ~name:"scaled coin cell" ~chemistry:Battery.Lithium_coin ~voltage_v:3.0
      ~capacity_mah:0.5 ~rated_current_ma:0.1 ~peukert_exponent:1.0
      ~self_discharge_per_year:0.0 ~max_continuous_current_ma:30.0 ~mass_g:1.0
  in
  let supply = Supply.battery_only ~name:"scaled coin cell" cell in
  let life_cfg =
    Lifetime_sim.config ~profile ~supply
      ~activation_traffic:(Amb_workload.Traffic.periodic (Time_span.seconds 30.0))
      ~horizon:(Time_span.days 30.0) ()
  in
  let reference = Lifetime_sim.run life_cfg ~seed:7 in
  let single =
    {
      Fleet.name = "uW leaf (full cycle)";
      activation_energy = profile.Duty_cycle.cycle_energy;
      sleep_power = profile.Duty_cycle.sleep_power;
      supply;
      report_period = Some (Time_span.seconds 30.0);
      budget_override = None;
    }
  in
  let star = Amb_net.Topology.star ~leaves:1 ~radius_m:10.0 in
  let single_fleet = Fleet.homogeneous ~topology:star ~sink:0 ~node:single () in
  let single_cfg =
    Cosim.config ~fleet:single_fleet ~link:Link_layer.Off ~horizon:(Time_span.days 30.0) ()
  in
  let o = Cosim.run single_cfg ~seed:7 in
  let leaf_death =
    match List.assoc_opt 1 o.Cosim.deaths with
    | Some t -> t
    | None -> Time_span.days 30.0
  in
  [ txt "single-leaf lifetime";
    Report.cell_time reference.Lifetime_sim.lifetime;
    Report.cell_time leaf_death;
    Report.cell_percent
      (rel (Time_span.to_seconds reference.Lifetime_sim.lifetime)
         (Time_span.to_seconds leaf_death));
  ]

let e27_assemble rows =
  Report.make
    ~title:"E27: co-simulation degenerate-config cross-checks (vs Net_sim E20, Lifetime_sim E12)"
    ~header:[ "check"; "reference"; "co-simulation"; "rel. error" ]
    rows
    ~notes:
      [ "flat-budget fleet: same topology, seed and report phases as Net_sim - acceptance <2%";
        "single-leaf fleet: radio off, activation = full duty cycle - lifetime within one report period";
      ]

let e27 () =
  e27_assemble
    (e27_net_rows Amb_net.Routing.Min_hop
    @ e27_net_rows Amb_net.Routing.Min_energy
    @ [ e27_lifetime_row () ])

(* ------------------------------------------------------------------ *)
(* E28 — the extended taxonomy: four device classes (CS-D)             *)

let e28 () =
  let row cls =
    let lo, hi = Device_class.band cls in
    [ txt (Device_class.name cls);
      txt (Printf.sprintf "%s .. %s" (Power.to_string lo) (Power.to_string hi));
      Report.cell_power (Device_class.average_budget cls);
      Report.cell_power (Device_class.peak_budget cls);
      txt (Device_class.energy_source cls);
      (match Device_class.lifetime_target cls with
      | Some t -> Report.cell_time t
      | None ->
        txt
          (if cls = Device_class.Nanowatt then "unlimited (field-powered)"
           else "n/a (mains)"));
      txt (String.concat ", " (Device_class.typical_functions cls));
    ]
  in
  Report.make ~title:"E28: the four device classes (keynote taxonomy + Ambient-IoT tag)"
    ~header:
      [ "class"; "power band"; "avg budget"; "peak budget"; "energy source";
        "lifetime target"; "functions" ]
    (List.map row Device_class.all)
    ~notes:
      [ "challenges: "
        ^ String.concat " | "
            (List.map
               (fun c -> Device_class.short_name c ^ ": " ^ Device_class.design_challenge c)
               Device_class.all);
        "the nW tag sits below the keynote's taxonomy: batteryless, reader-powered, \
         no transmitter of its own";
      ]

(* ------------------------------------------------------------------ *)
(* E29 — A-IoT blocks on the power-information graph (CS-D)            *)

let e29 () =
  let base = Power_information.catalogue () in
  let aiot = Power_information.aiot_entries () in
  let union = base @ aiot in
  let frontier = Power_information.pareto_frontier union in
  let row e =
    [ txt e.Power_information.name;
      txt (Power_information.kind_name e.Power_information.kind);
      Report.cell_rate e.Power_information.info_rate;
      Report.cell_power e.Power_information.power;
      Report.cell_float (Power_information.efficiency e);
      txt (Device_class.short_name (Power_information.classify e));
      txt (if List.memq e frontier then "*" else "");
    ]
  in
  let nw_count =
    match List.assoc_opt Device_class.Nanowatt (Power_information.by_class union) with
    | Some entries -> List.length entries
    | None -> 0
  in
  let aiot_on_frontier = List.length (List.filter (fun e -> List.memq e frontier) aiot) in
  Report.make ~title:"E29: Ambient-IoT blocks on the power-information graph"
    ~header:[ "technology"; "kind"; "info rate"; "power"; "bits/J"; "class"; "Pareto" ]
    (List.map row aiot)
    ~notes:
      [ Printf.sprintf "%d of %d A-IoT entries sit on the union Pareto frontier"
          aiot_on_frontier (List.length aiot);
        Printf.sprintf "the nW band, empty on the E1 graph, now holds %d entries" nw_count;
        "* marks the frontier of the full E1 catalogue united with the A-IoT entries";
      ]

(* ------------------------------------------------------------------ *)
(* E30 — backscatter link budget, both sides of the transaction (CS-D) *)

let e30_link geometry =
  Backscatter.make ~name:"UHF reader link" ~geometry ~reader:Radio_frontend.rfid_reader
    ~tag:Radio_frontend.backscatter_uhf ()

let e30 () =
  let mono = e30_link Backscatter.Monostatic in
  let bist = e30_link (Backscatter.Bistatic { emitter_distance_m = 2.0 }) in
  let bits = 128.0 in
  let row d =
    let incident = Backscatter.tag_incident_dbm mono ~distance_m:d in
    let dc = Rf_harvester.rectified_dc Rf_harvester.cmos_charge_pump ~incident_dbm:incident in
    let mark ok = txt (if ok then "ok" else "X") in
    [ txt (Printf.sprintf "%.0f m" d);
      Report.cell_float ~digits:3 incident;
      Report.cell_power dc;
      Report.cell_float ~digits:3 (Backscatter.uplink_dbm mono ~distance_m:d);
      mark (Backscatter.downlink_closes mono ~distance_m:d);
      mark (Backscatter.uplink_closes mono ~distance_m:d);
      mark (Backscatter.closes bist ~distance_m:d);
    ]
  in
  let reader_j = Backscatter.reader_energy_per_report mono ~bits in
  let tag_j = Backscatter.tag_energy_per_report mono ~bits in
  let ratio = Energy.ratio reader_j tag_j in
  Report.make ~title:"E30: backscatter link budget vs reader-tag distance (36 dBm EIRP)"
    ~header:
      [ "distance"; "incident @tag (dBm)"; "harvested DC"; "uplink @reader (dBm)";
        "downlink"; "uplink"; "bistatic" ]
    (List.map row [ 1.0; 2.0; 5.0; 8.0; 12.0; 18.0; 25.0 ])
    ~notes:
      [ Printf.sprintf "range: monostatic %.1f m, bistatic (emitter at 2 m) %.1f m"
          (Backscatter.max_range mono) (Backscatter.max_range bist);
        Printf.sprintf "per 128-bit report: reader %s, tag %s - a %.0e:1 asymmetry"
          (Energy.to_string reader_j) (Energy.to_string tag_j) ratio;
        "tag downlink energy is identically zero: the reader's carrier is the downlink";
      ]

(* ------------------------------------------------------------------ *)
(* E31 — mixed fleet with batteryless tags through the co-sim (CS-D)   *)

let e31 () =
  let open Amb_system in
  let fleet =
    Fleet.make ~width_m:40.0 ~height_m:40.0 ~leaves:24 ~relays:3 ~tags:12 ~seed:28 ()
  in
  let cfg =
    Cosim.config ~fleet ~policy:Amb_net.Routing.Min_energy ~horizon:(Time_span.hours 24.0)
      ()
  in
  let o = Cosim.run cfg ~seed:28 in
  let r =
    System_metrics.report
      ~title:"E31: mixed fleet with batteryless tags (24 uW leaves, 3 mW relays, 12 nW tags, 24 h)"
      fleet o
  in
  let tier_consumed tier =
    Array.fold_left
      (fun acc i -> acc +. Fleet_ledger.consumed_j o.Cosim.agents i)
      0.0 (Fleet.tier_nodes fleet tier)
  in
  Report.make ~title:r.Report.title ~header:r.Report.header r.Report.rows
    ~notes:
      (r.Report.notes
      @ [ Printf.sprintf
            "reader-powered links: the W sink spent %s serving tags that spent only %s \
             themselves"
            (Energy.to_string (Energy.joules (tier_consumed Fleet.Sink)))
            (Energy.to_string (Energy.joules (tier_consumed Fleet.Tag)));
          "tags beyond the reader's backscatter range drop their reports - coverage is \
           set by reader placement, not tag energy";
        ])

(* ------------------------------------------------------------------ *)
(* E32 — scenario-matrix harness over the fleet co-sim                 *)

(* A small but multi-axis grid (2 policies x 2 fault plans x 2 seeds)
   through the declarative harness: the experiment both exercises the
   spec -> grid -> store pipeline and proves the cache contract by
   replaying the grid against the same store and counting hits. *)
let e32_spec_text =
  "name = E32\n\
   leaves = 12\n\
   relays = 2\n\
   hours = 12\n\
   policy = min-energy, min-hop\n\
   fault = none, crash:1@6\n\
   seeds = 7..8\n"

let e32 () =
  let open Amb_harness in
  let spec =
    match Scenario_spec.parse e32_spec_text with
    | Ok s -> s
    | Error msg -> failwith ("E32 spec: " ^ msg)
  in
  let store = Result_store.in_memory () in
  let rows, stats = Matrix.execute ~store spec in
  let _, replay = Matrix.execute ~store spec in
  let metric line name =
    match Report_io.Json.member "metrics" (Report_io.Json.parse line) with
    | Some m -> Report_io.Json.member name m
    | None -> None
  in
  let report_rows =
    List.map
      (fun (cell, line, _) ->
        let num name =
          match metric line name with
          | Some (Report_io.Json.Number v) -> v
          | _ -> Float.nan
        in
        [ txt (String.sub (Matrix.config_digest cell) 0 8);
          Report.cell_int cell.Matrix.seed;
          txt (Amb_net.Routing.policy_name cell.Matrix.policy);
          txt cell.Matrix.plan;
          Report.cell_percent (num "delivery_ratio");
          (match metric line "first_death_h" with
          | Some (Report_io.Json.Number h) -> Report.cell_time (Time_span.hours h)
          | _ -> txt "-");
          Report.cell_int (int_of_float (num "dead_at_end"));
        ])
      (Array.to_list rows)
  in
  Report.make
    ~title:
      "E32: scenario-matrix harness (2 policies x 2 fault plans x 2 seeds, 12 uW \
       leaves, 12 h)"
    ~header:[ "config"; "seed"; "policy"; "faults"; "delivery"; "first death"; "dead" ]
    report_rows
    ~notes:
      [ Printf.sprintf
          "first pass: %d cells ran, %d errors; each row is one amblib-matrix-row/1 \
           line keyed by (config digest, seed)"
          stats.Matrix.ran stats.Matrix.errors;
        Printf.sprintf
          "replaying the grid against the same store answered %d/%d cells from cache \
           and recomputed %d — the `ambient matrix`/`ambient serve` resume contract"
          replay.Matrix.cached replay.Matrix.cells replay.Matrix.ran;
      ]

(* ------------------------------------------------------------------ *)

(** [all] — experiment id, description, builder. *)
let all : (string * string * (unit -> Report.t)) list =
  [ ("E1", "power-information graph", e1);
    ("E2", "three device classes", e2);
    ("E3", "microwatt-node energy budget", e3);
    ("E4", "microwatt-node lifetime curve", e4);
    ("E5", "efficiency gaps vs roadmap", e5);
    ("E6", "DVFS vs race-to-idle", e6);
    ("E7", "media SoC across nodes", e7);
    ("E8", "radio energy per bit vs range", e8);
    ("E9", "MAC duty-cycling optimum", e9);
    ("E10", "functions mapped on network", e10);
    ("E11", "network lifetime vs routing", e11);
    ("E12", "simulation vs closed form", e12);
    ("E13", "closing the gap by architecture", e13);
    ("E14", "diurnal harvesting buffer", e14);
    ("E15", "bus vs NoC interconnect", e15);
    ("E16", "MAC simulation vs ALOHA", e16);
    ("E17", "regulator sleep floor", e17);
    ("E18", "leakage variability", e18);
    ("E19", "autonomy sensitivity", e19);
    ("E20", "packet-level net sim vs analytic", e20);
    ("E21", "scheduling sim vs bounds", e21);
    ("E22", "autonomous-node design space", e22);
    ("E23", "ten-year vision timeline", e23);
    ("E24", "2.4 GHz coexistence", e24);
    ("E25", "heterogeneous fleet co-simulation", e25);
    ("E26", "fault injection on the fleet", e26);
    ("E27", "co-simulation cross-checks", e27);
    ("E28", "four device classes (A-IoT)", e28);
    ("E29", "A-IoT on power-information graph", e29);
    ("E30", "backscatter link budget", e30);
    ("E31", "mixed fleet with nW tags", e31);
    ("E32", "scenario-matrix harness", e32);
    ("A1", "ablation: Peukert off", a1);
    ("A2", "ablation: Dennard vs leakage-aware", a2);
    ("A3", "ablation: radio start-up off", a3);
  ]

(** [find id] — builder for an experiment id (case-insensitive). *)
let find id =
  let target = String.uppercase_ascii id in
  List.find_opt (fun (eid, _, _) -> eid = target) all

(* ------------------------------------------------------------------ *)
(* Suite scheduling: shards and longest-expected-first ordering.       *)

(* A sharded experiment exposes its independent row groups so the suite
   scheduler can interleave them with other experiments' work.  Each
   shard rebuilds any shared context from its deterministic seed, so
   rows are byte-identical to the sequential builder's. *)
type shards = {
  pieces : (unit -> Cell.t list list) list;  (** ordered row groups *)
  assemble : Cell.t list list -> Report.t;  (** concatenated rows -> report *)
}

let shard_plan : (string * shards) list =
  [ ( "E11",
      { pieces = List.map (fun p () -> [ e11_row (e11_ctx ()) p ]) e11_policies;
        assemble = e11_assemble;
      } );
    ( "E12",
      { pieces = List.map (fun c () -> [ e12_row (e12_ctx ()) c ]) e12_cases;
        assemble = e12_assemble;
      } );
    ( "E14",
      { pieces = List.map (fun dp () -> [ e14_row (e14_ctx ()) dp ]) e14_profiles;
        assemble = e14_assemble;
      } );
    ( "E16",
      { pieces = List.mapi (fun i g () -> e16_shard i g) e16_loads;
        assemble = e16_assemble;
      } );
    ( "E18",
      { pieces = List.map (fun node () -> [ e18_row ~jobs:1 node ]) Process_node.catalogue;
        assemble = e18_assemble;
      } );
    ( "E20",
      { pieces = List.map (fun p () -> [ e20_row (e20_ctx ()) p ]) e20_policies;
        assemble = e20_assemble;
      } );
    ( "E26",
      { pieces = List.init e26_scenario_count e26_shard; assemble = e26_assemble } );
    ( "E27",
      { pieces =
          [ (fun () -> e27_net_rows Amb_net.Routing.Min_hop);
            (fun () -> e27_net_rows Amb_net.Routing.Min_energy);
            (fun () -> [ e27_lifetime_row () ]);
          ];
        assemble = e27_assemble;
      } );
  ]

let shard_count id =
  match List.assoc_opt (String.uppercase_ascii id) shard_plan with
  | Some s -> List.length s.pieces
  | None -> 1

(* Static expected build costs (ns, from the checked-in bench snapshot's
   era), used to order work longest-first when no measured snapshot is
   supplied.  Unlisted experiments are near-instant analytic tables. *)
let static_expected_ns =
  [ ("E27", 1.2e9); ("E16", 5.4e8); ("E20", 3.8e8); ("E26", 2.7e8); ("E18", 1.0e8);
    ("E25", 5.0e7); ("E32", 4.0e7); ("E31", 3.0e7); ("E11", 2.9e7); ("E12", 2.0e7);
    ("E14", 1.5e7); ("E21", 8.0e6);
  ]

let expected_ns ~expected id =
  match match expected with Some f -> f id | None -> None with
  | Some ns -> ns
  | None -> ( match List.assoc_opt id static_expected_ns with Some ns -> ns | None -> 3.0e6)

(* A scheduled work item's result: either a whole report or one shard's
   rows. *)
type piece_result = P_report of Report.t | P_rows of Cell.t list list

(** [build_sharded ?jobs id] — build one experiment, spreading its
    shards (if any) over a domain pool.  [None] for unknown ids;
    byte-identical to the sequential builder. *)
let build_sharded ?(jobs = 1) id =
  match find id with
  | None -> None
  | Some (eid, _, builder) -> (
    match List.assoc_opt eid shard_plan with
    | None -> Some (builder ())
    | Some s ->
      let rows =
        if jobs <= 1 then List.map (fun piece -> piece ()) s.pieces
        else Amb_sim.Domain_pool.map_list ~jobs (fun piece -> piece ()) s.pieces
      in
      Some (s.assemble (List.concat rows)))

(** [run_all ?jobs ?expected ()] — build every report, in presentation
    order.

    With [jobs] > 1 the work runs on a {!Amb_sim.Domain_pool}, split at
    shard granularity (E26's five fault scenarios, E27's three
    cross-checks, E16's six load points, ... are individual pool tasks)
    and submitted longest-expected-first: the pool's workers pull tasks
    in submission order, so ordering by expected cost is greedy LPT
    scheduling and the long co-simulations no longer serialise at the
    tail.  [expected] maps an experiment id to its measured build time
    in ns (e.g. from a previous bench snapshot); the static table above
    is the fallback.  Every task is independent (each owns its RNG,
    engine and report buffers, seeded explicitly) and results are
    gathered at their submission index, so the output — ids, order and
    rendered reports — is byte-identical to the sequential run. *)
let run_all ?(jobs = 1) ?expected () =
  let build (id, desc, builder) = (id, desc, builder ()) in
  if jobs <= 1 then List.map build all
  else begin
    (* Flatten to (experiment index, shard index, expected ns, thunk). *)
    let tasks =
      List.concat
        (List.mapi
           (fun ei (id, _, builder) ->
             match List.assoc_opt id shard_plan with
             | None -> [ (ei, 0, expected_ns ~expected id, fun () -> P_report (builder ())) ]
             | Some s ->
               let per_shard =
                 expected_ns ~expected id /. Float.of_int (List.length s.pieces)
               in
               List.mapi
                 (fun si piece -> (ei, si, per_shard, fun () -> P_rows (piece ())))
                 s.pieces)
           all)
    in
    let order =
      List.stable_sort (fun (_, _, wa, _) (_, _, wb, _) -> Float.compare wb wa) tasks
    in
    let results =
      Amb_sim.Domain_pool.map_list ~jobs (fun (_, _, _, thunk) -> thunk ()) order
    in
    let table = Hashtbl.create (List.length results) in
    List.iter2 (fun (ei, si, _, _) r -> Hashtbl.replace table (ei, si) r) order results;
    List.mapi
      (fun ei (id, desc, _) ->
        match List.assoc_opt id shard_plan with
        | None -> (
          match Hashtbl.find table (ei, 0) with
          | P_report r -> (id, desc, r)
          | P_rows _ -> assert false)
        | Some s ->
          let rows =
            List.concat
              (List.mapi
                 (fun si _ ->
                   match Hashtbl.find table (ei, si) with
                   | P_rows rows -> rows
                   | P_report _ -> assert false)
                 s.pieces)
          in
          (id, desc, s.assemble rows))
      all
  end
