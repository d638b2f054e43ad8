(* Factory monitoring: vibration-powered condition sensing.

   Run with:  dune exec examples/factory_monitoring.exe

   A machine hall carries 80 vibration-harvesting sensor nodes reporting
   bearing signatures to a gateway.  We (1) check vibration autonomy,
   (2) compare TDMA against preamble sampling for the periodic traffic,
   (3) pick the clustering fraction, and (4) run the packet-level
   network simulation to see the field's lifetime without harvesting. *)

open Amb_units

let () =
  print_endline "=== 1. Vibration autonomy on the machine floor ===";
  let income =
    Amb_energy.Harvester.output Amb_energy.Harvester.vibration_scavenger
      Amb_energy.Harvester.industrial_machinery
  in
  Printf.printf "  1 cm^3 scavenger on machinery: %s\n" (Power.to_string income);
  let node = Amb_node.Reference_designs.microwatt_node () in
  let act =
    (* Condition monitoring: a 512-point vibration capture and feature
       extraction, then a 32-byte report. *)
    Amb_node.Node_model.activation ~samples_per_sensor:512.0 ~compute_ops:60_000.0
      ~tx_bits:(Amb_radio.Packet.total_bits Amb_radio.Packet.sensor_report) ()
  in
  let profile = Amb_node.Node_model.duty_profile node act in
  (match
     Amb_energy.Lifetime.rate_for_autonomy
       ~cycle_energy:profile.Amb_node.Duty_cycle.cycle_energy
       ~sleep:profile.Amb_node.Duty_cycle.sleep_power ~income
   with
  | Some rate ->
    Printf.printf "  vibration power sustains %.2f captures/s (one per %.0f s is safe)\n" rate
      (1.0 /. (rate /. 10.0))
  | None -> print_endline "  sleep floor exceeds the vibration income");

  print_endline "\n=== 2. MAC choice for strictly periodic traffic ===";
  let radio = Amb_circuit.Radio_frontend.low_power_uhf in
  let packet = Amb_radio.Packet.sensor_report in
  let report_every = 60.0 in
  let lpl =
    let mac t = Amb_radio.Mac_duty_cycle.make ~radio ~t_wakeup:t ~packet () in
    let opt =
      Amb_radio.Mac_duty_cycle.optimal_wakeup
        (mac (Time_span.seconds 1.0))
        ~tx_rate:(1.0 /. report_every) ~rx_rate:0.0
    in
    Amb_radio.Mac_duty_cycle.average_power (mac opt) ~tx_rate:(1.0 /. report_every) ~rx_rate:0.0
  in
  let tdma =
    let mac =
      Amb_radio.Mac_tdma.make ~radio ~slot:(Time_span.milliseconds 10.0) ~slots_per_frame:6000
        ~sync_listen:(Time_span.milliseconds 5.0) ~clock:Amb_circuit.Clocking.watch_crystal ()
    in
    Amb_radio.Mac_tdma.average_power mac ~tx_slots:1 ~rx_slots:0
  in
  Printf.printf "  preamble sampling (optimal): %s\n" (Power.to_string lpl);
  Printf.printf "  TDMA (one slot per minute):  %s\n" (Power.to_string tdma);
  Printf.printf "  -> scheduled access wins for strictly periodic reporting\n";

  print_endline "\n=== 3. Clustering the hall ===";
  let cluster =
    Amb_net.Cluster.make ~nodes:80 ~field_m:60.0 ~sink_distance_m:80.0 ~e_elec_nj_per_bit:50.0
      ~e_amp_pj_per_bit_m2:100.0 ~bits_per_round:368.0 ()
  in
  let p = Amb_net.Cluster.optimal_head_fraction cluster in
  let clustered = Amb_net.Cluster.round_energy cluster ~head_fraction:p in
  let direct = Amb_net.Cluster.direct_energy cluster in
  Printf.printf "  optimal head fraction: %.1f%% (~%.0f heads)\n" (100.0 *. p) (p *. 80.0);
  Printf.printf "  per round: clustered %s vs direct %s (%.1fx better)\n"
    (Energy.to_string clustered) (Energy.to_string direct)
    (Energy.ratio direct clustered);

  print_endline "\n=== 4. Packet-level simulation (no harvesting, 50 J budgets) ===";
  let rng = Amb_sim.Rng.create 80 in
  let topology = Amb_net.Topology.random rng ~nodes:40 ~width_m:220.0 ~height_m:220.0 in
  let link = Amb_radio.Link_budget.make ~radio ~channel:Amb_radio.Path_loss.indoor () in
  let fleet =
    Amb_system.Fleet.homogeneous ~link ~packet ~topology ~sink:0
      ~node:
        (Amb_system.Fleet.flat ~budget:(Energy.joules 50.0)
           ~report_period:(Time_span.seconds report_every))
      ()
  in
  let cfg =
    Amb_system.Cosim.config ~fleet ~policy:Amb_net.Routing.Min_energy
      ~horizon:(Time_span.days 30.0) ()
  in
  let o = Amb_system.Cosim.run cfg ~seed:80 in
  Printf.printf "  30 days: %d reports generated, %d delivered (%.1f%%), %d nodes dead\n"
    o.Amb_system.Cosim.generated o.Amb_system.Cosim.delivered
    (100.0 *. o.Amb_system.Cosim.delivery_ratio)
    o.Amb_system.Cosim.dead_at_end;
  (match o.Amb_system.Cosim.first_death with
  | Some t -> Printf.printf "  first node died after %s\n" (Time_span.to_human_string t)
  | None -> print_endline "  no deaths within the month");
  Printf.printf "  network energy spent: %s\n" (Energy.to_string o.Amb_system.Cosim.energy_spent)
