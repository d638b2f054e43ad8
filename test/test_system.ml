(* Tests for the lib/system co-simulation subsystem: fleet construction,
   determinism, degenerate cross-checks against Net_sim and Lifetime_sim,
   fault injection, engine trace ordering and energy conservation. *)

open Amb_units
open Amb_system

let check_float = Alcotest.(check (float 1e-9))

(* A small fleet with supercap-scale leaf buffers so deaths happen inside
   short horizons (mirrors the E25 tuning). *)
let small_fleet ?(leaves = 8) ?(relays = 2) ?(seed = 25) () =
  let leaf =
    { (Fleet.microwatt_leaf ()) with Fleet.budget_override = Some (Energy.joules 0.5) }
  in
  Fleet.make ~leaf ~leaves ~relays ~seed ()

let small_config ?faults fleet =
  Cosim.config ?faults ~fleet ~policy:Amb_net.Routing.Min_energy
    ~diurnal:Amb_energy.Day_profile.office_lighting ~horizon:(Time_span.hours 24.0) ()

(* --- Fleet construction --- *)

let test_fleet_shape () =
  let fleet = Fleet.make ~leaves:10 ~relays:3 ~seed:1 () in
  Alcotest.(check int) "node count" 14 (Fleet.node_count fleet);
  Alcotest.(check bool) "node 0 is the sink" true (Fleet.tier_of fleet 0 = Fleet.Sink);
  Alcotest.(check (list int)) "sink list" [ 0 ] (Fleet.nodes_of_tier fleet Fleet.Sink);
  Alcotest.(check (list int)) "relays follow the sink" [ 1; 2; 3 ]
    (Fleet.nodes_of_tier fleet Fleet.Relay);
  Alcotest.(check int) "leaf count" 10
    (List.length (Fleet.nodes_of_tier fleet Fleet.Sensor_leaf))

let test_fleet_layout_deterministic () =
  let a = Fleet.make ~leaves:6 ~relays:2 ~seed:9 () in
  let b = Fleet.make ~leaves:6 ~relays:2 ~seed:9 () in
  for i = 0 to Fleet.node_count a - 1 do
    check_float
      (Printf.sprintf "node %d distance" i)
      0.0
      (Amb_net.Topology.pair_distance a.Fleet.topology 0 i
      -. Amb_net.Topology.pair_distance b.Fleet.topology 0 i)
  done

let test_fleet_rejects_bad_counts () =
  Alcotest.check_raises "zero leaves, zero tags"
    (Invalid_argument "Fleet.make: need at least one leaf or tag") (fun () ->
      ignore (Fleet.make ~leaves:0 ~relays:1 ~seed:1 ()));
  Alcotest.check_raises "negative leaves" (Invalid_argument "Fleet.make: negative leaf count")
    (fun () -> ignore (Fleet.make ~leaves:(-1) ~relays:1 ~seed:1 ()));
  Alcotest.check_raises "negative relays" (Invalid_argument "Fleet.make: negative relay count")
    (fun () -> ignore (Fleet.make ~leaves:1 ~relays:(-1) ~seed:1 ()));
  Alcotest.check_raises "negative tags" (Invalid_argument "Fleet.make: negative tag count")
    (fun () -> ignore (Fleet.make ~leaves:1 ~relays:0 ~tags:(-1) ~seed:1 ()));
  Alcotest.check_raises "city negative tags" (Invalid_argument "Fleet.city: negative tag count")
    (fun () -> ignore (Fleet.city ~nodes:16 ~tags:(-1) ~seed:1 ()));
  Alcotest.check_raises "city too small" (Invalid_argument "Fleet.city: need at least four nodes")
    (fun () -> ignore (Fleet.city ~nodes:1 ~seed:1 ()))

(* NaN fails every comparison, so a NaN horizon or period used to pass
   the non-positive checks and an infinite one ran until killed: both
   are refused up front, for the horizon and both periods. *)
let test_config_rejects_non_finite () =
  let fleet = Fleet.make ~leaves:2 ~relays:1 ~seed:1 () in
  let h = Time_span.hours 1.0 in
  List.iter
    (fun (what, v) ->
      let span = Time_span.seconds v in
      let name = Printf.sprintf "%s %g" what v in
      Alcotest.check_raises (name ^ " horizon")
        (Invalid_argument "Cosim.config: non-finite horizon") (fun () ->
          ignore (Cosim.config ~fleet ~horizon:span ()));
      Alcotest.check_raises (name ^ " rebuild period")
        (Invalid_argument "Cosim.config: non-finite rebuild period") (fun () ->
          ignore (Cosim.config ~rebuild_period:span ~fleet ~horizon:h ()));
      Alcotest.check_raises (name ^ " accounting period")
        (Invalid_argument "Cosim.config: non-finite accounting period") (fun () ->
          ignore (Cosim.config ~accounting_period:span ~fleet ~horizon:h ())))
    [ ("nan", Float.nan); ("inf", Float.infinity); ("-inf", Float.neg_infinity) ];
  Alcotest.check_raises "zero horizon" (Invalid_argument "Cosim.config: non-positive horizon")
    (fun () -> ignore (Cosim.config ~fleet ~horizon:(Time_span.seconds 0.0) ()))

(* Degenerate shapes that must construct: a tags-only fleet (the sink
   serves nothing but backscatter tags) and the single-leaf minimum. *)
let test_fleet_degenerate_shapes () =
  let tags_only = Fleet.make ~leaves:0 ~relays:0 ~tags:3 ~seed:3 () in
  Alcotest.(check int) "tags-only node count" 4 (Fleet.node_count tags_only);
  Alcotest.(check int) "tags-only tag count" 3
    (Array.length (Fleet.tier_nodes tags_only Fleet.Tag));
  Alcotest.(check bool) "tags-only carries a tag link" true (tags_only.Fleet.tag_link <> None);
  let single = Fleet.make ~leaves:1 ~relays:0 ~seed:3 () in
  Alcotest.(check int) "single-leaf node count" 2 (Fleet.node_count single);
  Alcotest.(check bool) "tag-free fleet has no tag link" true (single.Fleet.tag_link = None)

(* Adding tags must not disturb the battery-node layout: the sink, relay
   and leaf positions of a tagged fleet match the tag-free fleet with the
   same seed bit-for-bit. *)
let test_fleet_tags_preserve_layout () =
  let a = Fleet.make ~leaves:6 ~relays:2 ~seed:9 () in
  let b = Fleet.make ~leaves:6 ~relays:2 ~tags:5 ~seed:9 () in
  for i = 0 to Fleet.node_count a - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "node %d tier" i)
      true
      (Fleet.tier_of a i = Fleet.tier_of b i);
    check_float
      (Printf.sprintf "node %d distance" i)
      0.0
      (Amb_net.Topology.pair_distance a.Fleet.topology 0 i
      -. Amb_net.Topology.pair_distance b.Fleet.topology 0 i)
  done

(* --- Reader-powered tariff: the tag's downlink costs it nothing and the
   reader's ledger is charged the exact Backscatter bill --- *)

let tag_fleet () = Fleet.make ~width_m:10.0 ~height_m:10.0 ~leaves:0 ~relays:0 ~tags:4 ~seed:7 ()

let test_tag_tariff_matches_link_budget () =
  let fleet = tag_fleet () in
  let bs = match fleet.Fleet.tag_link with Some l -> l | None -> Alcotest.fail "no tag link" in
  check_float "tag downlink energy is identically zero" 0.0
    (Energy.to_joules (Amb_radio.Backscatter.tag_downlink_energy bs));
  let is_tag i = Fleet.tier_of fleet i = Fleet.Tag in
  let is_reader i = Fleet.tier_of fleet i = Fleet.Sink in
  let link =
    Link_layer.create ~tag_link:(bs, is_tag, is_reader) ~router:fleet.Fleet.router
      ~mode:Link_layer.Cached ()
  in
  let bits = Amb_radio.Packet.total_bits fleet.Fleet.router.Amb_net.Routing.packet in
  let tag = (Fleet.tier_nodes fleet Fleet.Tag).(0) in
  let sink = fleet.Fleet.sink in
  check_float "reader pays the exact per-report carrier+listen bill"
    (Energy.to_joules (Amb_radio.Backscatter.reader_energy_per_report bs ~bits))
    (Link_layer.reader_cost_rx_j link);
  check_float "tag pays the exact detector+modulator bill"
    (Energy.to_joules (Amb_radio.Backscatter.tag_energy_per_report bs ~bits))
    (Link_layer.cost_tx_j link tag sink);
  check_float "tag edge weight prices the full reader-paid transaction"
    (Link_layer.cost_tx_j link tag sink +. Link_layer.reader_cost_rx_j link)
    (Link_layer.weight_j link sink tag);
  Alcotest.(check bool) "a tag can never be a parent" true
    (Float.is_nan (Link_layer.weight_j link tag sink));
  Alcotest.(check bool) "tag hops are flagged reader-powered" true (Link_layer.tag_hop link tag);
  Alcotest.(check bool) "reader hops are not" false (Link_layer.tag_hop link sink)

(* Whole-run energy conservation under the tariff: the sink's consumed
   energy is its sleep floor plus exactly one reader bill per delivered
   tag report, and the tags together pay only activations, their
   nanojoule modulator bills and their sleep floors. *)
let test_tag_fleet_reader_pays_the_radio_bill () =
  let fleet = tag_fleet () in
  let bs = Option.get fleet.Fleet.tag_link in
  let bits = Amb_radio.Packet.total_bits fleet.Fleet.router.Amb_net.Routing.packet in
  let horizon = Time_span.hours 6.0 in
  let cfg = Cosim.config ~fleet ~horizon () in
  let out = Cosim.run cfg ~seed:11 in
  Alcotest.(check bool) "tags report" true (out.Cosim.generated > 0);
  Alcotest.(check int) "every in-range report is delivered" out.Cosim.generated
    out.Cosim.delivered;
  Alcotest.(check int) "batteryless tags never die" 0 (List.length out.Cosim.deaths);
  let consumed i = Energy.to_joules (Node_agent.consumed_energy out.Cosim.agents.(i)) in
  let sleep_j cfg_tier =
    Power.to_watts cfg_tier.Fleet.sleep_power *. Time_span.to_seconds horizon
  in
  let reader_j = Energy.to_joules (Amb_radio.Backscatter.reader_energy_per_report bs ~bits) in
  let expected_sink =
    sleep_j fleet.Fleet.sink_cfg +. (float_of_int out.Cosim.delivered *. reader_j)
  in
  Alcotest.(check bool) "sink ledger = sleep + delivered reader bills" true
    (Si.approx_equal ~rel:1e-6 expected_sink (consumed fleet.Fleet.sink));
  let tag_tx_j = Energy.to_joules (Amb_radio.Backscatter.tag_energy_per_report bs ~bits) in
  let act_j = Energy.to_joules fleet.Fleet.tag.Fleet.activation_energy in
  let tag_nodes = Fleet.tier_nodes fleet Fleet.Tag in
  let tag_total = Array.fold_left (fun acc i -> acc +. consumed i) 0.0 tag_nodes in
  let expected_tags =
    (float_of_int (Array.length tag_nodes) *. sleep_j fleet.Fleet.tag)
    +. (float_of_int out.Cosim.generated *. (act_j +. tag_tx_j))
  in
  Alcotest.(check bool) "tag ledgers = sleep + activations + modulator bills" true
    (Si.approx_equal ~rel:1e-6 expected_tags tag_total);
  Alcotest.(check bool) "the asymmetry: reader pays >1000x the tag side" true
    (reader_j > 1000.0 *. tag_tx_j)

(* --- Co-simulation determinism --- *)

let test_cosim_deterministic_in_seed () =
  let fleet = small_fleet () in
  let a = Cosim.run (small_config fleet) ~seed:25 in
  let b = Cosim.run (small_config fleet) ~seed:25 in
  Alcotest.(check int) "generated" a.Cosim.generated b.Cosim.generated;
  Alcotest.(check int) "delivered" a.Cosim.delivered b.Cosim.delivered;
  Alcotest.(check int) "events" a.Cosim.events b.Cosim.events;
  Alcotest.(check bool) "deaths" true (a.Cosim.deaths = b.Cosim.deaths);
  check_float "energy spent" 0.0
    (Energy.to_joules a.Cosim.energy_spent -. Energy.to_joules b.Cosim.energy_spent);
  check_float "availability" a.Cosim.availability b.Cosim.availability

let test_cosim_seed_changes_phases () =
  let fleet = small_fleet () in
  let a = Cosim.run (small_config fleet) ~seed:1 in
  let b = Cosim.run (small_config fleet) ~seed:2 in
  (* Same fleet, different report phases: periodic generation keeps the
     coarse counters nearly identical, but the continuous energy ledger
     and death instants shift with the phases. *)
  Alcotest.(check bool) "different seeds diverge" true
    (Energy.to_joules a.Cosim.energy_spent <> Energy.to_joules b.Cosim.energy_spent
    || a.Cosim.deaths <> b.Cosim.deaths
    || a.Cosim.events <> b.Cosim.events)

(* --- Degenerate cross-check vs Net_sim --- *)

let flat_config budget =
  {
    Fleet.name = "flat";
    activation_energy = Energy.zero;
    sleep_power = Power.zero;
    supply = Amb_energy.Supply.make ~name:"flat" ~regulator_efficiency:1.0 ();
    report_period = Some (Time_span.seconds 30.0);
    budget_override = Some budget;
  }

let test_degenerate_matches_net_sim () =
  let rng = Amb_sim.Rng.create 5 in
  let topology = Amb_net.Topology.random rng ~nodes:12 ~width_m:200.0 ~height_m:200.0 in
  let budget = Energy.joules 0.5 in
  let fleet = Fleet.homogeneous ~topology ~sink:0 ~node:(flat_config budget) () in
  let policy = Amb_net.Routing.Min_energy in
  (* Horizon at 3x the closed-form depletion estimate (the E20/E27
     pattern) so first deaths land well inside the run. *)
  let analytic_rounds =
    Amb_net.Flow.simulate_depletion fleet.Fleet.router ~policy ~budget:(fun _ -> budget)
      ~sink:0 ~rebuild_every:500.0
  in
  let horizon = Time_span.scale (3.0 *. analytic_rounds) (Time_span.seconds 30.0) in
  let net_cfg =
    Amb_net.Net_sim.config ~router:fleet.Fleet.router ~sink:0 ~policy
      ~report_period:(Time_span.seconds 30.0) ~budget:(fun _ -> budget) ~horizon ()
  in
  let reference = Amb_net.Net_sim.run net_cfg ~seed:5 in
  let o = Cosim.run (Cosim.config ~fleet ~policy ~horizon ()) ~seed:5 in
  (* Same phases, same forwarding, same budgets: traffic counters must be
     exactly equal, not just close. *)
  Alcotest.(check int) "generated equal" reference.Amb_net.Net_sim.generated o.Cosim.generated;
  Alcotest.(check int) "delivered equal" reference.Amb_net.Net_sim.delivered o.Cosim.delivered;
  Alcotest.(check int) "dropped equal" reference.Amb_net.Net_sim.dropped o.Cosim.dropped;
  match (reference.Amb_net.Net_sim.first_death, o.Cosim.first_death) with
  | Some a, Some b ->
    let rel =
      Float.abs (Time_span.to_seconds a -. Time_span.to_seconds b)
      /. Time_span.to_seconds a
    in
    Alcotest.(check bool)
      (Printf.sprintf "first death within 2%% (rel %.4f)" rel)
      true (rel <= 0.02)
  | None, None -> Alcotest.fail "expected deaths within the horizon"
  | _ -> Alcotest.fail "only one simulator saw a death"

(* --- Degenerate cross-check vs Lifetime_sim --- *)

let test_single_leaf_matches_lifetime_sim () =
  let node = Amb_node.Reference_designs.microwatt_node () in
  let profile =
    Amb_node.Node_model.duty_profile node Amb_node.Reference_designs.microwatt_activation
  in
  let cell =
    Amb_energy.Battery.make ~name:"tiny cell" ~chemistry:Amb_energy.Battery.Lithium_coin
      ~voltage_v:3.0 ~capacity_mah:0.5 ~rated_current_ma:0.1 ~peukert_exponent:1.0
      ~self_discharge_per_year:0.0 ~max_continuous_current_ma:30.0 ~mass_g:1.0
  in
  let supply = Amb_energy.Supply.battery_only ~name:"tiny cell" cell in
  let life_cfg =
    Amb_node.Lifetime_sim.config ~profile ~supply
      ~activation_traffic:(Amb_workload.Traffic.periodic (Time_span.seconds 30.0))
      ~horizon:(Time_span.days 30.0) ()
  in
  let reference = Amb_node.Lifetime_sim.run life_cfg ~seed:7 in
  let single =
    {
      Fleet.name = "leaf (full cycle)";
      activation_energy = profile.Amb_node.Duty_cycle.cycle_energy;
      sleep_power = profile.Amb_node.Duty_cycle.sleep_power;
      supply;
      report_period = Some (Time_span.seconds 30.0);
      budget_override = None;
    }
  in
  let star = Amb_net.Topology.star ~leaves:1 ~radius_m:10.0 in
  let fleet = Fleet.homogeneous ~topology:star ~sink:0 ~node:single () in
  let cfg = Cosim.config ~fleet ~link:Link_layer.Off ~horizon:(Time_span.days 30.0) () in
  let o = Cosim.run cfg ~seed:7 in
  match List.assoc_opt 1 o.Cosim.deaths with
  | None -> Alcotest.fail "leaf survived a horizon Lifetime_sim dies in"
  | Some death ->
    let ref_s = Time_span.to_seconds reference.Amb_node.Lifetime_sim.lifetime in
    let rel = Float.abs (ref_s -. Time_span.to_seconds death) /. ref_s in
    Alcotest.(check bool)
      (Printf.sprintf "lifetime within 2%% (rel %.4f)" rel)
      true (rel <= 0.02)

(* --- Fault injection --- *)

let test_crash_fault_kills_at_instant () =
  let fleet = small_fleet () in
  let at = Time_span.hours 5.0 in
  let faults = [ Fault_plan.Node_crash { node = 1; at } ] in
  let o = Cosim.run (small_config ~faults fleet) ~seed:25 in
  match List.assoc_opt 1 o.Cosim.deaths with
  | None -> Alcotest.fail "crashed node not in the death list"
  | Some death ->
    check_float "death at the crash instant" (Time_span.to_seconds at)
      (Time_span.to_seconds death);
    Alcotest.(check bool) "agent marked crashed" true (Node_agent.is_crashed o.Cosim.agents.(1))

let test_battery_scale_hastens_death () =
  let fleet = small_fleet () in
  let baseline = Cosim.run (small_config fleet) ~seed:25 in
  let faults =
    Fleet.nodes_of_tier fleet Fleet.Sensor_leaf
    |> List.map (fun node -> Fault_plan.Battery_scale { node; scale = 0.5 })
  in
  let scaled = Cosim.run (small_config ~faults fleet) ~seed:25 in
  match (baseline.Cosim.first_death, scaled.Cosim.first_death) with
  | Some a, Some b ->
    Alcotest.(check bool) "halved buffers die sooner" true
      (Time_span.to_seconds b < Time_span.to_seconds a)
  | _, None -> Alcotest.fail "halved buffers must die within the horizon"
  | None, _ -> Alcotest.fail "baseline tuning must die within the horizon"

let test_link_fade_costs_energy () =
  (* Fading every sink-facing link makes all paths more expensive, so the
     fleet spends at least as much energy for the traffic it carries. *)
  let fleet = small_fleet ~leaves:5 ~relays:1 () in
  let base = Cosim.run (small_config fleet) ~seed:3 in
  let faults =
    List.init (Fleet.node_count fleet - 1) (fun i ->
        Fault_plan.Link_fade { a = 0; b = i + 1; db = 20.0; at = Time_span.hours 0.5 })
  in
  let faded = Cosim.run (small_config ~faults fleet) ~seed:3 in
  Alcotest.(check bool) "fade does not create free energy" true
    (Energy.to_joules faded.Cosim.energy_spent >= Energy.to_joules base.Cosim.energy_spent
    || faded.Cosim.delivered < base.Cosim.delivered)

let test_battery_variation_plan_shape () =
  let plan =
    Fault_plan.battery_variation ~process:Amb_tech.Process_node.n65 ~nodes:10 ~sink:0 ~seed:4 ()
  in
  Alcotest.(check int) "one fault per non-sink node" 9 (List.length plan);
  List.iter
    (function
      | Fault_plan.Battery_scale { node; scale } ->
        Alcotest.(check bool) "never the sink" true (node <> 0);
        Alcotest.(check bool) "positive scale" true (scale > 0.0)
      | _ -> Alcotest.fail "battery_variation yields only Battery_scale")
    plan

(* --- Engine trace ordering (satellite: ?trace in Sim.Engine) --- *)

let test_trace_records_schedule_before_fire () =
  let trace = Amb_sim.Trace.create ~capacity:100_000 () in
  let fleet = small_fleet ~leaves:4 ~relays:1 () in
  let at = Time_span.hours 5.0 in
  let faults = [ Fault_plan.Node_crash { node = 1; at } ] in
  let o = Cosim.run ~trace (small_config ~faults fleet) ~seed:25 in
  Alcotest.(check bool) "events executed" true (o.Cosim.events > 0);
  let entries = Amb_sim.Trace.to_list trace in
  (* Every fire is preceded by a matching schedule at an earlier-or-equal
     instant, and fire times are non-decreasing (the engine invariant). *)
  let seen_schedules = Hashtbl.create 64 in
  let last_fire = ref Float.neg_infinity in
  List.iter
    (fun { Amb_sim.Trace.time; label } ->
      match String.index_opt label ':' with
      | None -> ()
      | Some i -> (
        let tag = String.sub label 0 i in
        let name = String.sub label (i + 1) (String.length label - i - 1) in
        match tag with
        | "schedule" ->
          let count = Option.value (Hashtbl.find_opt seen_schedules name) ~default:0 in
          Hashtbl.replace seen_schedules name (count + 1)
        | "fire" ->
          Alcotest.(check bool)
            (Printf.sprintf "%s scheduled before firing" name)
            true
            (Option.value (Hashtbl.find_opt seen_schedules name) ~default:0 > 0);
          Alcotest.(check bool)
            (Printf.sprintf "fire times non-decreasing at %s" name)
            true (time >= !last_fire);
          last_fire := time
        | _ -> ()))
    entries;
  (* The crash fault fired at its instant, and the death it caused is
     recorded at the same time. *)
  Alcotest.(check bool) "crash fault fired" true
    (Amb_sim.Trace.count_matching trace "fire:fault:crash:1" > 0);
  Alcotest.(check bool) "death recorded" true
    (Amb_sim.Trace.count_matching trace "death:1" > 0);
  let crash_time =
    List.find_map
      (fun { Amb_sim.Trace.time; label } ->
        if label = "fire:fault:crash:1" then Some time else None)
      entries
  in
  let death_time =
    List.find_map
      (fun { Amb_sim.Trace.time; label } ->
        if label = "death:1" then Some time else None)
      entries
  in
  (match (crash_time, death_time) with
  | Some c, Some d -> check_float "death at the crash fire" c d
  | _ -> Alcotest.fail "missing crash or death entry");
  (* Reports fire before and after the crash: the fleet keeps running. *)
  let crash_s = Time_span.to_seconds at in
  let reports_before, reports_after =
    List.fold_left
      (fun (before, after) { Amb_sim.Trace.time; label } ->
        if String.length label >= 11 && String.sub label 0 11 = "fire:report" then
          if time < crash_s then (before + 1, after) else (before, after + 1)
        else (before, after))
      (0, 0) entries
  in
  Alcotest.(check bool) "reports before the crash" true (reports_before > 0);
  Alcotest.(check bool) "reports after the crash" true (reports_after > 0)

let test_trace_off_by_default () =
  let engine = Amb_sim.Engine.create () in
  Amb_sim.Engine.schedule engine (fun _ -> ()) ~delay:(Time_span.seconds 1.0);
  ignore (Amb_sim.Engine.run engine ~until:(Time_span.seconds 2.0));
  Alcotest.(check pass) "no trace, no crash" () ()

(* --- Net_sim energy conservation (satellite: residual in outcome) --- *)

let test_net_sim_energy_conservation () =
  let rng = Amb_sim.Rng.create 11 in
  let topology = Amb_net.Topology.random rng ~nodes:15 ~width_m:200.0 ~height_m:200.0 in
  let link =
    Amb_radio.Link_budget.make ~radio:Amb_circuit.Radio_frontend.low_power_uhf
      ~channel:Amb_radio.Path_loss.indoor ()
  in
  let router = Amb_net.Routing.make ~topology ~link ~packet:Amb_radio.Packet.sensor_report () in
  let budget_j = 3.0 in
  let cfg =
    Amb_net.Net_sim.config ~router ~sink:0 ~policy:Amb_net.Routing.Min_energy
      ~report_period:(Time_span.seconds 30.0)
      ~budget:(fun _ -> Energy.joules budget_j)
      ~horizon:(Time_span.days 2.0) ()
  in
  let o = Amb_net.Net_sim.run cfg ~seed:11 in
  Alcotest.(check int) "one residual per node" 15 (Array.length o.Amb_net.Net_sim.residual);
  let total_budget = budget_j *. 15.0 in
  let residual_sum =
    Array.fold_left (fun acc e -> acc +. Energy.to_joules e) 0.0 o.Amb_net.Net_sim.residual
  in
  let spent = Energy.to_joules o.Amb_net.Net_sim.energy_spent in
  let imbalance = Float.abs (total_budget -. (residual_sum +. spent)) /. total_budget in
  Alcotest.(check bool)
    (Printf.sprintf "budgets = residual + spent (rel %.2e)" imbalance)
    true
    (imbalance <= 1e-9);
  Array.iter
    (fun e ->
      (* A node dies on the hop that overdraws it, so residuals may dip
         just below zero — but never by more than one packet's energy,
         and never above the starting budget. *)
      Alcotest.(check bool) "residual within (-1 mJ, budget]" true
        (Energy.to_joules e >= -1e-3 && Energy.to_joules e <= budget_j +. 1e-12))
    o.Amb_net.Net_sim.residual

(* --- System metrics report --- *)

let test_system_report_well_formed () =
  let fleet = small_fleet ~leaves:4 ~relays:1 () in
  let o = Cosim.run (small_config fleet) ~seed:25 in
  let report = System_metrics.report fleet o in
  let width = List.length report.Amb_report.Report.header in
  Alcotest.(check bool) "has rows" true (report.Amb_report.Report.rows <> []);
  List.iter
    (fun row -> Alcotest.(check int) "row width matches header" width (List.length row))
    report.Amb_report.Report.rows;
  (* The typed report must survive the JSON pipeline. *)
  match Amb_report.Report_io.of_json (Amb_report.Report_io.to_json report) with
  | Ok round ->
    Alcotest.(check string) "digest stable across JSON round-trip"
      (Amb_report.Report_io.digest report)
      (Amb_report.Report_io.digest round)
  | Error msg -> Alcotest.fail ("report failed to round-trip: " ^ msg)

let suite =
  [ ("fleet shape", `Quick, test_fleet_shape);
    ("fleet layout deterministic", `Quick, test_fleet_layout_deterministic);
    ("fleet rejects bad counts", `Quick, test_fleet_rejects_bad_counts);
    ("config rejects non-finite spans", `Quick, test_config_rejects_non_finite);
    ("fleet degenerate shapes", `Quick, test_fleet_degenerate_shapes);
    ("tags preserve layout", `Quick, test_fleet_tags_preserve_layout);
    ("tag tariff matches link budget", `Quick, test_tag_tariff_matches_link_budget);
    ("reader pays the radio bill", `Quick, test_tag_fleet_reader_pays_the_radio_bill);
    ("cosim deterministic in seed", `Quick, test_cosim_deterministic_in_seed);
    ("cosim seed changes phases", `Quick, test_cosim_seed_changes_phases);
    ("degenerate fleet matches Net_sim", `Slow, test_degenerate_matches_net_sim);
    ("single leaf matches Lifetime_sim", `Slow, test_single_leaf_matches_lifetime_sim);
    ("crash fault kills at its instant", `Quick, test_crash_fault_kills_at_instant);
    ("halved batteries die sooner", `Quick, test_battery_scale_hastens_death);
    ("link fade costs energy", `Quick, test_link_fade_costs_energy);
    ("battery variation plan shape", `Quick, test_battery_variation_plan_shape);
    ("trace schedule precedes fire", `Quick, test_trace_records_schedule_before_fire);
    ("trace off by default", `Quick, test_trace_off_by_default);
    ("net sim conserves energy", `Quick, test_net_sim_energy_conservation);
    ("system report well-formed", `Quick, test_system_report_well_formed);
  ]
