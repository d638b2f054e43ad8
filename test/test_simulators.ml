(* Unit tests for the cross-checking simulators: packet-level network
   simulation (Net_sim) and preemptive scheduling (Edf_sim). *)

open Amb_units

(* --- Net_sim --- *)

open Amb_circuit
open Amb_radio
open Amb_net

let small_router seed nodes field =
  let rng = Amb_sim.Rng.create seed in
  let topology = Topology.random rng ~nodes ~width_m:field ~height_m:field in
  let link = Link_budget.make ~radio:Radio_frontend.low_power_uhf ~channel:Path_loss.indoor () in
  Routing.make ~topology ~link ~packet:Packet.sensor_report ()

let test_netsim_all_delivered_when_energised () =
  (* Generous budgets: nothing dies, everything is delivered. *)
  let router = small_router 1 10 80.0 in
  let cfg =
    Net_sim.config ~router ~sink:0 ~policy:Routing.Min_hop
      ~report_period:(Time_span.seconds 60.0)
      ~budget:(fun _ -> Energy.joules 1000.0)
      ~horizon:(Time_span.hours 6.0) ()
  in
  let o = Net_sim.run cfg ~seed:2 in
  Alcotest.(check bool) "traffic flowed" true (o.Net_sim.generated > 9 * 5);
  Alcotest.(check int) "nothing dropped" 0 o.Net_sim.dropped;
  Alcotest.(check int) "nobody died" 0 o.Net_sim.dead_at_end;
  Alcotest.(check int) "all delivered" o.Net_sim.generated o.Net_sim.delivered;
  Alcotest.(check bool) "no first death" true (o.Net_sim.first_death = None)

let test_netsim_death_matches_analytic () =
  let router = small_router 3 20 200.0 in
  let budget _ = Energy.joules 10.0 in
  let period = 30.0 in
  let rounds =
    Flow.simulate_depletion router ~policy:Routing.Min_hop ~budget ~sink:0 ~rebuild_every:1e9
  in
  let analytic_death = rounds *. period in
  let cfg =
    Net_sim.config ~router ~sink:0 ~policy:Routing.Min_hop
      ~report_period:(Time_span.seconds period) ~budget
      ~horizon:(Time_span.seconds (3.0 *. analytic_death)) ()
  in
  let o = Net_sim.run cfg ~seed:4 in
  match o.Net_sim.first_death with
  | None -> Alcotest.fail "a node must die before 3x the analytic time"
  | Some t ->
    let err = Float.abs (Time_span.to_seconds t -. analytic_death) /. analytic_death in
    Alcotest.(check bool) "within 10% of the closed form" true (err < 0.10)

let test_netsim_energy_accounting () =
  let router = small_router 5 8 60.0 in
  let cfg =
    Net_sim.config ~router ~sink:0 ~policy:Routing.Min_energy
      ~report_period:(Time_span.seconds 10.0)
      ~budget:(fun _ -> Energy.joules 1000.0)
      ~horizon:(Time_span.hours 1.0) ()
  in
  let o = Net_sim.run cfg ~seed:6 in
  (* Every delivered report cost at least one sender hop. *)
  let min_hop =
    match Routing.hop_energy router ~distance_m:1.0 with Some e -> Energy.to_joules e | None -> 0.0
  in
  Alcotest.(check bool) "spent at least deliveries x one hop" true
    (Energy.to_joules o.Net_sim.energy_spent >= Float.of_int o.Net_sim.delivered *. min_hop *. 0.5)

let test_netsim_deterministic () =
  let router = small_router 7 12 100.0 in
  let cfg =
    Net_sim.config ~router ~sink:0 ~policy:Routing.Min_hop
      ~report_period:(Time_span.seconds 20.0)
      ~budget:(fun _ -> Energy.joules 5.0)
      ~horizon:(Time_span.hours 2.0) ()
  in
  let a = Net_sim.run cfg ~seed:8 and b = Net_sim.run cfg ~seed:8 in
  Alcotest.(check int) "same deliveries" a.Net_sim.delivered b.Net_sim.delivered;
  Alcotest.(check int) "same deaths" a.Net_sim.dead_at_end b.Net_sim.dead_at_end

(* The fast simulator held to the plain one: [Cosim] on a flat-budget
   [Fleet.homogeneous] fleet (same topology, link and packet) against
   [Net_sim], which rebuilds the tree after every death and prices each
   hop on the spot.  Deep trees (a wide field), one small budget per
   fleet, a random sink and all three policies make deaths orphan
   multi-level subtrees many times per run.  Counts, the first-death
   instant, the dead count and every node's raw reserve agree bit for
   bit; the ledger reports a dead node's residual as 0 where [Net_sim]
   leaves it at or below 0.  [energy_spent] sums the same charges in a
   different order (per node, then over nodes), so it may differ by
   the summation error: at most [charges] x epsilon x [spent] in each
   run, where [charges] <= [spent] / (the cheapest charge).  Trials
   without a death are discarded after the comparison, and at least
   three quarters of them must have one. *)
let prop_cosim_equals_netsim =
  let open Amb_system in
  let policies = [| Routing.Min_hop; Routing.Min_energy; Routing.Max_lifetime |] in
  let count = 20 in
  QCheck.Test.make ~name:"cosim flat fleet equals netsim" ~count ~max_gen:count
    ~if_assumptions_fail:(`Fatal, 0.75) (QCheck.int_bound 9999) (fun trial ->
      let rng = Amb_sim.Rng.create (2600 + trial) in
      let nodes = 60 + Amb_sim.Rng.int rng 100 in
      let field = 400.0 +. (250.0 *. Amb_sim.Rng.float rng) in
      let budget = Energy.joules (0.05 +. (0.4 *. Amb_sim.Rng.float rng)) in
      let sink = Amb_sim.Rng.int rng nodes in
      let policy = policies.(trial mod 3) in
      let router = small_router (2700 + trial) nodes field in
      let report_period = Time_span.seconds 30.0 in
      let rebuild_period = Time_span.hours 1.5 and horizon = Time_span.hours 3.0 in
      let a =
        Net_sim.run
          (Net_sim.config ~router ~sink ~policy ~report_period
             ~budget:(fun _ -> budget)
             ~rebuild_period ~horizon ())
          ~seed:trial
      in
      let fleet =
        Fleet.homogeneous ~link:router.Routing.link ~packet:router.Routing.packet
          ~topology:router.Routing.topology ~sink
          ~node:(Fleet.flat ~budget ~report_period)
          ()
      in
      let b = Cosim.run (Cosim.config ~fleet ~policy ~rebuild_period ~horizon ()) ~seed:trial in
      let ledger = b.Cosim.agents in
      let bits = Int64.bits_of_float in
      let death o = Option.map (fun t -> bits (Time_span.to_seconds t)) o in
      let node_ok i r =
        let r = Energy.to_joules r in
        Int64.equal (bits r) (bits (Fleet_ledger.reserve_j ledger i))
        && (r > 0.0 || Fleet_ledger.residual_j ledger i = 0.0)
      in
      let spent_a = Energy.to_joules a.Net_sim.energy_spent in
      let spent_b = Energy.to_joules b.Cosim.energy_spent in
      let cheapest =
        Array.fold_left Float.min (Routing.receiver_energy_j router)
          router.Routing.cache.Routing.edge_tx_j
      in
      let charges = spent_a /. cheapest in
      let equal =
        a.Net_sim.generated = b.Cosim.generated
        && a.Net_sim.delivered = b.Cosim.delivered
        && a.Net_sim.dropped = b.Cosim.dropped
        && a.Net_sim.dead_at_end = b.Cosim.dead_at_end
        && death a.Net_sim.first_death = death b.Cosim.first_death
        && Array.for_all Fun.id (Array.mapi node_ok a.Net_sim.residual)
        && Float.abs (spent_a -. spent_b)
           <= 2.0 *. charges *. epsilon_float *. Float.max spent_a spent_b
      in
      equal && (QCheck.assume (a.Net_sim.dead_at_end > 0); true))

(* --- Edf_sim --- *)

open Amb_workload

let capacity = Frequency.megahertz 10.0

let task ~ops ~period_ms = Task.make ~name:"t" ~ops ~period:(Time_span.milliseconds period_ms) ()

let test_edf_light_set_clean () =
  let tasks = [ task ~ops:2e4 ~period_ms:10.0; task ~ops:3e4 ~period_ms:20.0 ] in
  let o =
    Edf_sim.run ~policy:Edf_sim.Earliest_deadline_first ~tasks ~capacity
      ~horizon:(Time_span.seconds 2.0)
  in
  Alcotest.(check int) "no misses" 0 o.Edf_sim.deadline_misses;
  (* U = 0.2 + 0.15 = 0.35 observed as busy fraction. *)
  Alcotest.(check bool) "busy ~ U" true (Float.abs (o.Edf_sim.busy_fraction -. 0.35) < 0.01);
  Alcotest.(check int) "all complete" o.Edf_sim.jobs_released o.Edf_sim.jobs_completed

let test_edf_exact_at_full_utilization () =
  (* U = 1.0 exactly: EDF schedules it, RM does not (non-harmonic). *)
  let tasks = [ task ~ops:5e4 ~period_ms:10.0; task ~ops:7.5e4 ~period_ms:15.0 ] in
  let edf =
    Edf_sim.run ~policy:Edf_sim.Earliest_deadline_first ~tasks ~capacity
      ~horizon:(Time_span.seconds 3.0)
  in
  Alcotest.(check int) "EDF clean at U=1" 0 edf.Edf_sim.deadline_misses;
  let rm =
    Edf_sim.run ~policy:Edf_sim.Rate_monotonic ~tasks ~capacity ~horizon:(Time_span.seconds 3.0)
  in
  Alcotest.(check bool) "RM misses at U=1 non-harmonic" true (rm.Edf_sim.deadline_misses > 0)

let test_edf_overload_misses () =
  let tasks = [ task ~ops:8e4 ~period_ms:10.0; task ~ops:6e4 ~period_ms:12.0 ] in
  (* U = 0.8 + 0.5 = 1.3. *)
  let o =
    Edf_sim.run ~policy:Edf_sim.Earliest_deadline_first ~tasks ~capacity
      ~horizon:(Time_span.seconds 2.0)
  in
  Alcotest.(check bool) "misses under overload" true (o.Edf_sim.deadline_misses > 0);
  Alcotest.(check bool) "processor saturated" true (o.Edf_sim.busy_fraction > 0.99);
  Alcotest.(check bool) "lateness recorded" true
    (Time_span.to_seconds o.Edf_sim.max_lateness > 0.0)

let test_rm_starvation_counted () =
  (* Overload under RM: the long-period task starves; its releases must
     still be counted as misses even though they never complete. *)
  let tasks =
    [ task ~ops:6e4 ~period_ms:10.0 (* U=0.6 *); task ~ops:5e4 ~period_ms:10.0 (* U=0.5 *);
      task ~ops:5e4 ~period_ms:100.0 (* starved *) ]
  in
  let o =
    Edf_sim.run ~policy:Edf_sim.Rate_monotonic ~tasks ~capacity ~horizon:(Time_span.seconds 2.0)
  in
  (* The 100 ms task releases ~20 times; each must be a miss. *)
  Alcotest.(check bool) "starved releases counted" true (o.Edf_sim.deadline_misses >= 19)

let test_simulation_agrees_with_analytic_tests () =
  (* Random-ish sets: EDF simulation is clean iff U <= 1. *)
  let sets =
    [ [ task ~ops:3e4 ~period_ms:7.0; task ~ops:2e4 ~period_ms:13.0 ];
      [ task ~ops:6e4 ~period_ms:9.0; task ~ops:4e4 ~period_ms:11.0 ];
      [ task ~ops:9e4 ~period_ms:10.0; task ~ops:3e4 ~period_ms:15.0 ];
    ]
  in
  List.iter
    (fun tasks ->
      let analytic = Scheduler.edf_schedulable tasks ~capacity in
      let simulated =
        Edf_sim.schedulable_in_simulation ~policy:Edf_sim.Earliest_deadline_first ~tasks
          ~capacity ~horizon:(Time_span.seconds 3.0)
      in
      Alcotest.(check bool)
        (Printf.sprintf "U=%.2f agreement" (Task.total_utilization tasks ~capacity))
        analytic simulated)
    sets

let test_edf_validation () =
  Alcotest.check_raises "empty set" (Invalid_argument "Edf_sim.run: empty task set") (fun () ->
      ignore
        (Edf_sim.run ~policy:Edf_sim.Earliest_deadline_first ~tasks:[] ~capacity
           ~horizon:(Time_span.seconds 1.0)))

let suite =
  [ ("netsim everything delivered", `Quick, test_netsim_all_delivered_when_energised);
    ("netsim death matches analytic", `Quick, test_netsim_death_matches_analytic);
    ("netsim energy accounting", `Quick, test_netsim_energy_accounting);
    ("netsim deterministic", `Quick, test_netsim_deterministic);
    ("edf light set clean", `Quick, test_edf_light_set_clean);
    ("edf exact at U=1", `Quick, test_edf_exact_at_full_utilization);
    ("edf overload misses", `Quick, test_edf_overload_misses);
    ("rm starvation counted", `Quick, test_rm_starvation_counted);
    ("sim agrees with analytic", `Quick, test_simulation_agrees_with_analytic_tests);
    ("edf validation", `Quick, test_edf_validation);
    QCheck_alcotest.to_alcotest prop_cosim_equals_netsim;
  ]
