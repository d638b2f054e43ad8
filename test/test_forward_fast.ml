(* Oracle for the forwarding fast path (Fleet_ledger + precomputed hop
   tariffs + the engine's indexed report channel).

   [Cosim.run_with_router] keeps two implementations of the hot loop:
   the historic per-object path (agents, per-hop Link_layer pricing,
   one closure per report event) and the struct-of-arrays path that
   city-scale runs switch to above [Cosim.default_fast_threshold].  The
   contract is bit-for-bit identity — not approximate agreement — so
   the oracle here forces both paths over the same randomised scenarios
   ([~fast_threshold:max_int] vs [~fast_threshold:0]) and compares
   every outcome field, every agent ledger, the death chronology and
   the full engine trace with NaN-safe bitwise float equality.  The
   fast path also runs under a 4-domain accounting pool, which must
   change nothing.

   Scenarios sweep the surface the fast path reimplements: mixed fleets
   (leaves + relays + batteryless tags on the reader-powered PHY),
   crash/fade/battery-scale fault plans (fades invalidate the
   precomputed tariffs mid-run), all three routing policies, and
   diurnal harvest income (the ledger's multiplier bitset).

   A final test pins the point of the exercise: the fast path's event
   loop must stay allocation-free, measured as minor words per event. *)

open Amb_units
open Amb_system

(* NaN-safe bitwise float equality: death instants are NaN while alive,
   and "same double" is the spec, not "close". *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_bits ctx a b =
  if not (same_bits a b) then
    Alcotest.failf "%s: %h <> %h" ctx a b

(* --- randomised scenarios -------------------------------------------- *)

let policies = [| Amb_net.Routing.Min_hop; Amb_net.Routing.Min_energy; Amb_net.Routing.Max_lifetime |]

let scenario ~trial =
  let rng = Amb_sim.Rng.create (4000 + trial) in
  let leaves = 16 + Amb_sim.Rng.int rng 24 in
  let relays = 2 + Amb_sim.Rng.int rng 3 in
  let tags = Amb_sim.Rng.int rng 10 in
  (* Supercap-scale leaf buffers so deaths happen inside the horizon
     and the death-handling paths (route repair, Max_lifetime reserve
     reads, death-tick sequential fallback) are actually exercised. *)
  let leaf =
    { (Fleet.microwatt_leaf ()) with
      Fleet.budget_override = Some (Energy.joules (0.3 +. (0.5 *. Amb_sim.Rng.float rng)))
    }
  in
  let fleet = Fleet.make ~leaf ~leaves ~relays ~tags ~seed:(100 + trial) () in
  let n = Fleet.node_count fleet in
  let hours lo span = Time_span.hours (lo +. (span *. Amb_sim.Rng.float rng)) in
  let node () = 1 + Amb_sim.Rng.int rng (n - 1) in
  let faults = ref [] in
  for _ = 1 to 1 + Amb_sim.Rng.int rng 3 do
    faults :=
      Fault_plan.Battery_scale { node = node (); scale = 0.6 +. (0.8 *. Amb_sim.Rng.float rng) }
      :: !faults
  done;
  for _ = 1 to 1 + Amb_sim.Rng.int rng 2 do
    faults := Fault_plan.Node_crash { node = node (); at = hours 0.5 6.0 } :: !faults
  done;
  for _ = 1 to 1 + Amb_sim.Rng.int rng 2 do
    let a = node () and b = node () in
    if a <> b then
      faults :=
        Fault_plan.Link_fade { a; b; db = 3.0 +. (9.0 *. Amb_sim.Rng.float rng); at = hours 1.0 5.0 }
        :: !faults
  done;
  let policy = policies.(trial mod 3) in
  let diurnal = if trial mod 2 = 0 then Some Amb_energy.Day_profile.office_lighting else None in
  let cfg =
    Cosim.config ~policy ?diurnal ~faults:!faults ~fleet ~horizon:(Time_span.hours 8.0) ()
  in
  (fleet, cfg)

(* One run at a given threshold.  Fades write per-distance energies into
   the routing memo, so every run gets a private clone — exactly what
   [Cosim.run_many] shards do — keeping the three runs independent. *)
let run_one ?pool ~fast_threshold fleet cfg ~seed =
  let trace = Amb_sim.Trace.create ~capacity:200_000 () in
  let router = Amb_net.Routing.with_private_memo fleet.Fleet.router in
  let outcome = Cosim.run_with_router ~trace ?pool ~fast_threshold ~router cfg ~seed in
  (outcome, trace)

(* --- bitwise comparison ---------------------------------------------- *)

let check_same ~ctx (a : Cosim.outcome) ta (b : Cosim.outcome) tb =
  let ck name = Printf.sprintf "%s: %s" ctx name in
  Alcotest.(check int) (ck "generated") a.generated b.generated;
  Alcotest.(check int) (ck "delivered") a.delivered b.delivered;
  Alcotest.(check int) (ck "dropped") a.dropped b.dropped;
  Alcotest.(check int) (ck "dead_at_end") a.dead_at_end b.dead_at_end;
  Alcotest.(check int) (ck "rebuilds") a.rebuilds b.rebuilds;
  Alcotest.(check int) (ck "events") a.events b.events;
  check_bits (ck "delivery_ratio") a.delivery_ratio b.delivery_ratio;
  check_bits (ck "availability") a.availability b.availability;
  check_bits (ck "mean_coverage") a.mean_coverage b.mean_coverage;
  check_bits (ck "energy_spent") (Energy.to_joules a.energy_spent)
    (Energy.to_joules b.energy_spent);
  check_bits (ck "energy_harvested")
    (Energy.to_joules a.energy_harvested)
    (Energy.to_joules b.energy_harvested);
  (match (a.first_death, b.first_death) with
  | None, None -> ()
  | Some x, Some y -> check_bits (ck "first_death") (Time_span.to_seconds x) (Time_span.to_seconds y)
  | _ -> Alcotest.failf "%s: first_death presence differs" ctx);
  Alcotest.(check int) (ck "death count") (List.length a.deaths) (List.length b.deaths);
  List.iter2
    (fun (na, ta) (nb, tb) ->
      Alcotest.(check int) (ck "death node") na nb;
      check_bits (ck "death instant") (Time_span.to_seconds ta) (Time_span.to_seconds tb))
    a.deaths b.deaths;
  Alcotest.(check int) (ck "agent count") (Array.length a.agents) (Array.length b.agents);
  Array.iteri
    (fun i ag ->
      let bg = b.agents.(i) in
      let ck name = Printf.sprintf "%s: agent %d %s" ctx i name in
      check_bits (ck "reserve") (Node_agent.reserve_j ag) (Node_agent.reserve_j bg);
      check_bits (ck "consumed") (Node_agent.consumed_j ag) (Node_agent.consumed_j bg);
      check_bits (ck "harvested") (Node_agent.harvested_j ag) (Node_agent.harvested_j bg);
      check_bits (ck "last_account") (Node_agent.last_account_s ag) (Node_agent.last_account_s bg);
      check_bits (ck "died_at") (Node_agent.died_at_s ag) (Node_agent.died_at_s bg);
      Alcotest.(check bool) (ck "crashed") (Node_agent.is_crashed ag) (Node_agent.is_crashed bg))
    a.agents;
  (* The trace is the event chronology itself: same instants, same
     labels, same order — this is what pins the (time, seq) event
     ordering and the lazily built "report:<n>" labels. *)
  Alcotest.(check int) (ck "trace length") (Amb_sim.Trace.recorded ta) (Amb_sim.Trace.recorded tb);
  List.iter2
    (fun (x : Amb_sim.Trace.entry) (y : Amb_sim.Trace.entry) ->
      Alcotest.(check string) (ck "trace label") x.label y.label;
      check_bits (ck "trace time at " ^ x.label) x.time y.time)
    (Amb_sim.Trace.to_list ta) (Amb_sim.Trace.to_list tb)

let prop_fast_path_oracle =
  QCheck.Test.make ~name:"fast path is bitwise identical to the historic path" ~count:12
    QCheck.small_nat (fun trial ->
      let fleet, cfg = scenario ~trial in
      let seed = 9000 + trial in
      let historic, t_hist = run_one ~fast_threshold:max_int fleet cfg ~seed in
      let fast, t_fast = run_one ~fast_threshold:0 fleet cfg ~seed in
      check_same ~ctx:(Printf.sprintf "trial %d seq" trial) historic t_hist fast t_fast;
      Amb_sim.Domain_pool.with_pool ~jobs:4 (fun pool ->
          let pooled, t_pool = run_one ~pool ~fast_threshold:0 fleet cfg ~seed in
          check_same ~ctx:(Printf.sprintf "trial %d jobs=4" trial) historic t_hist pooled t_pool);
      true)

(* --- parallel batch oracle ------------------------------------------- *)

(* Fleets of a few hundred nodes with tiny battery budgets, so deaths
   (and the route repairs they trigger) land inside the horizon while
   the pooled run shards its accounting ticks.  Report batches replay
   sequentially with or without a pool; crashes and fades cut the
   engine's drained batches short.  [test_account_all_pooled] below
   covers the tick's death fallback directly. *)
let big_scenario ~trial =
  let rng = Amb_sim.Rng.create (5200 + trial) in
  let leaves = 280 + Amb_sim.Rng.int rng 120 in
  let relays = 4 + Amb_sim.Rng.int rng 4 in
  let tags = Amb_sim.Rng.int rng 40 in
  let leaf =
    { (Fleet.microwatt_leaf ()) with
      Fleet.budget_override = Some (Energy.joules (0.03 +. (0.07 *. Amb_sim.Rng.float rng)))
    }
  in
  let fleet = Fleet.make ~leaf ~leaves ~relays ~tags ~seed:(700 + trial) () in
  let n = Fleet.node_count fleet in
  let node () = 1 + Amb_sim.Rng.int rng (n - 1) in
  let faults = ref [] in
  for _ = 1 to 2 do
    faults :=
      Fault_plan.Battery_scale { node = node (); scale = 0.5 +. Amb_sim.Rng.float rng }
      :: !faults
  done;
  faults := Fault_plan.Node_crash { node = node (); at = Time_span.hours 0.4 } :: !faults;
  (let a = node () and b = node () in
   if a <> b then
     faults := Fault_plan.Link_fade { a; b; db = 6.0; at = Time_span.hours 0.6 } :: !faults);
  let policy = policies.(trial mod 3) in
  let diurnal = if trial mod 2 = 0 then Some Amb_energy.Day_profile.office_lighting else None in
  let cfg =
    Cosim.config ~policy ?diurnal ~faults:!faults ~fleet ~horizon:(Time_span.hours 1.2) ()
  in
  (fleet, cfg)

let run_big ?pool fleet cfg ~seed =
  let trace = Amb_sim.Trace.create ~capacity:500_000 () in
  let router = Amb_net.Routing.with_private_memo fleet.Fleet.router in
  let outcome = Cosim.run_with_router ~trace ?pool ~fast_threshold:0 ~router cfg ~seed in
  (outcome, trace)

let prop_parallel_batch_oracle =
  QCheck.Test.make ~name:"parallel report batches are bitwise identical to sequential"
    ~count:2 QCheck.small_nat (fun trial ->
      let fleet, cfg = big_scenario ~trial in
      let seed = 9900 + trial in
      let seq, t_seq = run_big fleet cfg ~seed in
      Amb_sim.Domain_pool.with_pool ~jobs:4 (fun pool ->
          let before = Amb_sim.Domain_pool.parallel_batches () in
          let pooled, t_pool = run_big ~pool fleet cfg ~seed in
          if Amb_sim.Domain_pool.parallel_batches () = before then
            Alcotest.failf "big trial %d: the jobs=4 pool never dispatched a batch" trial;
          check_same ~ctx:(Printf.sprintf "big trial %d jobs=4" trial) seq t_seq pooled t_pool);
      true)

(* --- pooled accounting tick ------------------------------------------ *)

(* [Fleet_ledger.account_all ?pool] against the sequential tick on a
   small ledger: battery-only relays (one with a 1 J budget that dies in
   the second tick) interleaved with solar leaves on a diurnal income
   multiplier.  The death-free tick must commit on the pool; the tick
   with a death must fall back, firing the same callbacks in the same
   order — each callback snapshots every reserve, so a callback fired
   before or after the wrong node's settlement is caught — and both
   must leave every row bitwise equal. *)
let test_account_all_pooled () =
  let leaf = { (Fleet.microwatt_leaf ()) with Fleet.budget_override = Some (Energy.joules 1.0) } in
  let relay budget =
    { (Fleet.milliwatt_relay ()) with Fleet.budget_override = Some (Energy.joules budget) }
  in
  let mult = Amb_energy.Day_profile.(income_multiplier office_lighting) in
  let n = 7 and dying = 3 in
  let agents () =
    Array.init n (fun id ->
        let cfg = if id mod 2 = 0 then leaf else relay (if id = dying then 1.0 else 100.0) in
        Node_agent.create ~income_multiplier:mult ~id ~cfg ())
  in
  let ledger () = Fleet_ledger.of_agents ~income_multiplier:mult (agents ()) in
  let seq = ledger () and pooled = ledger () in
  let tick ?pool lg now =
    let calls = ref [] in
    Fleet_ledger.account_all ?pool lg ~now ~on_death:(fun i ->
        calls := (i, Array.init n (Fleet_ledger.reserve_j lg)) :: !calls);
    List.rev !calls
  in
  let check_rows ctx =
    let a = agents () and b = agents () in
    Fleet_ledger.write_back seq a;
    Fleet_ledger.write_back pooled b;
    Array.iteri
      (fun i x ->
        let y = b.(i) in
        let field name f = check_bits (Printf.sprintf "%s node %d %s" ctx i name) (f x) (f y) in
        field "reserve" Node_agent.reserve_j;
        field "consumed" Node_agent.consumed_j;
        field "harvested" Node_agent.harvested_j;
        field "last_account" Node_agent.last_account_s;
        field "died_at" Node_agent.died_at_s)
      a
  in
  let check_calls ctx expect a b =
    Alcotest.(check (list int)) (ctx ^ ": deaths") expect (List.map fst a);
    Alcotest.(check (list int)) (ctx ^ ": pooled deaths") expect (List.map fst b);
    List.iter2
      (fun (i, ra) (_, rb) ->
        Array.iteri
          (fun k r -> check_bits (Printf.sprintf "%s: reserve %d at death of %d" ctx k i) r rb.(k))
          ra)
      a b
  in
  Amb_sim.Domain_pool.with_pool ~jobs:3 (fun pool ->
      let run_tick ctx now ~dispatched ~expect =
        let a = tick seq now in
        let before = Amb_sim.Domain_pool.parallel_batches () in
        let b = tick ~pool pooled now in
        Alcotest.(check int) (ctx ^ ": batches on the pool") dispatched
          (Amb_sim.Domain_pool.parallel_batches () - before);
        check_calls ctx expect a b;
        check_rows ctx
      in
      (* Scan + commit on the pool. *)
      run_tick "death-free tick" 100.0 ~dispatched:2 ~expect:[];
      (* Scan on the pool, then the sequential fallback. *)
      run_tick "death tick" 3600.0 ~dispatched:1 ~expect:[ dying ])

(* --- allocation budget ----------------------------------------------- *)

let minor_words_per_event ~nodes ~hours =
  let fleet = Fleet.city ~nodes ~seed:3 () in
  let cfg = Cosim.config ~fleet ~horizon:(Time_span.hours hours) () in
  (* Warm once so lazy setup (routing memo fills, engine growth) is out
     of the measured run. *)
  ignore (Cosim.run_with_router ~fast_threshold:0 ~router:fleet.Fleet.router cfg ~seed:7);
  let before = Gc.minor_words () in
  let o = Cosim.run_with_router ~fast_threshold:0 ~router:fleet.Fleet.router cfg ~seed:7 in
  let per_event = (Gc.minor_words () -. before) /. Float.of_int o.Cosim.events in
  (* Per-run setup (ledger snapshot, tariff arrays, write_back) is a few
     words per NODE amortised over ~12 events each; the event loop
     itself must add nothing.  The historic path spends hundreds of
     words per event on boxed link costs and report closures. *)
  if per_event > 40.0 then
    Alcotest.failf "%d-node fast path allocates %.1f minor words/event (budget 40)" nodes
      per_event

(* 2 000 reporters keep the pending set on the engine's binary heap. *)
let test_minor_words_budget () = minor_words_per_event ~nodes:2000 ~hours:2.0

(* 8 000 reporters on the default 30 s period: the pending set crosses
   [Engine.default_calendar_threshold] (4 096) while the reports are
   armed and stays below the calendar's first resize (16 384), so the
   whole run rides the queue as the hand-over left it.  An untyped
   chain comparison (boxing both times at every step of a sorted bucket
   chain) cost over a thousand words per event here. *)
let test_minor_words_budget_calendar () = minor_words_per_event ~nodes:8000 ~hours:1.0

(* --- deaths in the middle of a walk ---------------------------------- *)

(* A diamond: the sink (0), relays 1 and 2 in range of it, and leaf 3
   in range of both relays but not of the sink, closer to relay 1 — so
   the min-energy tree routes 3 -> 1 -> 0.  Only the leaf reports; no
   sleep drain, no harvest and a lossless regulator, so reserves move
   only on charges and relay 1's (fault-scaled) capacity picks the very
   charge that kills it: the receive charge of the leaf's first report,
   or the transmit charge that forwards it.  Either way the death fires
   inside the walk, the repair re-parents the leaf onto relay 2, and
   the packet in flight is dropped. *)
let diamond ~capacity_j =
  let flat =
    {
      Fleet.name = "flat";
      activation_energy = Energy.zero;
      sleep_power = Power.zero;
      supply = Amb_energy.Supply.make ~name:"flat" ~regulator_efficiency:1.0 ();
      report_period = Some (Time_span.seconds 30.0);
      budget_override = Some (Energy.joules 1.0);
    }
  in
  let probe =
    Fleet.homogeneous
      ~topology:(Amb_net.Topology.star ~leaves:1 ~radius_m:1.0)
      ~sink:0 ~node:flat ()
  in
  let r = probe.Fleet.router.Amb_net.Routing.range_m in
  let at x y = { Amb_net.Topology.x = x *. r; y = (0.5 +. y) *. r } in
  let topology =
    Amb_net.Topology.of_positions ~width_m:(2.0 *. r) ~height_m:(2.0 *. r)
      [| at 0.0 0.0; at 0.6 0.0; at 0.6 (-0.45); at 1.2 0.0 |]
  in
  let base = Fleet.homogeneous ~topology ~sink:0 ~node:flat () in
  let fleet =
    { base with
      Fleet.tiers = [| Fleet.Sink; Fleet.Relay; Fleet.Relay; Fleet.Sensor_leaf |];
      (* per tier ordinal: leaves, relays, sink, tags *)
      tier_members = [| [| 3 |]; [| 1; 2 |]; [| 0 |]; [||] |];
      relay = { flat with Fleet.name = "relay"; report_period = None };
    }
  in
  let router = fleet.Fleet.router in
  let capacity_j =
    capacity_j ~rx_j:(Amb_net.Routing.receiver_energy_j router)
      ~tx_j:(Amb_net.Routing.sender_energy_j router 1 0)
  in
  (* The flat budget is 1 J, so the scale factor is the capacity. *)
  let faults = [ Fault_plan.Battery_scale { node = 1; scale = capacity_j } ] in
  (fleet, Cosim.config ~faults ~fleet ~horizon:(Time_span.hours 1.0) ())

let check_mid_walk_death ~ctx ~capacity_j () =
  let fleet, cfg = diamond ~capacity_j in
  let historic, t_hist = run_one ~fast_threshold:max_int fleet cfg ~seed:3 in
  let fast, t_fast = run_one ~fast_threshold:0 fleet cfg ~seed:3 in
  (* Counts, death instants, every ledger and the trace, bit for bit. *)
  check_same ~ctx historic t_hist fast t_fast;
  (* The scenario happened as designed, on both paths alike: relay 1
     died at the leaf's first report, that packet was the only drop,
     and relay 2 — which never reports — paid for every later hop. *)
  let first_report =
    List.find
      (fun (e : Amb_sim.Trace.entry) -> e.label = "fire:report:3")
      (Amb_sim.Trace.to_list t_fast)
  in
  List.iter
    (fun (path, (o : Cosim.outcome)) ->
      let ck name = Printf.sprintf "%s (%s): %s" ctx path name in
      (match o.deaths with
      | [ (1, at) ] ->
        check_bits (ck "death at the first report") first_report.time (Time_span.to_seconds at)
      | _ -> Alcotest.failf "%s: expected relay 1 to die, and only it" (ck "deaths"));
      Alcotest.(check int) (ck "dropped") 1 o.dropped;
      Alcotest.(check int) (ck "delivered") (o.generated - 1) o.delivered;
      Alcotest.(check bool) (ck "leaf re-parented onto relay 2") true
        (Node_agent.consumed_j o.agents.(2) > 0.0))
    [ ("historic", historic); ("fast", fast) ]

(* Relay 1 holds less than one receive charge. *)
let test_relay_dies_receiving =
  check_mid_walk_death ~ctx:"relay dies receiving" ~capacity_j:(fun ~rx_j ~tx_j:_ ->
      0.5 *. rx_j)

(* Relay 1 survives the receive charge and dies forwarding. *)
let test_sender_dies_forwarding =
  check_mid_walk_death ~ctx:"sender dies forwarding" ~capacity_j:(fun ~rx_j ~tx_j ->
      rx_j +. (0.5 *. tx_j))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_fast_path_oracle; prop_parallel_batch_oracle ]
  @ [ Alcotest.test_case "pooled account_all matches sequential" `Quick test_account_all_pooled;
      Alcotest.test_case "fast path minor words per event" `Quick test_minor_words_budget;
      Alcotest.test_case "fast path minor words per event on the calendar queue" `Quick
        test_minor_words_budget_calendar;
      Alcotest.test_case "relay dying on its receive charge" `Quick test_relay_dies_receiving;
      Alcotest.test_case "sender dying mid-walk" `Quick test_sender_dies_forwarding;
    ]
