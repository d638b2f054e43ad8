(* Oracle for the co-simulation's forwarding kernel ([Fleet_ledger]
   rows, precomputed hop tariffs and the engine's indexed report
   channel).

   [Cosim_reference.run] is the same model written the direct way: one
   [Node_agent] per node, every hop priced through [Link_layer], one
   closure per report stream.  The contract is bit-for-bit identity —
   not approximate agreement — so the oracle runs both over the same
   randomised scenarios and compares every outcome field, every agent
   ledger, the death chronology and the full engine trace with NaN-safe
   bitwise float equality.  [Cosim] also runs under a 4-domain
   accounting pool, which must change nothing.

   Scenarios sweep the surface the kernel reimplements: mixed fleets
   (leaves + relays + batteryless tags on the reader-powered PHY),
   crash/fade/battery-scale fault plans (fades invalidate the
   precomputed tariffs mid-run), all three routing policies, and
   diurnal harvest income (the ledger's multiplier bitset).  Random
   scenarios can miss a branch of the walk, so a four-node diamond
   pins each one deterministically: a death on the receive charge, a
   sender dying on its hop into the sink, a tag served by the sink as
   its reader, an orphaned sender, and a crash and a fade inside one
   ring drain.

   The allocation tests pin the point of the exercise: the event loop
   must stay allocation-free, measured as minor words per event. *)

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

(* The tree a scenario starts on: the initial [Min_energy] rebuild, on
   a standalone route tree over the run's link costs — at time 0 every
   node is alive, and battery scales change no link cost. *)
let initial_parents fleet =
  let router = fleet.Fleet.router in
  let link =
    Link_layer.create
      ?tag_link:
        (Option.map
           (fun bs ->
             ( bs,
               (fun i -> fleet.Fleet.tiers.(i) = Fleet.Tag),
               fun i -> fleet.Fleet.tiers.(i) = Fleet.Sink ))
           fleet.Fleet.tag_link)
      ~router ~mode:Link_layer.Cached ()
  in
  let n = Fleet.node_count fleet in
  let tree =
    Amb_net.Route_tree.create ~rows:(Amb_net.Routing.rows router) ~sink:fleet.Fleet.sink
  in
  Amb_net.Route_tree.rebuild tree ~weight:(Link_layer.weight_into link) ~alive:(fun _ -> true);
  Array.init n (Amb_net.Route_tree.parent tree)

let children prev =
  let kids = Array.make (Array.length prev) [] in
  Array.iteri (fun v p -> if p >= 0 then kids.(p) <- v :: kids.(p)) prev;
  kids

let rec descendants kids v = v :: List.concat_map (descendants kids) kids.(v)

let rec height kids v = List.fold_left (fun h c -> Stdlib.max h (1 + height kids c)) 0 kids.(v)

(* [Min_energy] is the policy whose deaths and worsened tree edges
   splice a subtree locally, so half the trials take it.  Of those, half
   keep the small 250 m fleet over 8 h, and the other half ([deep])
   spread a larger fleet over a wider field, where subtrees run several
   levels deep, over a 3 h horizon: they crash the three non-sink nodes
   with the tallest initial subtrees within the first 1.5 h, and their
   random crashes and fades are drawn on the same 8 h scale shrunk to
   the horizon, so every fault fires.  Office lighting is drawn
   independently of the policy and the shape. *)
let scenario ~trial =
  let rng = Amb_sim.Rng.create (4000 + trial) in
  let policy = policies.(match trial mod 4 with 0 -> 0 | 2 -> 2 | _ -> 1) in
  let deep = trial mod 4 = 3 in
  let horizon_h = if deep then 3.0 else 8.0 in
  let leaves = if deep then 110 + Amb_sim.Rng.int rng 60 else 16 + Amb_sim.Rng.int rng 24 in
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
  let side_m = if deep then 650.0 else 250.0 in
  let fleet =
    Fleet.make ~leaf ~leaves ~relays ~tags ~width_m:side_m ~height_m:side_m ~seed:(100 + trial) ()
  in
  let n = Fleet.node_count fleet in
  let hours lo span =
    Time_span.hours (horizon_h /. 8.0 *. (lo +. (span *. Amb_sim.Rng.float rng)))
  in
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
  if deep then begin
    let kids = children (initial_parents fleet) in
    let by_height =
      List.stable_sort
        (fun a b -> compare (height kids b) (height kids a))
        (List.filter (fun v -> v <> fleet.Fleet.sink) (List.init n Fun.id))
    in
    List.iteri
      (fun k node ->
        if k < 3 then
          let at = Time_span.hours (0.25 +. (0.5 *. Float.of_int k)) in
          faults := Fault_plan.Node_crash { node; at } :: !faults)
      by_height
  end;
  let diurnal =
    if (trial / 4) mod 2 = 0 then Some Amb_energy.Day_profile.office_lighting else None
  in
  let cfg =
    Cosim.config ~policy ?diurnal ~faults:!faults ~fleet ~horizon:(Time_span.hours horizon_h) ()
  in
  (fleet, cfg)

(* Fades write per-distance energies into the routing memo, so every
   run gets a private clone — exactly what [Cosim.run_many] shards do —
   keeping the runs independent. *)
let traced fleet run =
  let trace = Amb_sim.Trace.create ~capacity:500_000 () in
  let router = Amb_net.Routing.with_private_memo fleet.Fleet.router in
  (run trace router, trace)

let run_one ?pool fleet cfg ~seed =
  traced fleet (fun trace router -> Cosim.run_with_router ~trace ?pool ~router cfg ~seed)

let run_reference fleet cfg ~seed =
  traced fleet (fun trace router -> Cosim_reference.run ~trace ~router cfg ~seed)

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

(* A draw is [deep] with probability 1/4, and the deep trials are the
   ones whose subtrees run deep enough to expose a truncated subtree
   walk, so 24 draws miss all of them with probability (3/4)²⁴ ≈ 0.1 %. *)
let prop_fast_path_oracle =
  QCheck.Test.make ~name:"fast path is bitwise identical to the historic path" ~count:24
    QCheck.small_nat (fun trial ->
      let fleet, cfg = scenario ~trial in
      let seed = 9000 + trial in
      let reference, t_ref = run_reference fleet cfg ~seed in
      let fast, t_fast = run_one fleet cfg ~seed in
      check_same ~ctx:(Printf.sprintf "trial %d seq" trial) reference t_ref fast t_fast;
      Amb_sim.Domain_pool.with_pool ~jobs:4 (fun pool ->
          let pooled, t_pool = run_one ~pool fleet cfg ~seed in
          check_same ~ctx:(Printf.sprintf "trial %d jobs=4" trial) reference t_ref pooled t_pool);
      true)

(* --- CSR cities: the O(subtree) death repair ------------------------- *)

(* A [Min_energy] death repair finds its subtree by walking children
   down the CSR rows and re-syncs parents, tariffs and the coverage
   count for that subtree alone, while the reference rebuilds the tree,
   re-syncs every node and recounts every leaf after each update.  The
   cities here are larger than the fleets above, and their fault plans
   aim at the shapes that can go wrong, so each scenario is built from
   the tree the run starts on. *)

let city_leaf = Fleet.microwatt_leaf ~report_period:(Time_span.seconds 300.0) ()

(* A 1 100–1 500-node city with a fault plan built from its initial
   tree:
   - two sink neighbours crash, each orphaning a large subtree;
   - a node with descendants crashes late, after two of those
     descendants have run flat;
   - a few dozen weak relaying leaves die on report charges, so
     several deaths land inside one ring drain;
   - a fade worsens one tree edge (a local splice with a whole-fleet
     refresh).
   Returns the late crash and its flat descendants. *)
let city_scenario trial =
  let rng = Amb_sim.Rng.create (7100 + trial) in
  let nodes = 1100 + Amb_sim.Rng.int rng 400 in
  let tags = Amb_sim.Rng.int rng 40 in
  let fleet = Fleet.city ~leaf:city_leaf ~tags ~nodes ~seed:(300 + trial) () in
  let sink = fleet.Fleet.sink in
  let prev = initial_parents fleet in
  let kids = children prev in
  let at_h h = Time_span.hours h in
  let pick arr = arr.(Amb_sim.Rng.int rng (Array.length arr)) in
  let faults = ref [] in
  let add f = faults := f :: !faults in
  let sink_children = Array.of_list kids.(sink) in
  for k = 0 to 1 do
    add (Fault_plan.Node_crash { node = pick sink_children; at = at_h (0.3 +. (0.3 *. Float.of_int k)) })
  done;
  (* A node away from the sink with at least two battery-powered
     descendants; they run flat at their first charge. *)
  let below v =
    List.filter (fun d -> fleet.Fleet.tiers.(d) <> Fleet.Tag) (List.tl (descendants kids v))
  in
  let parents =
    Array.of_list
      (List.filter
         (fun v -> v <> sink && prev.(v) <> sink && List.length (below v) >= 2)
         (List.init (Array.length prev) Fun.id))
  in
  let late =
    if Array.length parents = 0 then None
    else begin
      let x = pick parents in
      let flat = List.filteri (fun i _ -> i < 2) (below x) in
      List.iter (fun node -> add (Fault_plan.Battery_scale { node; scale = 1e-9 })) flat;
      add (Fault_plan.Node_crash { node = x; at = at_h 0.85 });
      Some (x, flat)
    end
  in
  let leaves = Fleet.tier_nodes fleet Fleet.Sensor_leaf in
  (* Harvest income carries a leaf that only sends its own reports, so
     the weak ones are leaves that relay for others. *)
  let relaying =
    Array.of_list
      (List.filter
         (fun v -> kids.(v) <> [] && Option.map fst late <> Some v)
         (Array.to_list leaves))
  in
  for _ = 1 to 25 do
    add
      (Fault_plan.Battery_scale
         { node = pick relaying; scale = 10.0 ** (-8.0 +. Amb_sim.Rng.float rng) })
  done;
  (let child = pick leaves in
   if prev.(child) >= 0 then
     add (Fault_plan.Link_fade { a = child; b = prev.(child); db = 6.0; at = at_h 0.5 }));
  let cfg = Cosim.config ~fleet ~horizon:(Time_span.hours 1.0) ~faults:!faults () in
  (fleet, cfg, late)

(* Pairs of consecutive deaths with nothing but report fires between
   them in the trace: both happened inside one uninterrupted run of
   report events: ring drains with no closure event between them. *)
let deaths_between_reports trace =
  let pairs = ref 0 and after_death = ref false in
  List.iter
    (fun (e : Amb_sim.Trace.entry) ->
      if String.starts_with ~prefix:"death:" e.label then begin
        if !after_death then incr pairs;
        after_death := true
      end
      else if
        String.starts_with ~prefix:"fire:" e.label
        && not (String.starts_with ~prefix:"fire:report:" e.label)
      then after_death := false)
    (Amb_sim.Trace.to_list trace);
  !pairs

let prop_city_repair_oracle =
  QCheck.Test.make ~name:"CSR city death repairs match the reference bit for bit"
    ~count:4 QCheck.small_nat (fun trial ->
      let fleet, cfg, late = city_scenario trial in
      let ctx = Printf.sprintf "city trial %d (%d nodes)" trial (Fleet.node_count fleet) in
      let seed = 40 + trial in
      let reference, t_ref = run_reference fleet cfg ~seed in
      let fast, t_fast = run_one fleet cfg ~seed in
      check_same ~ctx reference t_ref fast t_fast;
      (* The scenario happened as designed. *)
      let deaths = List.length fast.deaths in
      if deaths < 10 then Alcotest.failf "%s: only %d deaths" ctx deaths;
      if deaths_between_reports t_fast < 1 then
        Alcotest.failf "%s: no two deaths inside one run of report events" ctx;
      Option.iter
        (fun (x, flat) ->
          let died v = List.assoc_opt v fast.deaths in
          match died x with
          | None -> Alcotest.failf "%s: %d never died" ctx x
          | Some at_x ->
            List.iter
              (fun v ->
                match died v with
                | Some at when Time_span.to_seconds at < Time_span.to_seconds at_x -> ()
                | _ -> Alcotest.failf "%s: %d did not die before its ancestor %d" ctx v x)
              flat)
        late;
      true)

(* --- repair counters --------------------------------------------------- *)

let run_counted fleet cfg =
  let phase = Cosim.phase_times ~clock:Sys.time in
  let outcome = Cosim.run_with_router ~phase ~router:fleet.Fleet.router cfg ~seed:5 in
  (outcome, phase)

let test_counters_quiet_run () =
  let fleet = Fleet.city ~leaf:city_leaf ~nodes:1200 ~seed:11 () in
  let cfg = Cosim.config ~fleet ~horizon:(Time_span.hours 9.0) () in
  let outcome, phase = run_counted fleet cfg in
  Alcotest.(check int) "no deaths" 0 (List.length outcome.deaths);
  Alcotest.(check int) "repairs" 0 phase.repairs;
  Alcotest.(check int) "reattached" 0 phase.reattached;
  (* The initial rebuild and the periodic ones at 4 h and 8 h. *)
  Alcotest.(check int) "full rebuilds" 3 phase.full_rebuilds;
  Alcotest.(check int) "every update counted" outcome.rebuilds
    (phase.full_rebuilds + phase.repairs)

(* A crash at 25 min, before any other update: the tree it splices is
   the initial one, so the subtree it re-attaches is the leaf and
   everything below it there. *)
let test_counters_one_leaf_death () =
  let fleet = Fleet.city ~leaf:city_leaf ~nodes:1200 ~seed:11 () in
  let kids = children (initial_parents fleet) in
  let size v = List.length (descendants kids v) in
  (* The leaf relaying for the most others. *)
  let leaves = Fleet.tier_nodes fleet Fleet.Sensor_leaf in
  let leaf = Array.fold_left (fun best v -> if size v > size best then v else best) leaves.(0) leaves in
  let cfg =
    Cosim.config ~fleet ~horizon:(Time_span.hours 1.0)
      ~faults:[ Fault_plan.Node_crash { node = leaf; at = Time_span.minutes 25.0 } ]
      ()
  in
  let outcome, phase = run_counted fleet cfg in
  Alcotest.(check (list int)) "only the crashed leaf died" [ leaf ] (List.map fst outcome.deaths);
  Alcotest.(check bool) "the leaf relays for others" true (size leaf > 1);
  Alcotest.(check int) "one splice" 1 phase.repairs;
  Alcotest.(check int) "its subtree re-attached" (size leaf) phase.reattached;
  Alcotest.(check int) "one full rebuild" 1 phase.full_rebuilds

(* --- pooled runs ----------------------------------------------------- *)

(* Fleets of a few hundred nodes with tiny battery budgets, so deaths
   (and the route repairs they trigger) land inside the horizon while
   the pooled run shards its accounting ticks.  Reports fire
   sequentially with or without a pool; crashes and fades cut the
   engine's ring drains short.  [test_account_all_pooled] below
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

let prop_pooled_ticks_oracle =
  QCheck.Test.make ~name:"pooled accounting ticks are bitwise identical to sequential"
    ~count:2 QCheck.small_nat (fun trial ->
      let fleet, cfg = big_scenario ~trial in
      let seed = 9900 + trial in
      let seq, t_seq = run_one fleet cfg ~seed in
      Amb_sim.Domain_pool.with_pool ~jobs:4 (fun pool ->
          let before = Amb_sim.Domain_pool.parallel_batches () in
          let pooled, t_pool = run_one ~pool fleet cfg ~seed in
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
  let diurnal = Amb_energy.Day_profile.office_lighting in
  let mult = Amb_energy.Day_profile.income_multiplier diurnal in
  let n = 7 and dying = 3 in
  let agents () =
    Array.init n (fun id ->
        let cfg = if id mod 2 = 0 then leaf else relay (if id = dying then 1.0 else 100.0) in
        Node_agent.create ~income_multiplier:mult ~id ~cfg ())
  in
  let ledger () = Fleet_ledger.of_agents ~diurnal (agents ()) in
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

(* --- diurnal lookup oracle --------------------------------------------- *)

(* [Day_profile.scale_at] reads a table built once by [make];
   [Fleet_ledger] evaluates the same table inside its accounting
   kernel.  Both must return the reference segment walk's double, bit
   for bit, at every time: random ones, negative ones (the wrap),
   exactly on and one ulp either side of each cumulative boundary,
   integer multiples of the period, the infinities and NaN. *)
let diurnal_gen =
  QCheck.Gen.(
    let segment =
      map2
        (fun seconds scale -> { Amb_energy.Day_profile.duration = Time_span.seconds seconds; scale })
        (float_range 1.0 50_000.0) (float_range 0.0 1.0)
    in
    pair
      (map (Amb_energy.Day_profile.make ~name:"gen") (list_size (int_range 1 6) segment))
      (list_size (int_range 1 20) (float_range (-1e7) 1e7)))

let oracle_times p random =
  let p_s = Time_span.to_seconds (Day_profile_reference.period p) in
  let bounds = Day_profile_reference.boundaries p in
  random
  @ List.concat_map (fun b -> [ b; Float.pred b; Float.succ b; -.b ]) (0.0 :: bounds)
  @ List.init 9 (fun k -> Float.of_int (k - 4) *. p_s)
  @ [ Float.infinity; Float.neg_infinity; Float.nan; 1e300; -1e300 ]

let diurnal_arb =
  QCheck.make
    ~print:(fun (p, times) ->
      Printf.sprintf "segments %s; times %s"
        (String.concat ","
           (List.map
              (fun s ->
                Printf.sprintf "%h*%h"
                  (Time_span.to_seconds s.Amb_energy.Day_profile.duration)
                  s.Amb_energy.Day_profile.scale)
              p.Amb_energy.Day_profile.segments))
        (String.concat "," (List.map (Printf.sprintf "%h") times)))
    diurnal_gen

let prop_scale_at_oracle =
  QCheck.Test.make ~name:"day-profile table lookup equals the segment walk bit for bit"
    ~count:300 diurnal_arb (fun (p, random) ->
      check_bits "period" (Time_span.to_seconds (Day_profile_reference.period p))
        (Time_span.to_seconds (Amb_energy.Day_profile.period p));
      List.iter
        (fun t ->
          let ctx = Printf.sprintf "scale_at %h" t in
          let expect = Day_profile_reference.scale_at p (Time_span.seconds t) in
          check_bits ctx expect (Amb_energy.Day_profile.scale_at p (Time_span.seconds t));
          check_bits ("income_multiplier " ^ ctx) expect
            (Amb_energy.Day_profile.income_multiplier p t))
        (oracle_times p random);
      true)

(* One solar leaf accounted by the agent (whose income multiplier is
   the reference walk) and by the ledger (whose kernel reads the
   profile's table): every ledger field must match.  A chain of steps
   through the oracle's instants, then one fresh pair per instant [t]
   settled at [2t] — the income is sampled at the interval midpoint,
   so that probe evaluates the profile exactly at [t], boundaries and
   period multiples included.  A 0.05 J buffer also crosses a death. *)
let prop_ledger_diurnal_oracle =
  QCheck.Test.make ~name:"ledger diurnal accounting equals the agent's bit for bit" ~count:100
    diurnal_arb (fun (p, random) ->
      let instants =
        List.sort_uniq Float.compare
          (List.filter (fun t -> Float.is_finite t && t >= 0.0 && t < 1e9) (oracle_times p random))
      in
      let mult t = Day_profile_reference.scale_at p (Time_span.seconds t) in
      List.iter
        (fun budget ->
          let cfg = { (Fleet.microwatt_leaf ()) with Fleet.budget_override = budget } in
          let pair () =
            let agent = Node_agent.create ~income_multiplier:mult ~id:0 ~cfg () in
            let twin = Node_agent.create ~income_multiplier:mult ~id:0 ~cfg () in
            (agent, twin, Fleet_ledger.of_agents ~diurnal:p [| twin |])
          in
          let step (agent, twin, ledger) ctx now =
            Node_agent.account agent ~now;
            Fleet_ledger.account ledger 0 ~now;
            Fleet_ledger.write_back ledger [| twin |];
            let field name f = check_bits (Printf.sprintf "%s %s" ctx name) (f agent) (f twin) in
            field "reserve" Node_agent.reserve_j;
            field "consumed" Node_agent.consumed_j;
            field "harvested" Node_agent.harvested_j;
            field "last_account" Node_agent.last_account_s;
            field "died_at" Node_agent.died_at_s
          in
          let chain = pair () in
          List.iter (fun now -> step chain (Printf.sprintf "chain at %h:" now) now) instants;
          List.iter
            (fun t -> step (pair ()) (Printf.sprintf "probe at %h:" t) (2.0 *. t))
            instants)
        [ None; Some (Energy.joules 0.05) ];
      true)

(* --- allocation budget ----------------------------------------------- *)

let minor_words_per_event ?diurnal ~nodes ~hours () =
  let fleet = Fleet.city ~nodes ~seed:3 () in
  let cfg = Cosim.config ?diurnal ~fleet ~horizon:(Time_span.hours hours) () in
  (* Warm once so lazy setup (routing memo fills, engine growth) is out
     of the measured run. *)
  ignore (Cosim.run_with_router ~router:fleet.Fleet.router cfg ~seed:7);
  let before = Gc.minor_words () in
  let o = Cosim.run_with_router ~router:fleet.Fleet.router cfg ~seed:7 in
  let per_event = (Gc.minor_words () -. before) /. Float.of_int o.Cosim.events in
  (* Per-run setup (agents, ledger snapshot, tariff arrays, write_back)
     is a few words per NODE amortised over ~12 events each; the event
     loop itself must add nothing.  A boxed tariff or a closure per
     report — what [Cosim_reference] does — costs hundreds of words per
     event.  A diurnal profile evaluated through a closure call boxes
     its time argument and result on every accounting touch. *)
  if per_event > 40.0 then
    Alcotest.failf "%d-node%s run allocates %.1f minor words/event (budget 40)" nodes
      (match diurnal with Some p -> " " ^ p.Amb_energy.Day_profile.name | None -> "")
      per_event

(* 2 000 reporters on the default 30 s period: one report ring. *)
let test_minor_words_budget () = minor_words_per_event ~nodes:2000 ~hours:2.0 ()

let test_minor_words_budget_diurnal () =
  minor_words_per_event ~diurnal:Amb_energy.Day_profile.office_lighting ~nodes:2000
    ~hours:2.0 ()

(* 8 000 reporters, the city's pending population: every re-arm is a
   ring append, so the per-event budget holds at city scale too.  (On
   the calendar queue these rings replaced, an untyped chain comparison
   that boxed both times at every step cost over a thousand words per
   event here.) *)
let test_minor_words_budget_rings () = minor_words_per_event ~nodes:8000 ~hours:1.0 ()

let test_minor_words_budget_rings_diurnal () =
  minor_words_per_event ~diurnal:Amb_energy.Day_profile.office_lighting ~nodes:8000
    ~hours:1.0 ()

(* A serve-sized cell — a sink, 2 relays and 10 leaves under office
   lighting — runs ~40 report events per node-hour, so per-run setup
   would swamp a per-event ratio.  Differencing a 12 h and a 6 h run of
   the same fleet cancels the setup: what is left is the event loop,
   plus a few words per accounting tick and rebuild, and must stay near
   zero per event.  Reads 0.044 words per event; 0.24 under the batch
   drain the in-place ring drain replaced. *)
let test_minor_words_small_fleet () =
  let fleet = Fleet.make ~leaves:10 ~relays:2 ~seed:5 () in
  let measure hours =
    let cfg =
      Cosim.config ~diurnal:Amb_energy.Day_profile.office_lighting ~fleet
        ~horizon:(Time_span.hours hours) ()
    in
    ignore (Cosim.run cfg ~seed:7);
    let before = Gc.minor_words () in
    let o = Cosim.run cfg ~seed:7 in
    (Gc.minor_words () -. before, o.Cosim.events)
  in
  let w6, e6 = measure 6.0 in
  let w12, e12 = measure 12.0 in
  if e12 - e6 < 3000 then Alcotest.failf "only %d events between the horizons" (e12 - e6);
  let per_event = (w12 -. w6) /. Float.of_int (e12 - e6) in
  if per_event > 0.1 then
    Alcotest.failf "13-node run allocates %.3f minor words per event past setup (budget 0.1)"
      per_event

(* --- one deterministic case per branch of the walk -------------------- *)

(* A diamond: the sink (0), relays 1 and 2 in range of it, and node 3
   in range of both relays but not of the sink, closer to relay 1 — so
   the min-energy tree routes 3 -> 1 -> 0.  No sleep drain, no harvest
   and a lossless regulator, so reserves move only on charges.  The
   inputs select the branch under test:
   - [capacity_j] scales relay 1's 1 J budget to a capacity computed
     from the receive and transmit tariffs, picking the very charge
     that kills it inside a walk;
   - [node3] turns node 3 into a tag within half the reader range of
     the sink ([`Tag]) or moves it out of everyone's range
     ([`Orphan]);
   - [relays_report] gives the relays their own 30 s report streams, so
     one ring drain fires three reports;
   - [faults] are appended to the plan. *)
let diamond ?capacity_j ?(node3 = `Leaf) ?(relays_report = false) ?(faults = []) () =
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
  let reader_link = Fleet.default_tag_link () in
  let at x y = { Amb_net.Topology.x = x *. r; y = (0.5 +. y) *. r } in
  let third =
    match node3 with
    | `Leaf -> at 1.2 0.0
    | `Orphan -> at 1.9 1.4
    | `Tag ->
      { (at 0.0 0.0) with
        Amb_net.Topology.x = 0.5 *. Amb_radio.Backscatter.max_range reader_link }
  in
  let topology =
    Amb_net.Topology.of_positions ~width_m:(2.0 *. r) ~height_m:(2.0 *. r)
      [| at 0.0 0.0; at 0.6 0.0; at 0.6 (-0.45); third |]
  in
  let base = Fleet.homogeneous ~topology ~sink:0 ~node:flat () in
  let tag = node3 = `Tag in
  let fleet =
    { base with
      Fleet.tiers =
        [| Fleet.Sink; Fleet.Relay; Fleet.Relay; (if tag then Fleet.Tag else Fleet.Sensor_leaf) |];
      (* per tier ordinal: leaves, relays, sink, tags *)
      tier_members =
        (if tag then [| [||]; [| 1; 2 |]; [| 0 |]; [| 3 |] |]
         else [| [| 3 |]; [| 1; 2 |]; [| 0 |]; [||] |]);
      relay =
        { flat with
          Fleet.name = "relay";
          report_period = (if relays_report then flat.Fleet.report_period else None) };
      tag_link = (if tag then Some reader_link else None);
    }
  in
  let router = fleet.Fleet.router in
  let scaled =
    match capacity_j with
    | None -> []
    | Some capacity_j ->
      (* The flat budget is 1 J, so the scale factor is the capacity. *)
      let scale =
        capacity_j ~rx_j:(Amb_net.Routing.receiver_energy_j router)
          ~tx_j:(Amb_net.Routing.sender_energy_j router 1 0)
      in
      [ Fault_plan.Battery_scale { node = 1; scale } ]
  in
  (fleet, Cosim.config ~faults:(scaled @ faults) ~fleet ~horizon:(Time_span.hours 1.0) ())

(* The run against the reference, bit for bit: counts, death instants,
   every ledger and the trace.  Returns the run for the per-case
   checks that the scenario happened as designed. *)
let check_walk ~ctx (fleet, cfg) =
  let reference, t_ref = run_reference fleet cfg ~seed:3 in
  let run, t_run = run_one fleet cfg ~seed:3 in
  check_same ~ctx reference t_ref run t_run;
  (run, t_run)

(* Relay 1 dies inside the walk of the leaf's first report: the repair
   re-parents the leaf onto relay 2 and the packet in flight is
   dropped. *)
let check_mid_walk_death ~ctx ~capacity_j () =
  let o, trace = check_walk ~ctx (diamond ~capacity_j ()) in
  let ck name = Printf.sprintf "%s: %s" ctx name in
  let first_report =
    List.find
      (fun (e : Amb_sim.Trace.entry) -> e.label = "fire:report:3")
      (Amb_sim.Trace.to_list trace)
  in
  (match o.deaths with
  | [ (1, at) ] ->
    check_bits (ck "death at the first report") first_report.time (Time_span.to_seconds at)
  | _ -> Alcotest.failf "%s: expected relay 1 to die, and only it" (ck "deaths"));
  Alcotest.(check int) (ck "dropped") 1 o.dropped;
  Alcotest.(check int) (ck "delivered") (o.generated - 1) o.delivered;
  (* Relay 2 never reports, so it paid for every later hop. *)
  Alcotest.(check bool) (ck "leaf re-parented onto relay 2") true
    (Node_agent.consumed_j o.agents.(2) > 0.0);
  (* The sink listens for free, also on the hop whose sender died. *)
  check_bits (ck "sink never charged") 0.0 (Node_agent.consumed_j o.agents.(0))

(* Relay 1 holds less than one receive charge. *)
let test_relay_dies_receiving =
  check_mid_walk_death ~ctx:"relay dies receiving" ~capacity_j:(fun ~rx_j ~tx_j:_ ->
      0.5 *. rx_j)

(* Relay 1 survives the receive charge and dies on its hop into the
   sink. *)
let test_sender_dies_forwarding =
  check_mid_walk_death ~ctx:"sender dies forwarding" ~capacity_j:(fun ~rx_j ~tx_j ->
      rx_j +. (0.5 *. tx_j))

(* A tag whose reader is the sink: the sink pays the reader tariff on
   every report (it listens for free only on ordinary hops).  Its
   budget is scaled up so a thousand-odd reader charges cannot kill
   it. *)
let test_tag_read_by_sink () =
  let ctx = "tag read by the sink" in
  let ((fleet, _) as scenario) =
    diamond ~node3:`Tag ~faults:[ Fault_plan.Battery_scale { node = 0; scale = 1e3 } ] ()
  in
  let o, _ = check_walk ~ctx scenario in
  let link =
    Link_layer.create
      ~tag_link:(Option.get fleet.Fleet.tag_link, (fun i -> i = 3), fun i -> i = 0)
      ~router:fleet.Fleet.router ~mode:Link_layer.Cached ()
  in
  let reader_j = Link_layer.reader_cost_rx_j link in
  Alcotest.(check bool) (ctx ^ ": the tag reports") true (o.generated > 0);
  Alcotest.(check int) (ctx ^ ": every report delivered") o.generated o.delivered;
  let paid = ref 0.0 in
  for _ = 1 to o.delivered do
    paid := !paid +. reader_j
  done;
  check_bits (ctx ^ ": sink paid one reader tariff per report") !paid
    (Node_agent.consumed_j o.agents.(0))

(* A sender with no parent ([parent = -2]) drops every report before
   pricing a hop: nothing is charged anywhere. *)
let test_orphan_drops_uncharged () =
  let ctx = "orphaned sender" in
  let o, _ = check_walk ~ctx (diamond ~node3:`Orphan ()) in
  Alcotest.(check bool) (ctx ^ ": the leaf reports") true (o.generated > 0);
  Alcotest.(check int) (ctx ^ ": every report dropped") o.generated o.dropped;
  Array.iteri
    (fun i ag ->
      check_bits (Printf.sprintf "%s: node %d uncharged" ctx i) 0.0 (Node_agent.consumed_j ag))
    o.agents

(* A relay crash and a link fade inside one ring drain.  A non-report
   event ends a drain, so the report right after an accounting tick
   opens one, and with three 30 s streams on one ring the drain would
   take the next two reports too.  A fault-free reference run
   finds those three instants; the crash lands between the first two,
   the fade (on the leaf's fallback link to relay 2) between the last
   two, so the drain is cut twice and the walks after each cut read a
   repaired tree. *)
let test_faults_inside_a_batch () =
  let ctx = "crash and fade inside one batch" in
  let fleet, cfg = diamond ~relays_report:true () in
  let _, trace = run_reference fleet cfg ~seed:3 in
  let rec after_tick = function
    | (e : Amb_sim.Trace.entry) :: rest when e.label = "fire:account" -> rest
    | _ :: rest -> after_tick rest
    | [] -> []
  in
  let fires =
    List.filter_map
      (fun (e : Amb_sim.Trace.entry) ->
        if String.starts_with ~prefix:"fire:report:" e.label then Some e.time else None)
      (after_tick (Amb_sim.Trace.to_list trace))
  in
  let t1, t2, t3 =
    match fires with a :: b :: c :: _ -> (a, b, c) | _ -> Alcotest.failf "%s: no batch" ctx
  in
  if not (t1 < t2 && t2 < t3 && t3 < t1 +. 30.0) then
    Alcotest.failf "%s: %g, %g, %g do not fit one 30 s drain" ctx t1 t2 t3;
  let crash_at = 0.5 *. (t1 +. t2) and fade_at = 0.5 *. (t2 +. t3) in
  let faults =
    [ Fault_plan.Node_crash { node = 1; at = Time_span.seconds crash_at };
      Fault_plan.Link_fade { a = 3; b = 2; db = 6.0; at = Time_span.seconds fade_at } ]
  in
  let o, trace = check_walk ~ctx (diamond ~relays_report:true ~faults ()) in
  (match o.deaths with
  | [ (1, at) ] -> check_bits (ctx ^ ": crash instant") crash_at (Time_span.to_seconds at)
  | _ -> Alcotest.failf "%s: expected relay 1 to crash, and only it" ctx);
  let fired label =
    (List.find (fun (e : Amb_sim.Trace.entry) -> e.label = label) (Amb_sim.Trace.to_list trace))
      .time
  in
  check_bits (ctx ^ ": fade instant") fade_at (fired "fire:fault:fade:3-2");
  (* After the crash the leaf's reports go through relay 2. *)
  Alcotest.(check bool) (ctx ^ ": relay 2 carried the leaf") true
    (Node_agent.consumed_j o.agents.(2) > Node_agent.consumed_j o.agents.(1))

(* --- the capacity clamp and the fused touch ------------------------------ *)

(* The kernels clamp a settled reserve with an inline compare that must
   return [Float.min]'s bits on every input, not just an equal value:
   the sign of a zero and NaN propagation are where the two could
   part. *)
let clamp_specials =
  [| 0.0; -0.0; Float.infinity; Float.neg_infinity; Float.nan;
     Int64.float_of_bits 0xFFF8_0000_0000_0000L (* NaN, sign bit set *);
     Int64.float_of_bits 0x7FF0_0000_0000_0001L (* signalling NaN payload *);
     4.9e-324; -4.9e-324; Float.min_float; -.Float.min_float;
     Float.pred Float.min_float (* largest subnormal *); Float.max_float; -.Float.max_float;
     1.0; -1.0; 1.5e-3 |]

let check_clamp cap v =
  let got = Fleet_ledger.clamp cap v and want = Float.min cap v in
  if not (Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float want)) then
    Alcotest.failf "clamp %h %h = %h, Float.min gives %h" cap v got want

let test_clamp_specials () =
  Array.iter (fun cap -> Array.iter (fun v -> check_clamp cap v) clamp_specials) clamp_specials

let prop_clamp_bitwise =
  let operand =
    QCheck.Gen.(
      frequency
        [ (2, oneofa clamp_specials);
          (3, map Int64.float_of_bits ui64);
          (3, float);
          (1, map (fun x -> Float.of_int x *. 1e-300 *. 1e-20) small_signed_int) ])
  in
  let pair =
    QCheck.Gen.(
      frequency
        [ (4, pair operand operand);
          (1, map (fun x -> (x, x)) operand);
          (1, map (fun x -> (x, -.x)) operand) ])
  in
  QCheck.Test.make ~name:"capacity clamp is Float.min bit for bit" ~count:20_000
    (QCheck.make ~print:(fun (c, v) -> Printf.sprintf "(%h, %h)" c v) pair)
    (fun (cap, v) ->
      check_clamp cap v;
      true)

(* One report of node 1 straight into the sink 0, on a ledger built
   from [cfg] and advanced to [at]; the same charges are replayed on a
   reference [Node_agent], and every ledger field must match it bit for
   bit.  Returns the written-back agent and the nodes [on_death] saw. *)
let one_hop ~ctx ~cfg ~activation ~tx ~at =
  let agents = Array.init 2 (fun id -> Node_agent.create ~id ~cfg ()) in
  let ledger = Fleet_ledger.of_agents agents in
  let deaths = ref [] in
  let counts = Fleet_ledger.tally () in
  let route =
    Fleet_ledger.route ledger ~clock:{ Amb_sim.Engine.v = at } ~sink:0 ~parent:[| -1; 0 |]
      ~hop_tx:[| Float.nan; tx |]
      ~hop_kind:[| Link_layer.hop_normal; Link_layer.hop_sink_parent |]
      ~activation:[| 0.0; activation |] ~rx_j:0.0 ~reader_j:0.0 ~counts
      ~on_death:(fun i -> deaths := i :: !deaths)
  in
  Alcotest.(check bool) (ctx ^ ": report generated") true (Fleet_ledger.report route 1);
  Fleet_ledger.write_back ledger agents;
  let reference = Node_agent.create ~id:1 ~cfg () in
  if activation > 0.0 then Node_agent.charge reference ~now:at activation;
  if Node_agent.alive reference then Node_agent.charge reference ~now:at tx;
  let got = agents.(1) in
  check_bits (ctx ^ ": reserve") (Node_agent.reserve_j reference) (Node_agent.reserve_j got);
  check_bits (ctx ^ ": consumed") (Node_agent.consumed_j reference) (Node_agent.consumed_j got);
  check_bits (ctx ^ ": harvested") (Node_agent.harvested_j reference) (Node_agent.harvested_j got);
  check_bits (ctx ^ ": last") (Node_agent.last_account_s reference) (Node_agent.last_account_s got);
  check_bits (ctx ^ ": died") (Node_agent.died_at_s reference) (Node_agent.died_at_s got);
  Alcotest.(check int) (ctx ^ ": counted once") 1
    (counts.Fleet_ledger.delivered + counts.Fleet_ledger.dropped);
  (got, !deaths)

(* A battery relay with no harvester, so nothing but [sleep_w] moves
   the reserve between charges. *)
let one_hop_cfg ~sleep_w ~budget_j =
  let relay = Fleet.milliwatt_relay () in
  { relay with
    Fleet.sleep_power = Power.watts sleep_w;
    supply = { relay.Fleet.supply with Amb_energy.Supply.harvester = None };
    budget_override = Some (Energy.joules budget_j) }

(* A settle with zero net flow lands exactly on capacity: the clamp's
   equal-operand path. *)
let test_settle_lands_on_capacity () =
  let ctx = "settle onto capacity" in
  let got, deaths =
    one_hop ~ctx ~cfg:(one_hop_cfg ~sleep_w:0.0 ~budget_j:2.0) ~activation:0.0 ~tx:0.0 ~at:60.0
  in
  check_bits (ctx ^ ": reserve is the capacity") 2.0 (Node_agent.reserve_j got);
  Alcotest.(check (list int)) (ctx ^ ": no death") [] deaths

(* A hop charge that takes the reserve to exactly 0.0 kills the sender
   at the charge instant, and [on_death] fires once. *)
let test_charge_to_exact_zero () =
  let ctx = "charge to exactly zero" in
  let cfg = one_hop_cfg ~sleep_w:0.0 ~budget_j:2.0 in
  let reg = Node_agent.regulator_efficiency (Node_agent.create ~id:1 ~cfg ()) in
  let tx = ref (2.0 *. reg) and steps = ref 0 in
  while !tx /. reg <> 2.0 && !steps < 64 do
    tx := (if !tx /. reg < 2.0 then Float.succ !tx else Float.pred !tx);
    incr steps
  done;
  if !tx /. reg <> 2.0 then Alcotest.failf "%s: no tariff drains exactly 2 J" ctx;
  let got, deaths = one_hop ~ctx ~cfg ~activation:0.0 ~tx:!tx ~at:60.0 in
  check_bits (ctx ^ ": reserve") 0.0 (Node_agent.reserve_j got);
  check_bits (ctx ^ ": death instant") 60.0 (Node_agent.died_at_s got);
  Alcotest.(check (list int)) (ctx ^ ": one death callback") [ 1 ] deaths

(* A settle whose sleep drain empties the battery: the interpolated
   death instant (the out-of-line path), no charge after it. *)
let test_settle_death_interpolates () =
  let ctx = "settle death" in
  let got, deaths =
    one_hop ~ctx ~cfg:(one_hop_cfg ~sleep_w:1e-3 ~budget_j:1.0) ~activation:1e-4 ~tx:1e-4
      ~at:5000.0
  in
  let died = Node_agent.died_at_s got in
  if not (died > 0.0 && died < 5000.0) then
    Alcotest.failf "%s: death instant %h is not inside the settled interval" ctx died;
  Alcotest.(check (list int)) (ctx ^ ": one death callback") [ 1 ] deaths

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_fast_path_oracle; prop_city_repair_oracle; prop_pooled_ticks_oracle; prop_scale_at_oracle;
      prop_ledger_diurnal_oracle; prop_clamp_bitwise ]
  @ [ Alcotest.test_case "pooled account_all matches sequential" `Quick test_account_all_pooled;
      Alcotest.test_case "fast path minor words per event" `Quick test_minor_words_budget;
      Alcotest.test_case "fast path minor words per event under office lighting" `Quick
        test_minor_words_budget_diurnal;
      Alcotest.test_case "fast path minor words per event on an 8000-node city" `Quick
        test_minor_words_budget_rings;
      Alcotest.test_case "8000-node minor words per event under office lighting" `Quick
        test_minor_words_budget_rings_diurnal;
      Alcotest.test_case "13-node minor words per event under office lighting" `Quick
        test_minor_words_small_fleet;
      Alcotest.test_case "relay dying on its receive charge" `Quick test_relay_dies_receiving;
      Alcotest.test_case "sender dying mid-walk" `Quick test_sender_dies_forwarding;
      Alcotest.test_case "tag read by the sink" `Quick test_tag_read_by_sink;
      Alcotest.test_case "orphaned sender drops uncharged" `Quick test_orphan_drops_uncharged;
      Alcotest.test_case "crash and fade inside one report batch" `Quick
        test_faults_inside_a_batch;
      Alcotest.test_case "counters: quiet run makes no repairs" `Quick test_counters_quiet_run;
      Alcotest.test_case "counters: one leaf death re-attaches its subtree" `Quick
        test_counters_one_leaf_death;
      Alcotest.test_case "capacity clamp on special operands" `Quick test_clamp_specials;
      Alcotest.test_case "settle landing exactly on capacity" `Quick test_settle_lands_on_capacity;
      Alcotest.test_case "charge to exactly zero reserve" `Quick test_charge_to_exact_zero;
      Alcotest.test_case "settle death interpolates its instant" `Quick
        test_settle_death_interpolates;
    ]
