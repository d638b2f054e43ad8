(** Whole-fleet co-simulation (see .mli for the model contract).

    The forwarding loop, death-triggered rebuilds and report-phase RNG
    discipline deliberately mirror {!Amb_net.Net_sim} statement for
    statement; the continuous energy accounting mirrors
    {!Amb_node.Lifetime_sim} via {!Node_agent}.  The degenerate
    cross-check experiments (E27) depend on both mirrors.

    Hot-path discipline matches Net_sim: the event loop runs on the
    float-native {!Engine} API (one report closure per node for the
    whole run, no per-event [Time_span.t] boxing), the collection tree
    lives in a reusable {!Route_tree}, and topology events under the
    tie-free [Min_energy] policy splice the affected subtree instead of
    re-running Dijkstra over all pairs — node deaths re-attach the
    orphaned subtree, link fades that only worsen a pair repair the
    faded tree edge (or no-op on non-tree edges).  [Min_hop] (global
    tie-breaks) and [Max_lifetime] (residual-dependent weights), as
    well as fades that improve a pair (a smaller fade replacing a
    larger one), keep the full rebuild. *)

open Amb_units
open Amb_sim
open Amb_net

type config = {
  fleet : Fleet.t;
  link : Link_layer.mode;
  policy : Routing.policy;
  horizon : Time_span.t;
  rebuild_period : Time_span.t;
  accounting_period : Time_span.t;
  diurnal : Amb_energy.Day_profile.t option;
  faults : Fault_plan.t;
  availability_threshold : float;
}

let config ?(link = Link_layer.Cached) ?(policy = Routing.Min_energy)
    ?(rebuild_period = Time_span.hours 4.0) ?(accounting_period = Time_span.minutes 10.0)
    ?diurnal ?(faults = Fault_plan.none) ?(availability_threshold = 0.9) ~fleet ~horizon () =
  if Time_span.to_seconds horizon <= 0.0 then invalid_arg "Cosim.config: non-positive horizon";
  if Time_span.to_seconds rebuild_period <= 0.0 then
    invalid_arg "Cosim.config: non-positive rebuild period";
  if Time_span.to_seconds accounting_period <= 0.0 then
    invalid_arg "Cosim.config: non-positive accounting period";
  if availability_threshold < 0.0 || availability_threshold > 1.0 then
    invalid_arg "Cosim.config: availability threshold outside [0,1]";
  { fleet; link; policy; horizon; rebuild_period; accounting_period; diurnal; faults;
    availability_threshold }

type outcome = {
  generated : int;
  delivered : int;
  dropped : int;
  delivery_ratio : float;
  first_death : Time_span.t option;
  deaths : (int * Time_span.t) list;
  dead_at_end : int;
  energy_spent : Energy.t;
  energy_harvested : Energy.t;
  availability : float;
  mean_coverage : float;
  rebuilds : int;
  events : int;
  agents : Node_agent.t array;
}

(* Fleet size at which the run switches from per-object [Node_agent]
   accounting and per-hop [Link_layer] pricing to the struct-of-arrays
   fast path ([Fleet_ledger] columns, precomputed hop tariffs, indexed
   report events).  The two paths are bit-for-bit identical — the
   threshold trades the historic path's zero setup cost against the
   fast path's per-event floor, and every legacy experiment (tens to
   hundreds of nodes) stays on the historic code verbatim. *)
let default_fast_threshold = 1024

type phase_times = {
  clock : unit -> float;
  mutable forward_s : float;
  mutable account_s : float;
  mutable rebuild_s : float;
}

let phase_times ~clock = { clock; forward_s = 0.0; account_s = 0.0; rebuild_s = 0.0 }

(* The body takes the router explicitly: [run] passes the fleet's own,
   [run_many]'s parallel shards pass private-memo clones so fade faults
   (which write per-distance energies through the memo) never race.
   [pool] shards the fast path's accounting ticks over disjoint node
   ranges (a tick with a death runs sequentially, so outcomes are
   jobs-independent; report batches always replay sequentially);
   [phase] accumulates wall-clock per run phase;
   [fast_threshold] overrides {!default_fast_threshold} — the oracle
   tests pin it to 0 / max_int to force either representation at any
   fleet size. *)
let run_with_router ?trace ?pool ?phase ?(fast_threshold = default_fast_threshold) ~router
    cfg ~seed =
  let fleet = cfg.fleet in
  let topo = fleet.Fleet.topology in
  let n = Topology.node_count topo in
  let sink = fleet.Fleet.sink in
  let rng = Rng.create seed in
  let engine = Engine.create ?trace () in
  (* Per-event clock reads through the engine's float cell: without
     flambda, [now_s]'s return is boxed at every call. *)
  let clk = Engine.clock_cell engine in
  let link =
    Link_layer.create
      ?tag_link:
        (Option.map
           (fun bs ->
             ( bs,
               (fun i -> fleet.Fleet.tiers.(i) = Fleet.Tag),
               fun i -> fleet.Fleet.tiers.(i) = Fleet.Sink ))
           fleet.Fleet.tag_link)
      ~router ~mode:cfg.link ()
  in
  let sampling = Power.watts (Link_layer.sampling_power_w link) in
  (* Distance-independent receiver tariffs — constant for the run, so
     hoisted here beside the sampling power instead of being re-read
     inside every per-node forwarding closure. *)
  let rx_j = Link_layer.cost_rx_j link in
  let reader_j = Link_layer.reader_cost_rx_j link in
  let income_multiplier = Option.map Amb_energy.Day_profile.income_multiplier cfg.diurnal in
  let agents =
    Array.init n (fun i ->
        (* Tags never sample the shared MAC channel — their downlink is
           the reader's carrier, so the MAC sleep tax stays off their
           nanowatt ledger. *)
        let extra_sleep =
          if fleet.Fleet.tiers.(i) = Fleet.Tag then Power.zero else sampling
        in
        Node_agent.create ?income_multiplier ~extra_sleep ~id:i
          ~cfg:(Fleet.config_of fleet fleet.Fleet.tiers.(i)) ())
  in
  (* Battery-capacity faults apply before the clock starts. *)
  List.iter
    (function
      | Fault_plan.Battery_scale { node; scale } ->
        Node_agent.scale_battery agents.(node) ~factor:scale
      | Fault_plan.Node_crash _ | Fault_plan.Link_fade _ -> ())
    cfg.faults;
  (* The struct-of-arrays twin (snapshotted after the battery faults so
     the columns see the scaled capacities).  While it exists, it — not
     the agent records — is the energy truth: every liveness test,
     reserve read and death instant below goes through these accessor
     closures, and the agents are restored from the columns at run
     end. *)
  let fast = n >= fast_threshold in
  let ledger = if fast then Some (Fleet_ledger.of_agents ?income_multiplier agents) else None in
  let alive =
    match ledger with
    | None -> fun i -> Node_agent.alive agents.(i)
    | Some lg -> fun i -> Fleet_ledger.alive lg i
  in
  let reserve =
    match ledger with
    | None -> fun i -> Node_agent.reserve_j agents.(i)
    | Some lg -> fun i -> Fleet_ledger.reserve_j lg i
  in
  let died_at_raw =
    match ledger with
    | None -> fun i -> Node_agent.died_at_s agents.(i)
    | Some lg -> fun i -> Fleet_ledger.died_at_s lg i
  in
  let crash_node =
    match ledger with
    | None -> fun i now -> Node_agent.crash agents.(i) ~now
    | Some lg -> fun i now -> Fleet_ledger.crash lg i ~now
  in
  let tree =
    Route_tree.create ?csr:(Routing.adjacency router) ~n ~sink ()
  in
  let parent = Array.make n (-2) in
  (* Precomputed hop tariffs, twin to [parent]: [hop_tx.(i)] is the
     sender cost of the tree hop i -> parent.(i) and [hop_kind.(i)] its
     receiver classification.  Refreshed on every [sync_parents] —
     i.e. exactly when the tree (or a fade) changes — so the fast
     forwarding walk reads flat arrays with zero link-layer calls. *)
  let hop_tx = if fast then Array.make n Float.nan else [||] in
  let hop_kind = if fast then Array.make n 0 else [||] in
  let counts = Fleet_ledger.tally () in
  let drop () = counts.dropped <- counts.dropped + 1 in
  let deaths = ref [] in
  let rebuilds = ref 0 in
  let coverage = Stat.time_weighted () in
  let avail = Stat.time_weighted () in
  let leaf_ids = Fleet.tier_nodes fleet Fleet.Sensor_leaf in
  let leaf_count = Array.length leaf_ids in
  let note label time =
    match trace with None -> () | Some tr -> Trace.record tr ~time label
  in
  (* Fraction of leaves whose parent chain reaches the sink.  Parent
     chains share long suffixes, so each call memoises reachability
     per node with path compression into [reach] — O(n) per call
     instead of O(leaves * depth), which matters at city scale where
     both factors are 10^4+. *)
  let reach = Array.make n 0 (* per-call: 0 unknown, 1 reaches sink, 2 does not *) in
  let chain = Array.make n 0 in
  let connected_fraction () =
    if leaf_count = 0 then 1.0
    else begin
      Array.fill reach 0 n 0;
      reach.(sink) <- 1;
      let connected = ref 0 in
      Array.iter
        (fun leaf ->
          if alive leaf then begin
            let top = ref 0 in
            let node = ref leaf in
            while !node >= 0 && reach.(!node) = 0 && !top < n do
              chain.(!top) <- !node;
              incr top;
              node := parent.(!node)
            done;
            let state = if !node >= 0 && reach.(!node) = 1 then 1 else 2 in
            for k = 0 to !top - 1 do
              reach.(chain.(k)) <- state
            done;
            if state = 1 then incr connected
          end)
        leaf_ids;
      Float.of_int !connected /. Float.of_int leaf_count
    end
  in
  (* Policy cost of hop [i -> j]: link-layer weights (fade-aware) with
     agent reserves feeding the max-lifetime policy — the same edge
     weights the historic Graph-based rebuild materialised. *)
  let weight =
    match cfg.policy with
    | Routing.Min_hop ->
      fun i j -> if Float.is_nan (Link_layer.weight_j link i j) then Float.nan else 1.0
    | Routing.Min_energy -> fun i j -> Link_layer.weight_j link i j
    | Routing.Max_lifetime ->
      fun i j ->
        let joules = Link_layer.weight_j link i j in
        if Float.is_nan joules then joules
        else
          let r = reserve i in
          if r <= 0.0 then Float.max_float /. 1e6 else joules /. r
  in
  let sync_parents () =
    for i = 0 to n - 1 do
      parent.(i) <-
        (if i = sink then -1
         else
           let p = Route_tree.parent tree i in
           if p < 0 || not (alive i) then -2 else p)
    done;
    if fast then Link_layer.refresh_hop_tariffs link ~sink ~parent ~tx_j:hop_tx ~hop_kind
  in
  (* Every tree update — full or spliced — feeds the coverage and
     availability accumulators at its instant, as the historic
     rebuild-everywhere path did. *)
  let record_stats now =
    let f = connected_fraction () in
    Stat.update coverage ~time:now ~value:f;
    Stat.update avail ~time:now
      ~value:(if f >= cfg.availability_threshold then 1.0 else 0.0)
  in
  (* Mirror of Net_sim.rebuild. *)
  let rebuild now =
    incr rebuilds;
    Route_tree.rebuild tree ~weight ~alive;
    sync_parents ();
    record_stats now
  in
  (* Phase-timing shim: [rebuild_s] covers the initial and periodic
     tree rebuilds and the fault handlers below; death-triggered
     repairs are attributed to whichever phase raised them.  Wall-clock
     only — no observable state. *)
  let rebuild =
    match phase with
    | None -> rebuild
    | Some pt ->
      fun now ->
        let t0 = pt.clock () in
        rebuild now;
        pt.rebuild_s <- pt.rebuild_s +. (pt.clock () -. t0)
  in
  let repair_after_death dead now =
    incr rebuilds;
    (match cfg.policy with
    | Routing.Min_energy -> Route_tree.repair_death tree ~weight ~alive ~tie_free:true ~dead
    | Routing.Min_hop | Routing.Max_lifetime -> Route_tree.rebuild tree ~weight ~alive);
    sync_parents ();
    record_stats now
  in
  let record_death i now =
    let at =
      let d = died_at_raw i in
      if Float.is_nan d then now else d
    in
    deaths := (i, at) :: !deaths;
    note ("death:" ^ Int.to_string i) at;
    repair_after_death i now
  in
  (* The per-packet machinery, instantiated per representation rather
     than parameterised over it: the historic path keeps its code
     verbatim, and the fast path calls the ledger kernels directly — a
     shared closure indirection here would box every float argument on
     the hottest calls in the simulator.  Both branches yield the
     accounting tick and the report-stream registrar; everything else
     (tree maintenance, stats, faults, outcome) is shared above and
     below. *)
  let account_tick, schedule_reports =
    match ledger with
    | None ->
      (* Charge [joules] to node [i]; false once the node is gone (the
         death, if any, has already triggered its repair — as in
         Net_sim.charge). *)
      let charge i now joules =
        let was = alive i in
        Node_agent.charge agents.(i) ~now joules;
        if was && not (alive i) then record_death i now;
        alive i
      in
      let account_all now =
        Array.iter
          (fun agent ->
            let i = Node_agent.id agent in
            let was = alive i in
            Node_agent.account agent ~now;
            if was && not (alive i) then record_death i now)
          agents
      in
      (* Mirror of Net_sim.forward: hop towards the sink, sender pays
         TX, receiver pays RX (the sink listens for free), deaths drop
         the packet.  The one exception is a reader-powered tag hop:
         the serving reader pays the carrier + listen cost even when it
         is the sink — that asymmetry is the whole economics of the
         batteryless class. *)
      let forward src =
        let rec hop node ttl now =
          if ttl <= 0 then drop ()
          else if node = sink then counts.delivered <- counts.delivered + 1
          else
            let p = parent.(node) in
            if p < 0 || not (alive node) then drop ()
            else
              let tx_j = Link_layer.cost_tx_j link node p in
              if Float.is_nan tx_j then drop ()
              else begin
                let sender_ok = charge node now tx_j in
                let receiver_ok =
                  if Link_layer.tag_hop link node then charge p now reader_j
                  else p = sink || charge p now rx_j
                in
                if sender_ok && receiver_ok then hop p (ttl - 1) now else drop ()
              end
        in
        fun now -> hop src n now
      in
      (* Leaf reporting, staggered by a random phase — drawn in node
         order from the run seed, exactly as Net_sim does.  One report
         closure per node re-arms itself for the whole run. *)
      let schedule_reports () =
        for node = 0 to n - 1 do
          if node <> sink then begin
            let tier_cfg = Fleet.config_of fleet fleet.Fleet.tiers.(node) in
            match tier_cfg.Fleet.report_period with
            | None -> ()
            | Some p ->
              let period_s = Time_span.to_seconds p in
              let phase = Rng.uniform rng 0.0 period_s in
              let label = "report:" ^ Int.to_string node in
              let activation_j = Energy.to_joules tier_cfg.Fleet.activation_energy in
              let fwd = forward node in
              let rec report engine =
                if alive node then begin
                  counts.generated <- counts.generated + 1;
                  let now = clk.Engine.v in
                  (* Sense/convert/compute first; the forward pass
                     charges the radio.  A node that dies
                     mid-activation still counts the report as
                     generated (and dropped), as a dead Net_sim node
                     would. *)
                  if activation_j > 0.0 then ignore (charge node now activation_j);
                  fwd now;
                  Engine.schedule_s ~label engine ~delay_s:period_s report
                end
              in
              Engine.schedule_s ~label engine ~delay_s:phase report
          end
        done
      in
      (account_all, schedule_reports)
    | Some lg ->
      (* Report streams on the engine's indexed channel: one shared
         handler plus per-node period/activation columns replace the
         100k per-node closures.  (time, seq) pairs and the RNG phase
         draws are produced in the same node order as the historic
         loop, so the event chronology — and with a trace attached,
         the "report:<n>" labels — are unchanged.  Each report runs
         {!Fleet_ledger.report}: the historic [forward] flattened into
         a loop over [parent] / [hop_tx] / [hop_kind], with drop
         conditions, charges and their order exactly as above.  A
         charge that kills a node calls back into [record_death]
         (repair + stats, as the historic [charge] does), and the
         repair refreshes the three arrays in place before the walk
         continues. *)
      let period = Array.make n 0.0 in
      let activation = Array.make n 0.0 in
      let route =
        Fleet_ledger.route lg ~clock:clk ~sink ~parent ~hop_tx ~hop_kind ~activation ~rx_j
          ~reader_j ~counts ~on_death:(fun i -> record_death i clk.Engine.v)
      in
      let hid = ref (-1) in
      let report_event e idx =
        if Fleet_ledger.report route idx then begin
          (Engine.delay_cell e).v <- period.(idx);
          Engine.schedule_idx_cell e ~handler:!hid ~idx
        end
      in
      let handler = Engine.register_handler ~label:"report" engine report_event in
      hid := handler;
      (* --- batch drain of the report channel ---------------------------
         The engine hands over maximal runs of consecutive report events
         (bounded by the minimum report period, so nothing a batch
         schedules can land inside it) and the body replays them in
         order: per event, exactly what the engine's loop +
         [report_event] would have done.  Draining saves the per-event
         queue pops, not the walks — those stay sequential (DESIGN.md
         records why a parallel replay was removed). *)
      (* The fire time comes from the clock cell, not an argument: a
         float passed to a closure is boxed on every call. *)
      let note_fire idx =
        match trace with
        | None -> ()
        | Some tr -> Trace.record tr ~time:clk.Engine.v ("fire:report:" ^ Int.to_string idx)
      in
      let replay_seq e count =
        let times = Engine.batch_times e and idxs = Engine.batch_idxs e in
        for k = 0 to count - 1 do
          let idx = Array.unsafe_get idxs k in
          clk.Engine.v <- Array.unsafe_get times k;
          note_fire idx;
          report_event e idx
        done
      in
      let batch_fn =
        match phase with
        | None -> replay_seq
        | Some pt ->
          fun e count ->
            let t0 = pt.clock () in
            replay_seq e count;
            pt.forward_s <- pt.forward_s +. (pt.clock () -. t0)
      in
      let min_period = ref Float.infinity in
      let schedule_reports () =
        for node = 0 to n - 1 do
          if node <> sink then begin
            let tier_cfg = Fleet.config_of fleet fleet.Fleet.tiers.(node) in
            match tier_cfg.Fleet.report_period with
            | None -> ()
            | Some p ->
              let period_s = Time_span.to_seconds p in
              let phase = Rng.uniform rng 0.0 period_s in
              period.(node) <- period_s;
              activation.(node) <- Energy.to_joules tier_cfg.Fleet.activation_energy;
              if period_s < !min_period then min_period := period_s;
              Engine.schedule_idx_s engine ~handler ~idx:node ~delay_s:phase
          end
        done;
        (* Arm the drain once the window is known: every report stream
           re-arms no sooner than the minimum period after its own fire
           time, the engine's no-overtake precondition. *)
        if !min_period > 0.0 && Float.is_finite !min_period then
          Engine.set_batch_handler engine ~handler ~window_s:!min_period batch_fn
      in
      let account_all now =
        Fleet_ledger.account_all ?pool lg ~now ~on_death:(fun i -> record_death i now)
      in
      (account_all, schedule_reports)
  in
  let account_tick =
    match phase with
    | None -> account_tick
    | Some pt ->
      fun now ->
        let t0 = pt.clock () in
        account_tick now;
        pt.account_s <- pt.account_s +. (pt.clock () -. t0)
  in
  rebuild 0.0;
  schedule_reports ();
  let horizon_s = Time_span.to_seconds cfg.horizon in
  (* Periodic residual-aware rebuild, as in Net_sim. *)
  Engine.every_s ~label:"rebuild" engine ~period_s:(Time_span.to_seconds cfg.rebuild_period)
    ~until_s:horizon_s (fun _e ->
      rebuild clk.Engine.v;
      true);
  (* Periodic continuous-flow accounting, as in Lifetime_sim. *)
  Engine.every_s ~label:"account" engine
    ~period_s:(Time_span.to_seconds cfg.accounting_period) ~until_s:horizon_s (fun _e ->
      account_tick clk.Engine.v;
      true);
  (* Fault injection.  A crash or fade handler is a tree repair or
     rebuild, so its wall clock goes to [rebuild_s]. *)
  let as_rebuild handler =
    match phase with
    | None -> handler
    | Some pt ->
      fun e ->
        let t0 = pt.clock () in
        handler e;
        pt.rebuild_s <- pt.rebuild_s +. (pt.clock () -. t0)
  in
  List.iter
    (function
      | Fault_plan.Node_crash { node; at } ->
        Engine.schedule_at ~label:("fault:crash:" ^ Int.to_string node) engine at
          (as_rebuild (fun e ->
            if alive node then begin
              let now = Engine.now_s e in
              crash_node node now;
              record_death node now
            end))
      | Fault_plan.Link_fade { a; b; db; at } ->
        Engine.schedule_at ~label:(Printf.sprintf "fault:fade:%d-%d" a b) engine at
          (as_rebuild (fun e ->
            let now = Engine.now_s e in
            (* A replaced fade can lower the pair cost (or resurrect a
               NaN link), which may improve remote paths — only a fade
               that worsens both directions is eligible for the local
               tree-edge repair. *)
            let before_ab = Link_layer.weight_j link a b
            and before_ba = Link_layer.weight_j link b a in
            Link_layer.set_fade link ~a ~b ~db;
            let after_ab = Link_layer.weight_j link a b
            and after_ba = Link_layer.weight_j link b a in
            let worsened old_w new_w =
              if Float.is_nan new_w then true
              else (not (Float.is_nan old_w)) && new_w >= old_w
            in
            incr rebuilds;
            (match cfg.policy with
            | Routing.Min_energy
              when worsened before_ab after_ab && worsened before_ba after_ba ->
              Route_tree.repair_weight_increase tree ~weight ~alive ~tie_free:true ~a ~b
            | _ -> Route_tree.rebuild tree ~weight ~alive);
            sync_parents ();
            record_stats now))
      | Fault_plan.Battery_scale _ -> ())
    cfg.faults;
  let end_s = Engine.run_s ~until_s:horizon_s engine in
  account_tick end_s;
  (* Restore the agents from the columns so reporting — and callers
     holding [outcome.agents] — read the run's final state exactly as
     the historic path would have left it. *)
  (match ledger with None -> () | Some lg -> Fleet_ledger.write_back lg agents);
  Stat.close coverage ~time:end_s;
  Stat.close avail ~time:end_s;
  let deaths = List.sort (fun (_, a) (_, b) -> Float.compare a b) (List.rev !deaths) in
  let first_death = match deaths with [] -> None | (_, t) :: _ -> Some (Time_span.seconds t) in
  let dead_at_end = Array.fold_left (fun acc a -> if Node_agent.alive a then acc else acc + 1) 0 agents in
  let sum f =
    Energy.joules
      (Array.fold_left (fun acc a -> acc +. Energy.to_joules (f a)) 0.0 agents)
  in
  let time_avg tw = let v = Stat.time_average tw in if Float.is_nan v then 1.0 else v in
  {
    generated = counts.generated;
    delivered = counts.delivered;
    dropped = counts.dropped;
    delivery_ratio =
      (if counts.generated = 0 then 0.0
       else Float.of_int counts.delivered /. Float.of_int counts.generated);
    first_death;
    deaths = List.map (fun (i, t) -> (i, Time_span.seconds t)) deaths;
    dead_at_end;
    energy_spent = sum Node_agent.consumed_energy;
    energy_harvested = sum Node_agent.harvested_energy;
    availability = time_avg avail;
    mean_coverage = time_avg coverage;
    rebuilds = !rebuilds;
    events = Engine.event_count engine;
    agents;
  }

let run ?trace cfg ~seed =
  run_with_router ?trace ~router:cfg.fleet.Fleet.router cfg ~seed

(* Independent-scenario sweep.  Each seed's run builds its own engine,
   agents and link layer; the shared fleet (topology, tiers, routing
   cache) is only read.  The one shared-mutation hazard is the router's
   distance memo (fade faults write per-distance energies through it),
   so parallel shards run through [Routing.with_private_memo] clones —
   the memo is a pure cache, so outcomes stay bitwise identical to the
   sequential sweep at every [jobs]. *)
let run_many ?(jobs = 1) cfg ~seeds =
  let jobs = Stdlib.max 1 jobs in
  if jobs = 1 || Array.length seeds <= 1 then
    Array.map (fun seed -> run cfg ~seed) seeds
  else
    let fade_free =
      List.for_all
        (function Fault_plan.Link_fade _ -> false | _ -> true)
        cfg.faults
    in
    let router_for_shard () =
      if fade_free then cfg.fleet.Fleet.router
      else Routing.with_private_memo cfg.fleet.Fleet.router
    in
    Domain_pool.with_pool ~jobs (fun pool ->
        Domain_pool.run pool
          (Array.map
             (fun seed () -> run_with_router ~router:(router_for_shard ()) cfg ~seed)
             seeds))
