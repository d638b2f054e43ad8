(** Whole-fleet co-simulation (see .mli for the model contract).

    The forwarding loop, death-triggered rebuilds and report-phase RNG
    discipline deliberately mirror {!Amb_net.Net_sim} statement for
    statement; the continuous energy accounting mirrors
    {!Amb_node.Lifetime_sim} through the {!Fleet_ledger} rows, whose
    kernels replay {!Node_agent}'s arithmetic float-op for float-op.
    The degenerate cross-check experiments (E27) depend on both
    mirrors, and [test/cosim_reference.ml] holds the whole run to a
    plain per-object reference bit for bit.

    A run is five stages, each below under its own header: setup
    (agents, battery faults, the ledger, the link layer), the
    collection tree (parents, hop tariffs, coverage, rebuilds and
    repairs), the report channel, faults, and finalize.  Topology events
    under the tie-free [Min_energy] policy splice the affected subtree
    instead of re-running Dijkstra over all pairs — node deaths
    re-attach the orphaned subtree, link fades that only worsen a pair
    repair the faded tree edge (or no-op on non-tree edges).
    [Min_hop] (global tie-breaks) and [Max_lifetime]
    (residual-dependent weights), as well as fades that improve a pair
    (a smaller fade replacing a larger one), keep the full rebuild. *)

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

type phase_times = {
  clock : unit -> float;
  mutable forward_s : float;
  mutable account_s : float;
  mutable rebuild_s : float;
}

let phase_times ~clock = { clock; forward_s = 0.0; account_s = 0.0; rebuild_s = 0.0 }

(* Wrap a stage entry point so its wall clock accumulates into one
   [phase_times] field.  Wall clock only — no observable state. *)
let timed phase add f =
  match phase with
  | None -> f
  | Some pt ->
    fun x ->
      let t0 = pt.clock () in
      f x;
      add pt (pt.clock () -. t0)

let add_account pt d = pt.account_s <- pt.account_s +. d
let add_rebuild pt d = pt.rebuild_s <- pt.rebuild_s +. d

(* --- stage 1: setup -----------------------------------------------------
   Agents built from the fleet's tier parameters, battery faults applied
   before the clock starts, then the ledger snapshot — from here on
   the [Fleet_ledger] rows, not the agent records, are the run's energy
   truth; the agents are restored from them at run end. *)

type setup = {
  cfg : config;
  n : int;
  sink : int;
  engine : Engine.t;
  clk : Engine.cell;
      (* Per-event clock reads go through the engine's float cell:
         without flambda, [now_s]'s return is boxed at every call. *)
  trace : Trace.t option;
  link : Link_layer.t;
  agents : Node_agent.t array;
  ledger : Fleet_ledger.t;
  alive : int -> bool;
  counts : Fleet_ledger.tally;
}

let setup ?trace ~router cfg =
  let fleet = cfg.fleet in
  let n = Topology.node_count fleet.Fleet.topology in
  let engine = Engine.create ?trace () in
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
  List.iter
    (function
      | Fault_plan.Battery_scale { node; scale } ->
        Node_agent.scale_battery agents.(node) ~factor:scale
      | Fault_plan.Node_crash _ | Fault_plan.Link_fade _ -> ())
    cfg.faults;
  let ledger = Fleet_ledger.of_agents ?diurnal:cfg.diurnal agents in
  { cfg; n; sink = fleet.Fleet.sink; engine; clk = Engine.clock_cell engine; trace; link;
    agents; ledger; alive = Fleet_ledger.alive ledger; counts = Fleet_ledger.tally () }

(* --- stage 2: the collection tree ---------------------------------------
   Parents and their hop tariffs, coverage and availability, and every
   way the tree changes: full rebuilds, death repairs and the crash and
   fade fault handlers.  These entry points are what [rebuild_s]
   times. *)

type tree = {
  s : setup;
  routes : Route_tree.t;
  parent : int array;
  hop_tx : float array;
      (* Hop tariffs, twin to [parent]: [hop_tx.(i)] is the sender cost
         of the hop i -> parent.(i) and [hop_kind.(i)] its receiver
         class.  Refreshed on every [sync_parents] — exactly when the
         tree (or a fade) changes — so the report walk reads flat arrays
         with zero link-layer calls. *)
  hop_kind : int array;
  weight : int -> int -> float;
  leaf_ids : int array;
  reach : int array;  (* per call: 0 unknown, 1 reaches sink, 2 does not *)
  chain : int array;
  coverage : Stat.time_weighted;
  avail : Stat.time_weighted;
  mutable rebuilds : int;
  mutable deaths : (int * float) list;  (* newest first *)
}

let tree s ~router =
  let n = s.n in
  let link = s.link in
  (* Policy cost of hop [i -> j]: link-layer weights (fade-aware) with
     ledger reserves feeding the max-lifetime policy. *)
  let weight =
    match s.cfg.policy with
    | Routing.Min_hop ->
      fun i j -> if Float.is_nan (Link_layer.weight_j link i j) then Float.nan else 1.0
    | Routing.Min_energy -> fun i j -> Link_layer.weight_j link i j
    | Routing.Max_lifetime ->
      fun i j ->
        let joules = Link_layer.weight_j link i j in
        if Float.is_nan joules then joules
        else
          let r = Fleet_ledger.reserve_j s.ledger i in
          if r <= 0.0 then Float.max_float /. 1e6 else joules /. r
  in
  {
    s;
    routes = Route_tree.create ?csr:(Routing.adjacency router) ~n ~sink:s.sink ();
    parent = Array.make n (-2);
    hop_tx = Array.make n Float.nan;
    hop_kind = Array.make n 0;
    weight;
    leaf_ids = Fleet.tier_nodes s.cfg.fleet Fleet.Sensor_leaf;
    reach = Array.make n 0;
    chain = Array.make n 0;
    coverage = Stat.time_weighted ();
    avail = Stat.time_weighted ();
    rebuilds = 0;
    deaths = [];
  }

(* Fraction of leaves whose parent chain reaches the sink.  Parent
   chains share long suffixes, so each call memoises reachability per
   node with path compression into [reach] — O(n) per call instead of
   O(leaves * depth), which matters at city scale where both factors
   are 10^4+. *)
let connected_fraction t =
  let n = t.s.n and sink = t.s.sink and reach = t.reach and chain = t.chain in
  let leaf_count = Array.length t.leaf_ids in
  if leaf_count = 0 then 1.0
  else begin
    Array.fill reach 0 n 0;
    reach.(sink) <- 1;
    let connected = ref 0 in
    Array.iter
      (fun leaf ->
        if t.s.alive leaf then begin
          let top = ref 0 in
          let node = ref leaf in
          while !node >= 0 && reach.(!node) = 0 && !top < n do
            chain.(!top) <- !node;
            incr top;
            node := t.parent.(!node)
          done;
          let state = if !node >= 0 && reach.(!node) = 1 then 1 else 2 in
          for k = 0 to !top - 1 do
            reach.(chain.(k)) <- state
          done;
          if state = 1 then incr connected
        end)
      t.leaf_ids;
    Float.of_int !connected /. Float.of_int leaf_count
  end

let sync_parents t =
  let sink = t.s.sink in
  for i = 0 to t.s.n - 1 do
    t.parent.(i) <-
      (if i = sink then -1
       else
         let p = Route_tree.parent t.routes i in
         if p < 0 || not (t.s.alive i) then -2 else p)
  done;
  Link_layer.refresh_hop_tariffs t.s.link ~sink ~parent:t.parent ~tx_j:t.hop_tx
    ~hop_kind:t.hop_kind

(* Every tree update — full or spliced — feeds the coverage and
   availability accumulators at its instant. *)
let record_stats t now =
  let f = connected_fraction t in
  Stat.update t.coverage ~time:now ~value:f;
  Stat.update t.avail ~time:now
    ~value:(if f >= t.s.cfg.availability_threshold then 1.0 else 0.0)

(* Mirror of Net_sim.rebuild. *)
let rebuild t now =
  t.rebuilds <- t.rebuilds + 1;
  Route_tree.rebuild t.routes ~weight:t.weight ~alive:t.s.alive;
  sync_parents t;
  record_stats t now

let record_death t i now =
  let at =
    let d = Fleet_ledger.died_at_s t.s.ledger i in
    if Float.is_nan d then now else d
  in
  t.deaths <- (i, at) :: t.deaths;
  (match t.s.trace with
  | None -> ()
  | Some tr -> Trace.record tr ~time:at ("death:" ^ Int.to_string i));
  t.rebuilds <- t.rebuilds + 1;
  (match t.s.cfg.policy with
  | Routing.Min_energy ->
    Route_tree.repair_death t.routes ~weight:t.weight ~alive:t.s.alive ~tie_free:true ~dead:i
  | Routing.Min_hop | Routing.Max_lifetime ->
    Route_tree.rebuild t.routes ~weight:t.weight ~alive:t.s.alive);
  sync_parents t;
  record_stats t now

let crash t node now =
  if t.s.alive node then begin
    Fleet_ledger.crash t.s.ledger node ~now;
    record_death t node now
  end

(* A replaced fade can lower the pair cost (or resurrect a NaN link),
   which may improve remote paths — only a fade that worsens both
   directions is eligible for the local tree-edge repair. *)
let fade t ~a ~b ~db now =
  let link = t.s.link in
  let before_ab = Link_layer.weight_j link a b and before_ba = Link_layer.weight_j link b a in
  Link_layer.set_fade link ~a ~b ~db;
  let after_ab = Link_layer.weight_j link a b and after_ba = Link_layer.weight_j link b a in
  let worsened old_w new_w =
    if Float.is_nan new_w then true else (not (Float.is_nan old_w)) && new_w >= old_w
  in
  t.rebuilds <- t.rebuilds + 1;
  (match t.s.cfg.policy with
  | Routing.Min_energy when worsened before_ab after_ab && worsened before_ba after_ba ->
    Route_tree.repair_weight_increase t.routes ~weight:t.weight ~alive:t.s.alive ~tie_free:true
      ~a ~b
  | _ -> Route_tree.rebuild t.routes ~weight:t.weight ~alive:t.s.alive);
  sync_parents t;
  record_stats t now

(* Periodic continuous-flow accounting, as in Lifetime_sim: every row
   settled in node order, a death repairing the tree before the next
   row ([pool] shards death-free ticks; see {!Fleet_ledger.account_all}).
   What [account_s] times. *)
let account_tick ?pool t now =
  Fleet_ledger.account_all ?pool t.s.ledger ~now ~on_death:(fun i -> record_death t i now)

(* --- stage 3: the report channel ----------------------------------------
   Report streams on the engine's indexed channel: one shared handler
   plus per-node period/activation columns.  Phases are drawn from the
   run seed in node order, exactly as Net_sim does, so the (time, seq)
   chronology and, with a trace, the "report:<n>" labels are those of
   one closure per node.  Each report runs {!Fleet_ledger.report}: the
   activation charge, then the walk over [parent]/[hop_tx]/[hop_kind].
   A charge that kills a node calls back into [record_death], whose
   repair refreshes the three arrays before the walk goes on.  The
   batch drain hands maximal runs of consecutive report events to one
   body that replays them in order — it saves the per-event queue pops,
   not the walks (DESIGN.md records why a parallel replay was
   removed).  What [forward_s] times. *)

let schedule_reports ?phase t ~seed =
  let s = t.s in
  let n = s.n and engine = s.engine and clk = s.clk and fleet = s.cfg.fleet in
  let rng = Rng.create seed in
  let period = Array.make n 0.0 in
  let activation = Array.make n 0.0 in
  let route =
    Fleet_ledger.route s.ledger ~clock:clk ~sink:s.sink ~parent:t.parent ~hop_tx:t.hop_tx
      ~hop_kind:t.hop_kind ~activation ~rx_j:(Link_layer.cost_rx_j s.link)
      ~reader_j:(Link_layer.reader_cost_rx_j s.link) ~counts:s.counts
      ~on_death:(fun i -> record_death t i clk.Engine.v)
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
  (* The fire time comes from the clock cell, not an argument: a float
     passed to a closure is boxed on every call. *)
  let note_fire idx =
    match s.trace with
    | None -> ()
    | Some tr -> Trace.record tr ~time:clk.Engine.v ("fire:report:" ^ Int.to_string idx)
  in
  let replay e count =
    let times = Engine.batch_times e and idxs = Engine.batch_idxs e in
    for k = 0 to count - 1 do
      let idx = Array.unsafe_get idxs k in
      clk.Engine.v <- Array.unsafe_get times k;
      note_fire idx;
      report_event e idx
    done
  in
  let replay =
    match phase with
    | None -> replay
    | Some pt ->
      fun e count ->
        let t0 = pt.clock () in
        replay e count;
        pt.forward_s <- pt.forward_s +. (pt.clock () -. t0)
  in
  let min_period = ref Float.infinity in
  for node = 0 to n - 1 do
    if node <> s.sink then begin
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
  (* Arm the drain once the window is known: every report stream re-arms
     no sooner than the minimum period after its own fire time, the
     engine's no-overtake precondition. *)
  if !min_period > 0.0 && Float.is_finite !min_period then
    Engine.set_batch_handler engine ~handler ~window_s:!min_period replay

(* --- stage 4: faults ----------------------------------------------------
   Crash and fade events, each a tree repair or rebuild, so their wall
   clock goes to [rebuild_s].  (Battery faults were applied in setup.) *)

let schedule_faults ?phase t =
  let engine = t.s.engine in
  let at_fault ~label at handler =
    Engine.schedule_at ~label engine at
      (timed phase add_rebuild (fun e -> handler (Engine.now_s e)))
  in
  List.iter
    (function
      | Fault_plan.Node_crash { node; at } ->
        at_fault ~label:("fault:crash:" ^ Int.to_string node) at (crash t node)
      | Fault_plan.Link_fade { a; b; db; at } ->
        at_fault ~label:(Printf.sprintf "fault:fade:%d-%d" a b) at (fade t ~a ~b ~db)
      | Fault_plan.Battery_scale _ -> ())
    t.s.cfg.faults

(* --- stage 5: finalize --------------------------------------------------
   Restore the agents from the ledger so reporting — and callers holding
   [outcome.agents] — read the run's final state, close the time
   averages and check the run-end invariant: every report ends its walk
   delivered or dropped, so nothing is in flight once the run is over. *)

let finalize (t : tree) ~end_s : outcome =
  let s = t.s in
  let c = s.counts in
  if c.generated <> c.delivered + c.dropped then
    failwith
      (Printf.sprintf "Cosim: %d reports generated but %d delivered + %d dropped" c.generated
         c.delivered c.dropped);
  Fleet_ledger.write_back s.ledger s.agents;
  Stat.close t.coverage ~time:end_s;
  Stat.close t.avail ~time:end_s;
  let deaths = List.sort (fun (_, a) (_, b) -> Float.compare a b) (List.rev t.deaths) in
  let sum f =
    Energy.joules (Array.fold_left (fun acc a -> acc +. Energy.to_joules (f a)) 0.0 s.agents)
  in
  let time_avg tw = let v = Stat.time_average tw in if Float.is_nan v then 1.0 else v in
  {
    generated = c.generated;
    delivered = c.delivered;
    dropped = c.dropped;
    delivery_ratio =
      (if c.generated = 0 then 0.0 else Float.of_int c.delivered /. Float.of_int c.generated);
    first_death = (match deaths with [] -> None | (_, at) :: _ -> Some (Time_span.seconds at));
    deaths = List.map (fun (i, at) -> (i, Time_span.seconds at)) deaths;
    dead_at_end =
      Array.fold_left (fun acc a -> if Node_agent.alive a then acc else acc + 1) 0 s.agents;
    energy_spent = sum Node_agent.consumed_energy;
    energy_harvested = sum Node_agent.harvested_energy;
    availability = time_avg t.avail;
    mean_coverage = time_avg t.coverage;
    rebuilds = t.rebuilds;
    events = Engine.event_count s.engine;
    agents = s.agents;
  }

(* The stages in order.  The body takes the router explicitly: [run]
   passes the fleet's own, [run_many]'s parallel shards pass
   private-memo clones so fade faults (which write per-distance energies
   through the memo) never race.  The initial rebuild, the report
   phases, the periodic ticks and the faults are set up in that order —
   it fixes the engine's insertion sequence, so it is part of the
   chronology. *)
let run_with_router ?trace ?pool ?phase ~router cfg ~seed =
  let s = setup ?trace ~router cfg in
  let t = tree s ~router in
  let rebuild = timed phase add_rebuild (rebuild t) in
  let account = timed phase add_account (account_tick ?pool t) in
  rebuild 0.0;
  schedule_reports ?phase t ~seed;
  let horizon_s = Time_span.to_seconds cfg.horizon in
  (* Periodic residual-aware rebuild, as in Net_sim. *)
  Engine.every_s ~label:"rebuild" s.engine ~period_s:(Time_span.to_seconds cfg.rebuild_period)
    ~until_s:horizon_s (fun _e ->
      rebuild s.clk.Engine.v;
      true);
  Engine.every_s ~label:"account" s.engine
    ~period_s:(Time_span.to_seconds cfg.accounting_period) ~until_s:horizon_s (fun _e ->
      account s.clk.Engine.v;
      true);
  schedule_faults ?phase t;
  let end_s = Engine.run_s ~until_s:horizon_s s.engine in
  account end_s;
  finalize t ~end_s

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
