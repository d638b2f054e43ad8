(** Whole-fleet co-simulation (see .mli for the model contract).

    This is the fast packet simulator.  Its forwarding walk,
    death-triggered tree updates and report-phase RNG discipline follow
    {!Amb_net.Net_sim}, the plain reference that rebuilds the whole tree
    after every death and prices each hop on the spot, so a flat-budget
    fleet ({!Fleet.flat}) reproduces it; the continuous energy
    accounting follows {!Amb_node.Lifetime_sim} through the
    {!Fleet_ledger} rows, the run's one energy state.  E27 checks both
    degenerate cases, and [test/cosim_reference.ml] holds the whole run
    to a plain per-object reference bit for bit.

    A run is five stages, each below under its own header: setup
    (the link layer, the ledger, battery faults), the
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
  (* NaN fails every comparison, so finiteness is checked first: a NaN
     or infinite horizon or period would run until killed. *)
  let check what span =
    let s = Time_span.to_seconds span in
    if not (Float.is_finite s) then invalid_arg ("Cosim.config: non-finite " ^ what);
    if s <= 0.0 then invalid_arg ("Cosim.config: non-positive " ^ what)
  in
  check "horizon" horizon;
  check "rebuild period" rebuild_period;
  check "accounting period" accounting_period;
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
  agents : Fleet_ledger.t;
}

type phase_times = {
  clock : unit -> float;
  mutable forward_s : float;
  mutable account_s : float;
  mutable rebuild_s : float;
  mutable repairs : int;
  mutable full_rebuilds : int;
  mutable reattached : int;
}

let phase_times ~clock =
  { clock; forward_s = 0.0; account_s = 0.0; rebuild_s = 0.0; repairs = 0; full_rebuilds = 0;
    reattached = 0 }

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
   The ledger built from the fleet's tier configs, battery faults
   applied to it before the clock starts: from here to the outcome its
   rows are the run's energy state. *)

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
  let ledger =
    Fleet_ledger.create ?diurnal:cfg.diurnal ~sampling_w:(Link_layer.sampling_power_w link) fleet
  in
  List.iter
    (function
      | Fault_plan.Battery_scale { node; scale } ->
        Fleet_ledger.scale_battery ledger node ~factor:scale
      | Fault_plan.Node_crash _ | Fault_plan.Link_fade _ -> ())
    cfg.faults;
  { cfg; n; sink = fleet.Fleet.sink; engine; clk = Engine.clock_cell engine; trace; link;
    ledger; alive = Fleet_ledger.alive ledger; counts = Fleet_ledger.tally () }

(* --- stage 2: the collection tree ---------------------------------------
   Parents and their hop tariffs, coverage and availability, and every
   way the tree changes: full rebuilds, death repairs and the crash and
   fade fault handlers.  A full rebuild or a fade refreshes every node;
   a [Min_energy] death repair refreshes only the subtree the route
   tree re-attached ({!Route_tree.affected}), which keeps a death
   O(subtree) from the Dijkstra to the coverage count.  The initial and
   periodic rebuilds and the fault handlers are what [rebuild_s] times;
   a battery death is repaired inside the report walk or accounting
   tick that found it, and timed there. *)

type tree = {
  s : setup;
  phase : phase_times option;
  routes : Route_tree.t;
  parent : int array;
  hop_tx : float array;
      (* Hop tariffs, twin to [parent]: [hop_tx.(i)] is the sender cost
         of the hop i -> parent.(i) and [hop_kind.(i)] its receiver
         class.  Refreshed with [parent] — exactly when the tree (or a
         fade) changes — so the report walk reads flat arrays with zero
         link-layer calls. *)
  hop_kind : int array;
  weight : Route_tree.weight;
  leaf_ids : int array;
  reach : int array;
      (* Coverage memo over [parent], kept across updates: 0 unknown,
         1 reaches the sink, 2 does not.  Every live leaf's entry is
         known, and every known entry is true for the current [parent]. *)
  chain : int array;
  mutable connected : int;  (* live leaves whose [reach] is 1 *)
  coverage : Stat.time_weighted;
  avail : Stat.time_weighted;
  mutable rebuilds : int;
  mutable deaths : (int * float) list;  (* newest first *)
}

let tree ?phase s ~router =
  let n = s.n in
  let link = s.link in
  (* Policy cost of hop [i -> j] at row slot [k], into [c]: link-layer
     weights (fade-aware) with ledger reserves feeding the max-lifetime
     policy. *)
  let weight : Route_tree.weight =
    match s.cfg.policy with
    | Routing.Min_hop ->
      fun i j k c ->
        Link_layer.weight_into link i j k c;
        if not (Float.is_nan c.v) then c.v <- 1.0
    | Routing.Min_energy -> fun i j k c -> Link_layer.weight_into link i j k c
    | Routing.Max_lifetime ->
      fun i j k c ->
        Link_layer.weight_into link i j k c;
        Fleet_ledger.lifetime_weight_into s.ledger i c
  in
  {
    s;
    phase;
    routes = Route_tree.create ~rows:(Routing.rows router) ~sink:s.sink;
    parent = Array.make n (-2);
    hop_tx = Array.make n Float.nan;
    hop_kind = Array.make n 0;
    weight;
    leaf_ids = Fleet.tier_nodes s.cfg.fleet Fleet.Sensor_leaf;
    reach = Array.make n 0;
    chain = Array.make n 0;
    connected = 0;
    coverage = Stat.time_weighted ();
    avail = Stat.time_weighted ();
    rebuilds = 0;
    deaths = [];
  }

(* Re-derive [i]'s parent and hop tariff from the route tree. *)
let sync_node t i =
  let sink = t.s.sink in
  t.parent.(i) <-
    (if i = sink then -1
     else
       let p = Route_tree.parent t.routes i in
       if p < 0 || not (t.s.alive i) then -2 else p);
  Link_layer.refresh_hop_tariff t.s.link ~sink ~parent:t.parent ~tx_j:t.hop_tx
    ~hop_kind:t.hop_kind i

(* Walk [leaf]'s parent chain up to the first node whose reachability is
   known, memoising the answer along the chain (path compression), and
   count the leaf if it reaches the sink.  Parent chains share long
   suffixes, so a whole-fleet count is O(n) instead of
   O(leaves * depth). *)
let count_leaf t leaf =
  let n = t.s.n and reach = t.reach and chain = t.chain in
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
  if state = 1 then t.connected <- t.connected + 1

(* After a rebuild or a fade: every node. *)
let sync_all t =
  for i = 0 to t.s.n - 1 do
    sync_node t i
  done;
  Array.fill t.reach 0 t.s.n 0;
  t.reach.(t.s.sink) <- 1;
  t.connected <- 0;
  Array.iter (fun leaf -> if t.s.alive leaf then count_leaf t leaf) t.leaf_ids

(* After a local repair: only the listed nodes changed parent (or, for
   the dead node, liveness), and a node outside the list never has one
   inside on its chain — it would be in the subtree itself — so only
   the listed memo entries can be stale.  Take back their old
   contributions, forget them, and re-walk the listed live leaves. *)
let sync_affected t =
  let routes = t.routes and reach = t.reach and tiers = t.s.cfg.fleet.Fleet.tiers in
  let count = Route_tree.affected_count routes in
  for k = 0 to count - 1 do
    let v = Route_tree.affected routes k in
    sync_node t v;
    if reach.(v) = 1 && tiers.(v) = Fleet.Sensor_leaf then t.connected <- t.connected - 1;
    reach.(v) <- 0
  done;
  reach.(t.s.sink) <- 1;
  for k = 0 to count - 1 do
    let v = Route_tree.affected routes k in
    if tiers.(v) = Fleet.Sensor_leaf && t.s.alive v then count_leaf t v
  done

let note_full_rebuild t =
  match t.phase with None -> () | Some pt -> pt.full_rebuilds <- pt.full_rebuilds + 1

let note_splice t =
  match t.phase with
  | None -> ()
  | Some pt ->
    let count = Route_tree.affected_count t.routes in
    if count > 0 then begin
      pt.repairs <- pt.repairs + 1;
      pt.reattached <- pt.reattached + count
    end

(* Every tree update — full or spliced — feeds the coverage and
   availability accumulators at its instant.  Coverage is the exact
   integer count over the leaf total, so a spliced update yields the
   same double a whole-fleet recount would. *)
let record_stats t now =
  let leaf_count = Array.length t.leaf_ids in
  let f =
    if leaf_count = 0 then 1.0 else Float.of_int t.connected /. Float.of_int leaf_count
  in
  Stat.update t.coverage ~time:now ~value:f;
  Stat.update t.avail ~time:now
    ~value:(if f >= t.s.cfg.availability_threshold then 1.0 else 0.0)

let full_rebuild t =
  Route_tree.rebuild t.routes ~weight:t.weight ~alive:t.s.alive;
  note_full_rebuild t;
  sync_all t

(* The initial tree and the periodic refresh: a counted full rebuild. *)
let rebuild t now =
  t.rebuilds <- t.rebuilds + 1;
  full_rebuild t;
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
    Route_tree.repair_death t.routes ~weight:t.weight ~alive:t.s.alive ~tie_free:true ~dead:i;
    note_splice t;
    sync_affected t
  | Routing.Min_hop | Routing.Max_lifetime -> full_rebuild t);
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
      ~a ~b;
    note_splice t;
    (* The fade reprices the pair for every node, so the refresh stays
       whole-fleet even when the tree splice was local. *)
    sync_all t
  | _ -> full_rebuild t);
  record_stats t now

(* Periodic continuous-flow accounting, as in Lifetime_sim: every row
   settled in node order, a death repairing the tree before the next
   row ([pool] shards death-free ticks; see {!Fleet_ledger.account_all}).
   What [account_s] times. *)
let account_tick ?pool t now =
  Fleet_ledger.account_all ?pool t.s.ledger ~now ~on_death:(fun i -> record_death t i now)

(* --- stage 3: the report channel ----------------------------------------
   Report streams on the engine's periodic channel: one shared handler,
   one ring per distinct report period.  Phases are drawn from the run
   seed in node order, as in Net_sim's reference run, so the (time, seq)
   chronology and, with a trace, the "report:<n>" labels are those of
   one closure per node.  The handler is {!Fleet_ledger.report}: the
   activation charge, then the walk over [parent]/[hop_tx]/[hop_kind],
   and [true] re-arms the stream.  A charge that kills a node calls
   back into [record_death], whose repair refreshes the three arrays
   before the walk goes on; a dead or crashed node answers [false] and
   is not re-armed.  The engine fires each ring's reports in place
   until another event comes first; [forward_s] times those drains, one
   clock read at each end of a drain. *)

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
  let timer = Option.map (fun pt -> (pt.clock, fun d -> pt.forward_s <- pt.forward_s +. d)) phase in
  for node = 0 to n - 1 do
    if node <> s.sink then begin
      let tier_cfg = Fleet.config_of fleet fleet.Fleet.tiers.(node) in
      match tier_cfg.Fleet.report_period with
      | None -> ()
      | Some p ->
        period.(node) <- Time_span.to_seconds p;
        activation.(node) <- Energy.to_joules tier_cfg.Fleet.activation_energy
    end
  done;
  Engine.periodic_channel ~label:"report" ?timer engine ~periods:period
    (Fleet_ledger.report route);
  for node = 0 to n - 1 do
    if period.(node) > 0.0 && Float.is_finite period.(node) then
      Engine.arm_s engine ~idx:node ~delay_s:(Rng.uniform rng 0.0 period.(node))
  done

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
   Close the time averages, sum the ledger and check the run-end
   invariant: every report ends its walk delivered or dropped, so
   nothing is in flight once the run is over.  The outcome hands out
   the ledger itself as the final per-node state. *)

let finalize (t : tree) ~end_s : outcome =
  let s = t.s in
  let c = s.counts in
  if c.generated <> c.delivered + c.dropped then
    failwith
      (Printf.sprintf "Cosim: %d reports generated but %d delivered + %d dropped" c.generated
         c.delivered c.dropped);
  Stat.close t.coverage ~time:end_s;
  Stat.close t.avail ~time:end_s;
  let deaths = List.sort (fun (_, a) (_, b) -> Float.compare a b) (List.rev t.deaths) in
  let ledger = s.ledger in
  let sum f =
    let acc = ref 0.0 in
    for i = 0 to s.n - 1 do
      acc := !acc +. f ledger i
    done;
    Energy.joules !acc
  in
  let dead = ref 0 in
  for i = 0 to s.n - 1 do
    if not (s.alive i) then incr dead
  done;
  let time_avg tw = let v = Stat.time_average tw in if Float.is_nan v then 1.0 else v in
  {
    generated = c.generated;
    delivered = c.delivered;
    dropped = c.dropped;
    delivery_ratio =
      (if c.generated = 0 then 0.0 else Float.of_int c.delivered /. Float.of_int c.generated);
    first_death = (match deaths with [] -> None | (_, at) :: _ -> Some (Time_span.seconds at));
    deaths = List.map (fun (i, at) -> (i, Time_span.seconds at)) deaths;
    dead_at_end = !dead;
    energy_spent = sum Fleet_ledger.consumed_j;
    energy_harvested = sum Fleet_ledger.harvested_j;
    availability = time_avg t.avail;
    mean_coverage = time_avg t.coverage;
    rebuilds = t.rebuilds;
    events = Engine.event_count s.engine;
    agents = ledger;
  }

(* The stages in order.  The body takes the router explicitly: [run]
   passes the fleet's own, and a caller may pass any router over the
   same topology — a router is immutable, so concurrent runs share
   one.  The initial rebuild, the report phases, the periodic ticks and
   the faults are set up in that order — it fixes the engine's
   insertion sequence, so it is part of the chronology. *)
let run_with_router ?trace ?pool ?phase ~router cfg ~seed =
  let s = setup ?trace ~router cfg in
  let t = tree ?phase s ~router in
  let rebuild = timed phase add_rebuild (rebuild t) in
  let account = timed phase add_account (account_tick ?pool t) in
  rebuild 0.0;
  schedule_reports ?phase t ~seed;
  let horizon_s = Time_span.to_seconds cfg.horizon in
  (* Periodic residual-aware rebuild, as in Net_sim's reference run. *)
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
