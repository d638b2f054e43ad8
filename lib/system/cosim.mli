(** Whole-fleet co-simulation on one discrete-event clock.

    One {!Amb_sim.Engine} run couples, per node, the energy state
    ({!Fleet_ledger}: battery drain, diurnal harvest income) to the traffic
    the node actually generates and forwards ({!Link_layer}: per-hop
    TX/RX energy), with collection-tree routing that reacts to node
    deaths and injected faults ({!Fault_plan}).

    Determinism: all randomness is the leaf report phases, drawn from
    [seed] in node order exactly as {!Amb_net.Net_sim}, the plain
    packet-level reference, does.  A flat-budget fleet ({!Fleet.flat}
    nodes on {!Fleet.homogeneous}, cached link costs, no faults)
    reproduces [Net_sim] on the same topology and seed: counts, first
    death, dead count and every node's raw reserve bit for bit, and
    [energy_spent] up to summation order.  Experiment E20 and the
    factory example run that fleet here. *)

open Amb_units
open Amb_net

type config = {
  fleet : Fleet.t;
  link : Link_layer.mode;
  policy : Routing.policy;
  horizon : Time_span.t;
  rebuild_period : Time_span.t;  (** periodic residual-aware tree rebuild *)
  accounting_period : Time_span.t;  (** continuous-flow integration step *)
  diurnal : Amb_energy.Day_profile.t option;  (** harvest income profile *)
  faults : Fault_plan.t;
  availability_threshold : float;
      (** the ambient function is "available" while at least this
          fraction of leaves has a route to the sink *)
}

val config :
  ?link:Link_layer.mode ->
  ?policy:Routing.policy ->
  ?rebuild_period:Time_span.t ->
  ?accounting_period:Time_span.t ->
  ?diurnal:Amb_energy.Day_profile.t ->
  ?faults:Fault_plan.t ->
  ?availability_threshold:float ->
  fleet:Fleet.t ->
  horizon:Time_span.t ->
  unit ->
  config
(** Defaults: [Cached] link costs, [Min_energy] policy, 4 h rebuilds,
    10 min accounting (matching {!Amb_node.Lifetime_sim}), no diurnal
    profile, no faults, availability threshold 0.9.  Raises
    [Invalid_argument] on non-positive or non-finite (NaN, infinite)
    horizons/periods or a threshold outside [0,1]. *)

type outcome = {
  generated : int;
  delivered : int;
  dropped : int;
  delivery_ratio : float;
  first_death : Time_span.t option;
  deaths : (int * Time_span.t) list;  (** (node, instant), ascending in time *)
  dead_at_end : int;
  energy_spent : Energy.t;  (** total consumed across the fleet *)
  energy_harvested : Energy.t;
  availability : float;  (** fraction of time coverage >= threshold *)
  mean_coverage : float;  (** time-averaged connected-leaf fraction *)
  rebuilds : int;
  events : int;  (** engine callbacks executed *)
  agents : Fleet_ledger.t;
      (** final per-node energy state: the run's ledger itself, read
          through the {!Fleet_ledger} accessors.  The field keeps its
          pre-ledger name only for the frozen benchmark's one reader
          (perfbench/bench.ml:358); it will be renamed once that line
          reads the ledger directly. *)
}

val run : ?trace:Amb_sim.Trace.t -> config -> seed:int -> outcome
(** Deterministic in the seed.  When [trace] is given it is threaded into
    the engine (labels ["report:<n>"], ["rebuild"], ["account"],
    ["fault:crash:<n>"], ["fault:fade:<a>-<b>"]) and deaths are recorded
    as ["death:<n>"] at their instant, so tests can assert event
    ordering. *)

type phase_times = {
  clock : unit -> float;  (** wall-clock source, e.g. [Unix.gettimeofday] *)
  mutable forward_s : float;
      (** report drains: walks, charges, re-arms, and the route repair
          of every battery death a walk causes *)
  mutable account_s : float;
      (** periodic + final accounting ticks, and the route repair of
          every battery death a tick finds *)
  mutable rebuild_s : float;
      (** initial + periodic tree rebuilds, and the crash and fade
          fault handlers (each a tree repair or rebuild) *)
  mutable repairs : int;
      (** local splices: [Min_energy] death repairs, and fade repairs
          that re-attached a tree edge's subtree *)
  mutable full_rebuilds : int;
      (** whole-tree Dijkstra runs: the initial and periodic rebuilds,
          deaths under [Min_hop]/[Max_lifetime], fades that may lower a
          pair's cost *)
  mutable reattached : int;
      (** nodes the local splices detached and re-attached, summed; a
          death's subtree counts the dead node itself *)
}
(** Wall-clock accumulators for a run's three bulk phases, plus the
    collection tree's update counters, filled when passed to
    {!run_with_router}.  Each timer covers one stage of the run:
    [forward_s] the report channel's ring drains (one interval per
    drain: a clock read as it starts and one as it ends), [account_s] the
    ledger's accounting ticks, [rebuild_s] the collection tree's
    rebuilds and fault repairs.  Purely observational — timing and
    counting never feed back into the simulation.  Repairs after a
    battery death are attributed to whichever phase raised them (a
    report walk or an accounting tick), never to [rebuild_s]. *)

val phase_times : clock:(unit -> float) -> phase_times
(** Fresh zeroed accumulators around [clock]. *)

val run_with_router :
  ?trace:Amb_sim.Trace.t ->
  ?pool:Amb_sim.Domain_pool.t ->
  ?phase:phase_times ->
  router:Routing.t ->
  config ->
  seed:int ->
  outcome
(** {!run} with the routing cache supplied explicitly.  A router is
    immutable, so concurrent runs — one per domain of a pool, say —
    may share one.  The run keeps its energy state in a
    {!Fleet_ledger} built from the fleet's tier configs, walks reports
    with {!Fleet_ledger.report} and returns that ledger as
    [outcome.agents].  [pool] shards only the periodic accounting
    ticks, over disjoint index ranges ({!Fleet_ledger.account_all}); a
    tick with a predicted death falls back to the sequential node
    order, so outcomes are bitwise identical at every pool size.  It is
    kept for the benchmark's pooled re-check; reports always fire
    sequentially.
    [phase] accumulates per-stage wall clock and the tree's update
    counters (see {!phase_times}).

    Raises [Failure] naming the three counts if a run ends with
    [generated <> delivered + dropped] — every report ends its walk in
    exactly one of the two, so a mismatch is a broken walk. *)
