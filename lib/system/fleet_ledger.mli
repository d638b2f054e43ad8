(** Struct-of-arrays energy ledger: the co-simulation's energy state.

    A fleet of per-object {!Node_agent}s costs a pointer chase and a
    mixed record per accounting touch, so {!Cosim} copies the agents
    into one unboxed float matrix of node-major ledger rows
    ([died_at]/[last_account]/[reserve]/[consumed]/[harvested] state,
    [sleep]/[regulator]/[income]/[capacity] parameters, plus a crashed
    bitset) and runs every charge and accounting tick over those —
    allocation-free array arithmetic whose whole per-node row spans two
    cache lines instead of nine columns — then one {!write_back} at run
    end so reporting still reads the agents.

    The kernels replicate {!Node_agent.account}/[charge]/[crash]
    float-op for float-op, so ledgers, interpolated death instants and
    digests are bit-for-bit those of a run charged through the agents;
    the qcheck oracle in [test/test_forward_fast.ml] holds {!Cosim} to
    the per-object reference run in [test/cosim_reference.ml] across
    fleet shapes, fault plans, policies and jobs counts.

    [died_at] uses the same NaN-while-alive encoding as the agent
    ledger. *)

type t

val of_agents : ?diurnal:Amb_energy.Day_profile.t -> Node_agent.t array -> t
(** Snapshot the agents' parameters and state into columns.  Take the
    snapshot after any {!Node_agent.scale_battery} faults have been
    applied.  [diurnal] must be the profile whose
    {!Amb_energy.Day_profile.income_multiplier} the agents were created
    with; it is consulted only for nodes that actually sample it
    ({!Node_agent.has_income_multiplier}).  The kernels evaluate it
    from the profile's flat table inside this module, with the float
    ops of [income_multiplier], so a diurnal run allocates no more per
    event than a profile-free one. *)

val length : t -> int
val alive : t -> int -> bool
val reserve_j : t -> int -> float

val died_at_s : t -> int -> float
(** Raw death instant; NaN while alive. *)

val lifetime_weight_into : t -> int -> Amb_sim.Engine.cell -> unit
(** [lifetime_weight_into ledger i c] — the max-lifetime price of a hop
    sent by [i]: [c.v] (the link cost; NaN = no link, left as is) over
    [i]'s reserve, or [Float.max_float /. 1e6] when the reserve is
    spent.  Allocates nothing: the reserve never leaves this module. *)

val account : t -> int -> now:float -> unit
(** {!Node_agent.account} on the columns. *)

val crash : t -> int -> now:float -> unit
(** {!Node_agent.crash} on the columns. *)

val clamp : float -> float -> float
(** [clamp cap v] — [Float.min cap v], bit for bit on every input
    (signed zeros and NaNs included), as the kernels inline it: one
    compare decides a strict order, and only equal operands and NaNs
    take [Float.min]'s [sign_bit] path. *)

val account_all : ?pool:Amb_sim.Domain_pool.t -> t -> now:float -> on_death:(int -> unit) -> unit
(** Settle every node to [now], firing [on_death i] between a node's
    accounting and the next node's, in ascending node order — the
    per-object reference tick semantics.  With [pool], disjoint index
    ranges are folded in parallel: a read-only scan predicts deaths
    first, a death-free tick commits in parallel (per-node accounting
    is independent, so the result is order-blind), and any predicted
    death falls the whole tick back to the sequential loop so the
    callback interleaving — which rebuilds routes and re-reads
    mid-tick reserves — stays bit-for-bit deterministic at every
    [jobs].  These ticks are the only part of a {!Cosim} run that a
    pool shards; reports fire sequentially. *)

(** {2 The report kernel} *)

type tally = { mutable generated : int; mutable delivered : int; mutable dropped : int }
(** Report counters of a run. *)

val tally : unit -> tally
(** Fresh zeroed counters. *)

type route
(** The forwarding state one report walk reads: the ledger, the engine
    clock, the collection tree and its hop tariffs, the per-node
    activation energies, the receiver tariffs, the counters to bump
    and the death callback. *)

val route :
  t ->
  clock:Amb_sim.Engine.cell ->
  sink:int ->
  parent:int array ->
  hop_tx:float array ->
  hop_kind:int array ->
  activation:float array ->
  rx_j:float ->
  reader_j:float ->
  counts:tally ->
  on_death:(int -> unit) ->
  route
(** Bundle a run's forwarding state.  The arrays are held, not copied:
    [parent.(i)] is the next hop of [i] (negative = orphan or dead),
    [hop_tx.(i)] that hop's sender tariff and [hop_kind.(i)] its
    {!Link_layer.hop_normal}/[hop_tag]/[hop_sink_parent] receiver
    class, as {!Link_layer.refresh_hop_tariff} fills them.
    [on_death i] runs when a charge kills node [i], before the walk
    goes on; it may rewrite the three arrays in place (a route repair)
    and the walk reads the new values on its next hop. *)

val report : route -> int -> bool
(** [report r i] — one report of node [i] at the clock's current time,
    or [false] (nothing counted, nothing charged) when [i] is dead.
    Counts the report as generated, charges [activation.(i)] when
    positive, then walks [i]'s packet towards the sink: per hop the
    sender pays [hop_tx], the receiver [rx_j] ([reader_j] on a tag
    hop, nothing when it is the sink); a missing hop, NaN tariff,
    death or [length] hops drop it.  The float operations and their
    order are those of the per-object {!Node_agent.charge} walk, so
    reserves and death instants are bit-identical to it.  Allocates
    nothing unless [on_death] does. *)

val write_back : t -> Node_agent.t array -> unit
(** Restore the columns into the agents (via {!Node_agent.restore}) so
    end-of-run reporting reads them as if the agents had been charged
    directly. *)

val words : t -> int
(** Heap words the ledger's columns occupy — the bench gates this per
    node so the ledger's footprint cannot regress silently. *)
