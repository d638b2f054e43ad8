(** The co-simulation's energy ledger: each node's energy state, from
    a run's setup to its outcome.

    One unboxed float matrix of node-major rows
    ([died_at]/[last_account]/[reserve]/[consumed]/[harvested] state,
    [sleep]/[regulator]/[income]/[capacity]/[drain] parameters) plus a
    crashed bitset and a diurnal bitset.  {!Cosim} builds it from the
    fleet's tier configs ({!create}), applies battery faults to it
    ({!scale_battery}), runs every charge and accounting tick over it —
    allocation-free array arithmetic whose whole per-node row spans two
    cache lines — and hands it out as [outcome.agents], where
    reporting reads it through the accessors below.

    The kernels replicate the per-object reference ledger
    ([test/node_agent.ml]: [account]/[charge]/[crash]) float-op for
    float-op, so ledgers, interpolated death instants and digests are
    bit-for-bit those of a run charged node by node; the qcheck oracles
    in [test/test_forward_fast.ml] hold the freshly built rows to the
    reference's fields and {!Cosim} to the per-object reference run in
    [test/cosim_reference.ml] across fleet shapes, fault plans,
    policies and jobs counts.

    [died_at] is NaN while a node is alive. *)

type t

val create : ?diurnal:Amb_energy.Day_profile.t -> sampling_w:float -> Fleet.t -> t
(** One row per node of the fleet, from its tier's config: capacity
    (infinite for mains, else the [budget_override], else the battery's
    energy, else 0 — a battery-less node runs on harvest alone and
    never dies), reserve = capacity, the supply's harvest income and
    regulator efficiency, and the tier's sleep power plus
    [sampling_w], the MAC channel-sampling drain
    ({!Link_layer.sampling_power_w}), which tags never pay.  A node samples [diurnal] when one is given
    and its income is positive.  The kernels evaluate the profile from
    its flat table inside this module, with the float ops of
    {!Amb_energy.Day_profile.income_multiplier}, so a diurnal run
    allocates no more per event than a profile-free one. *)

val scale_battery : t -> int -> factor:float -> unit
(** [scale_battery t i ~factor] scales node [i]'s capacity and reserve
    (a battery-capacity fault, applied before the clock starts); mains
    rows are left as they are.  Raises [Invalid_argument] on a
    non-positive factor. *)

val of_agents : t -> t
(** A fresh copy of a ledger.  It exists only for the frozen benchmark's
    one reader (perfbench/bench.ml:358), which measures the final
    ledger of [outcome.agents] under this name; new code reads the
    outcome's ledger directly. *)

val length : t -> int
val alive : t -> int -> bool
val reserve_j : t -> int -> float

val died_at_s : t -> int -> float
(** Raw death instant; NaN while alive. *)

val consumed_j : t -> int -> float
val harvested_j : t -> int -> float

val residual_j : t -> int -> float
(** Reserve clamped at zero, for reporting (infinite for mains). *)

val last_account_s : t -> int -> float
(** Last settled accounting instant. *)

val crashed : t -> int -> bool
(** Failed by a crash fault rather than an empty battery. *)

val row : t -> int -> (string * float) list
(** Node [i]'s ten fields by name, in storage order — for tests that
    hold the rows to a reference. *)

val samples_diurnal : t -> int -> bool
(** Whether node [i]'s income follows the diurnal profile. *)

val lifetime_weight_into : t -> int -> Amb_sim.Engine.cell -> unit
(** [lifetime_weight_into ledger i c] — the max-lifetime price of a hop
    sent by [i]: [c.v] (the link cost; NaN = no link, left as is) over
    [i]'s reserve, or [Float.max_float /. 1e6] when the reserve is
    spent.  Allocates nothing: the reserve never leaves this module. *)

val account : t -> int -> now:float -> unit
(** Settle node [i]'s sleep drain and harvest income since its last
    accounting instant; may record an interpolated battery death. *)

val crash : t -> int -> now:float -> unit
(** Fault injection: settle node [i], then fail it at [now]. *)

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
    order are those of the per-object reference walk, so
    reserves and death instants are bit-identical to it.  Allocates
    nothing unless [on_death] does. *)

val words : t -> int
(** Heap words the ledger's columns occupy — the bench gates this per
    node so the ledger's footprint cannot regress silently. *)
