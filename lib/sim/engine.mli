(** Discrete-event simulation engine: a thin, deterministic event loop.
    All node- and network-level simulations in the toolkit run on it.

    Two parallel APIs expose the same engine.  The [Time_span.t] entry
    points are the readable default; the [_s] suffixed variants work on
    raw float seconds and are the per-event fast path — with no trace
    attached, a run through [every_s]/[run_s], the cell API
    ({!clock_cell}, {!schedule_cell}) and the periodic channel
    ({!rearm}) allocates no per-event garbage (events live in unboxed
    parallel arrays, the clock is a raw double, trace hooks cost one
    branch).  A computed
    float handed to [schedule_s] from another module is boxed at the
    call: nothing is inlined across modules under dune's default
    [-opaque] build. *)

open Amb_units

type t

val create : ?trace:Trace.t -> unit -> t
(** [create ?trace ()] — fresh engine at time 0.  When [trace] is given,
    every scheduling records ["schedule:<label>"] at the current clock
    and every executed callback records ["fire:<label>"] at its fire
    time, so tests can assert event ordering. *)

val now : t -> Time_span.t
(** Current simulation time. *)

val now_s : t -> float
(** Current simulation time in raw seconds (no boxing through
    [Time_span.t]; the float return itself is boxed at a call from
    another module — hot callers read {!clock_cell}). *)

val event_count : t -> int
(** Callbacks executed so far. *)

val pending : t -> int
(** Scheduled, not-yet-run callbacks. *)

val closure_slots : t -> int
(** Capacity of the slot table that holds pending closure events'
    callbacks and labels (the heap itself carries only the slot
    number).  Freed slots are reused, so it tracks the peak number of
    closure events pending at once — at most twice it, and at least 16
    — not the number ever scheduled. *)

val schedule_at : ?label:string -> t -> Time_span.t -> (t -> unit) -> unit
(** Run a callback at an absolute simulation time; raises
    [Invalid_argument] for times in the past.  [label] (default
    ["event"]) names the callback in the optional trace. *)

val schedule_at_s : ?label:string -> t -> float -> (t -> unit) -> unit
(** [schedule_at] on raw seconds. *)

val schedule : ?label:string -> t -> delay:Time_span.t -> (t -> unit) -> unit
(** Run a callback after a delay; raises [Invalid_argument] for negative
    delays. *)

val schedule_s : ?label:string -> t -> delay_s:float -> (t -> unit) -> unit
(** [schedule] on raw seconds (no [Time_span.t] boxing).  A caller in
    another module still boxes [delay_s]: nothing is inlined across
    modules under dune's default [-opaque] build, so the
    allocation-free per-event path is {!schedule_cell}. *)

type cell = Float_heap.cell = { mutable v : float }
(** A single mutable float in its own all-float record: reads and
    stores of [.v] are raw double loads/stores, never boxed. *)

val clock_cell : t -> cell
(** The engine clock as a {!cell}: reading [.v] inside a callback gives
    the current time without the boxed-float return {!now_s} pays
    across modules.  Callbacks must treat it as read-only. *)

val delay_cell : t -> cell
(** Scratch cell feeding {!schedule_cell}: store the relative delay in
    seconds into [.v] immediately before the call.  Clobbered by every
    scheduling operation, so never cache its contents. *)

val schedule_cell : ?label:string -> t -> (t -> unit) -> unit
(** [schedule_s] with the delay taken from {!delay_cell} instead of a
    (boxed) float argument: together with {!clock_cell} this makes a
    self-re-arming event loop fully allocation-free.  Raises
    [Invalid_argument] on a negative delay. *)

val periodic_channel :
  ?label:string -> t -> periods:float array -> (t -> int -> unit) -> unit
(** Install the engine's periodic stream channel: stream [i] reports
    every [periods.(i)] seconds through the shared handler [fn engine i]
    (a non-positive or non-finite entry means no stream [i]).  A fleet
    reporting per node stores one closure plus an int per pending
    report instead of a closure per node.  With a trace attached, each
    scheduling and firing records ["schedule:<label>:<i>"] /
    ["fire:<label>:<i>"] (default label ["stream"]) — the same strings
    the equivalent per-stream closures would have produced.

    Streams of one period share one ring: a flat FIFO sized once to
    their count, since a stream has at most one report pending.  A
    re-arm lands at [fire time +. period] with the largest sequence
    number so far, and float addition is monotone, so it is never
    earlier than any report pending in its ring and an O(1) append
    keeps the ring in (time, insertion) order.  Initial reports
    ({!arm_s}) may arrive in any order: each ring is sorted once when a
    run starts.  The run loop fires the (time, insertion)-least of the
    closure heap and the ring heads, so the chronology is exactly that
    of self-re-arming closures.  Cost per event is O(number of distinct
    periods) — meant for a handful.  Raises [Invalid_argument] when a
    channel is already installed. *)

val arm_s : t -> idx:int -> delay_s:float -> unit
(** Schedule stream [idx]'s first report [delay_s] seconds from now
    (an initial phase, normally below the period).  Raises
    [Invalid_argument] on a negative or NaN delay, for an index that is
    not a stream, when the stream's ring is full (as many reports of
    that period pending as it has streams), and, once the ring has
    been sorted, for a time earlier than the ring's tail. *)

val rearm : t -> idx:int -> unit
(** Schedule stream [idx]'s next report one period from now — what the
    handler calls as the report fires.  Same errors as {!arm_s}: an
    out-of-order append means the fixed-period contract is broken, and
    the engine raises rather than re-sort. *)

val set_batch_handler : t -> (t -> int -> unit) -> unit
(** Drain consecutive stream events as batches.  When the run loop meets
    a stream event, it pops the maximal run of consecutive stream events
    — stopping at the run horizon, at any closure event, and strictly
    before [first fire time + the shortest period] — and calls [fn
    engine count] once with the drained [(time, idx)] pairs readable
    through {!batch_times}/{!batch_idxs}.

    Every stream re-arms one period after its own fire, so nothing the
    body re-arms can land inside the drained window; the body must not
    schedule anything else inside it either.  The body owns the
    per-event observables the loop would have produced — it must write
    each event's fire time into {!clock_cell} as it replays the event
    (the one sanctioned exception to the cell's read-only rule) and
    record any ["fire:<label>:<idx>"] trace lines itself; the drain
    records no fire lines and bumps {!event_count} by the whole batch
    up front. *)

val batch_times : t -> float array
(** Fire times of the current batch, in pop order; only the first
    [count] slots of a [fn engine count] call are meaningful.  Re-fetch
    inside every call — the array is replaced when a batch outgrows
    it. *)

val batch_idxs : t -> int array
(** Stream indices of the current batch (same validity rule as
    {!batch_times}). *)

val stop : t -> unit
(** Abort the run after the current callback returns. *)

val run : ?until:Time_span.t -> t -> Time_span.t
(** Execute events in order until the queue is empty, {!stop} is called,
    or simulation time would pass [until] (then the clock is advanced to
    exactly [until]).  Returns the final simulation time. *)

val run_s : ?until_s:float -> t -> float
(** [run] on raw seconds. *)

val every :
  ?label:string -> t -> period:Time_span.t -> ?until:Time_span.t -> (t -> bool) -> unit
(** Periodic process: the callback runs every [period] starting one
    period from now, until it returns [false] or [until] passes.  Raises
    [Invalid_argument] for non-positive periods.  [label] (default
    ["periodic"]) names each tick in the optional trace.  The horizon is
    normalised to a float once at registration and each firing re-arms
    one reused tick closure. *)

val every_s :
  ?label:string -> t -> period_s:float -> ?until_s:float -> (t -> bool) -> unit
(** [every] on raw seconds. *)
