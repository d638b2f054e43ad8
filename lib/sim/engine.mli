(** Discrete-event simulation engine: a thin, deterministic event loop.
    All node- and network-level simulations in the toolkit run on it.

    Two parallel APIs expose the same engine.  The [Time_span.t] entry
    points are the readable default; the [_s] suffixed variants work on
    raw float seconds and are the per-event fast path — with no trace
    attached, a run through [every_s]/[run_s] and the cell API
    ({!clock_cell}, {!schedule_cell}, {!schedule_idx_cell}) allocates
    no per-event garbage (events live in unboxed parallel arrays, the
    clock is a raw double, trace hooks cost one branch).  A computed
    float handed to [schedule_s] from another module is boxed at the
    call: nothing is inlined across modules under dune's default
    [-opaque] build. *)

open Amb_units

type t

val default_calendar_threshold : int
(** Pending-event population above which the engine migrates its
    binary heap into a {!Calendar_queue} (4096).  Every experiment in
    the suite stays far below it — only city-scale fleets migrate. *)

val create : ?trace:Trace.t -> ?calendar_threshold:int -> unit -> t
(** [create ?trace ()] — fresh engine at time 0.  When [trace] is given,
    every scheduling records ["schedule:<label>"] at the current clock
    and every executed callback records ["fire:<label>"] at its fire
    time, so tests can assert event ordering.  [calendar_threshold]
    (default {!default_calendar_threshold}) sets the pending-event
    population at which the binary heap hands the pending set over to a
    calendar queue — amortized O(1) scheduling for 10^5+ concurrent
    events, with the identical (time, insertion) pop order; the
    hand-over is one-way and invisible to callers. *)

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
    callbacks and labels (the queues themselves carry only the slot
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

val register_handler : ?label:string -> t -> (t -> int -> unit) -> int
(** Register a shared handler on the engine's indexed event channel and
    return its id.  One handler serves any number of pending events, so
    a fleet scheduling a report stream per node stores one closure plus
    an int per event instead of one closure per node.  With a trace
    attached, each event records ["<label>:<idx>"] (default label
    ["handler"]) — the same strings the equivalent per-node closures
    would have produced. *)

val schedule_idx_s : t -> handler:int -> idx:int -> delay_s:float -> unit
(** Enqueue the indexed event [(handler, idx)] after [delay_s] seconds:
    at fire time the registered handler is called with [idx].  Indexed
    events share the engine's single (time, insertion-seq) order with
    closure events — interleavings are identical to the closure
    encoding.  Raises [Invalid_argument] on a negative delay. *)

val schedule_idx_cell : t -> handler:int -> idx:int -> unit
(** [schedule_idx_s] with the delay taken from {!delay_cell}: the fully
    unboxed re-arming path (two immediate ints and a cell store, no
    float crossing a call boundary). *)

val set_batch_handler : t -> handler:int -> window_s:float -> (t -> int -> unit) -> unit
(** Drain consecutive pending events of [handler] as batches.  When the
    run loop (heap or calendar backend alike) meets a pending event on
    that channel, it pops the maximal run of consecutive same-channel
    events — stopping at the run horizon, at any event on another
    channel or a plain closure event, and strictly before
    [first fire time + window_s] — and calls [fn engine count] once
    with the drained [(time, idx)] pairs readable through
    {!batch_times}/{!batch_idxs}.

    The contract that keeps chronology exact: [window_s] must be a
    positive lower bound on the re-arm delay of every stream scheduled
    on the channel, so nothing the batch body pushes can land inside
    the drained window.  The body owns the per-event observables the
    loop would have produced — it must write each event's fire time
    into {!clock_cell} as it replays the event (the one sanctioned
    exception to the cell's read-only rule) and record any
    ["fire:<label>:<idx>"] trace lines itself; the drain records no
    fire lines and bumps {!event_count} by the whole batch up front.
    Raises [Invalid_argument] for an unregistered handler or a
    non-positive window. *)

val batch_times : t -> float array
(** Fire times of the current batch, in pop order; only the first
    [count] slots of a [fn engine count] call are meaningful.  Re-fetch
    inside every call — the array is replaced when a batch outgrows
    it. *)

val batch_idxs : t -> int array
(** Event indices of the current batch (same validity rule as
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
