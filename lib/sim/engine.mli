(** Discrete-event simulation engine: a thin, deterministic event loop.
    All node- and network-level simulations in the toolkit run on it.

    Two parallel APIs expose the same engine.  The [Time_span.t] entry
    points are the readable default; the [_s] suffixed variants work on
    raw float seconds and are the per-event fast path — with no trace
    attached, a run through [every_s]/[run_s], the cell API
    ({!clock_cell}, {!schedule_cell}) and the periodic channel
    ({!periodic_channel}) allocates no per-event garbage (events live in unboxed
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
  ?label:string ->
  ?timer:(unit -> float) * (float -> unit) ->
  t ->
  periods:float array ->
  (int -> bool) ->
  unit
(** Install the engine's periodic stream channel: stream [i] reports
    every [periods.(i)] seconds through the shared handler [fn i] (a
    non-positive or non-finite entry means no stream [i]).  [fn i]
    returns [true] to re-arm stream [i] one period after this fire and
    [false] to end it.  A fleet reporting per node stores one closure
    plus an int per pending report instead of a closure per node.  With
    a trace attached, each scheduling and firing records
    ["schedule:<label>:<i>"] / ["fire:<label>:<i>"] (default label
    ["stream"]) — the same strings the equivalent per-stream closures
    would have produced.

    Streams of one period share one ring: a flat FIFO sized once to
    their count, since a stream has at most one report pending.  A
    re-arm lands at [fire time +. period] with the largest sequence
    number so far, and float addition is monotone, so it is never
    earlier than any report pending in its ring and an O(1) append
    keeps the ring in (time, insertion) order.  Initial reports
    ({!arm_s}) may arrive in any order: each ring is sorted once when a
    run starts.

    When a ring head is the (time, insertion)-least pending event, the
    run loop drains that ring in place: per event it pops the head,
    sets the clock, counts the event, records the fire line, calls
    [fn] and appends the re-arm on [true].  It goes on while the ring's
    new head still precedes every other ring's head and the closure
    heap's root, and stops at the run horizon and on {!stop}.  The
    chronology is exactly that of self-re-arming closures, and [fn] may
    schedule closures, {!arm_s} streams or {!stop} the run.  A re-arm
    raises [Invalid_argument] like {!arm_s} (NaN time, ring full, or
    earlier than the ring's tail: the fixed-period contract is broken,
    and the engine raises rather than re-sort).

    [timer], when given, is a clock and an accumulator: the run loop
    reads the clock on entry to and exit from every drain and passes
    the difference to the accumulator — one interval per drain, not
    per event.  Cost per event is O(1); a drain entry is O(number of
    distinct periods) — meant for a handful.  Raises
    [Invalid_argument] when a channel is already installed. *)

val arm_s : t -> idx:int -> delay_s:float -> unit
(** Schedule stream [idx]'s first report [delay_s] seconds from now
    (an initial phase, normally below the period).  Raises
    [Invalid_argument] on a negative or NaN delay, for an index that is
    not a stream, when the stream's ring is full (as many reports of
    that period pending as it has streams), and, once the ring has
    been sorted, for a time earlier than the ring's tail. *)

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
