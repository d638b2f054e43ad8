(** Calendar event queue (Brown 1988): amortized O(1) enqueue/dequeue
    for city-scale pending-event populations, with the exact
    (time, sequence) pop order of the engine's binary heap.

    Events carry an unboxed float time, an int sequence number (equal
    times pop in ascending sequence — FIFO when the caller numbers
    pushes monotonically), two caller payload slots and two unboxed int
    slots (the engine's indexed event channel rides in those).  Storage is
    struct-of-arrays with intrusive per-bucket chains, so steady-state
    push/pop allocate nothing; [pop] hands the event back through
    out-fields instead of a tuple.  Far-future and non-finite times are
    parked on an overflow chain, so any float time except NaN is
    accepted.  The structure resizes itself (bucket count and width) as
    the population changes.  Single-domain use only. *)

type ('a, 'b) t

type fcell = { mutable f : float }
(** A float alone in an all-float record: reads of [.f] are raw double
    loads. *)

val create : ?buckets:int -> null_a:'a -> null_b:'b -> unit -> ('a, 'b) t
(** Empty queue.  [buckets] (default 16, rounded up to a power of two)
    sizes the initial calendar; it adapts from there.  [null_a] and
    [null_b] are placeholder payloads used to release slots to the GC
    after a pop. *)

val length : ('a, 'b) t -> int

val push : ('a, 'b) t -> time:float -> seq:int -> i1:int -> i2:int -> 'a -> 'b -> unit
(** Enqueue at absolute [time] with tie-break [seq].  [i1]/[i2] are
    opaque int payloads carried verbatim (pass 0 when unused); being
    required (not optional) keeps the hot push free of [Some]
    allocations.  Raises [Invalid_argument] on NaN times; any other
    float (including [infinity]) is accepted. *)

val time_cell : ('a, 'b) t -> fcell
(** Scratch cell feeding {!push_cell}: store the event time into [.f]
    immediately before the call. *)

val push_cell : ('a, 'b) t -> seq:int -> i1:int -> i2:int -> 'a -> 'b -> unit
(** {!push} with the time taken from {!time_cell}: a float argument is
    boxed at every call from another module, a cell store is not, so
    this is the allocation-free push. *)

val remeasure : ('a, 'b) t -> unit
(** Re-bucket every pending event with a width measured from their
    spread, keeping the bucket count — the pass a resize runs.  The pop
    order is unchanged (chains stay sorted by (time, seq)).  A queue
    filled in bulk calls it once: until the first resize the width is
    the 1 s default, which at hundreds of events per second makes every
    push walk a long sorted chain.  Allocates one index array. *)

val min_time : ('a, 'b) t -> float
(** Earliest pending time without removing the event ([infinity] when
    empty).  The search result is cached, so a [min_time]-then-[pop]
    pair costs one search. *)

val peek : ('a, 'b) t -> int
(** First int payload of the earliest pending event without removing it
    ([min_int] when empty); its time is stored into {!min_time_cell}
    ([infinity] when empty).  Shares the cached minimum with
    {!min_time} and {!pop}, so a peek-then-pop pair costs one search.
    This is the engine's allocation-free view of the minimum: it reads
    the time from the cell, where a float return would be boxed at a
    call from another module, and it recognises a run of same-channel
    events for the batch drain by the payload. *)

val min_time_cell : ('a, 'b) t -> fcell
(** The time stored by the last {!peek} or {!min_time} (read-only for
    callers). *)

val pop : ('a, 'b) t -> bool
(** Remove the earliest event, filling the out-fields below; [false]
    when empty.  The out-fields keep their values until the next
    [pop]. *)

val pop_no_shrink : ('a, 'b) t -> bool
(** [pop] that never shrinks the bucket array — for the engine's batch
    drain, whose pops are immediately undone by the batch body's
    re-arms.  A population that genuinely collapses reclaims its
    buckets on the next ordinary [pop]. *)

val out_time : ('a, 'b) t -> float
val out_time_cell : ('a, 'b) t -> fcell
(** The popped time as a raw-load cell (read-only for callers). *)

val out_seq : ('a, 'b) t -> int
val out_a : ('a, 'b) t -> 'a
val out_b : ('a, 'b) t -> 'b
val out_i1 : ('a, 'b) t -> int
val out_i2 : ('a, 'b) t -> int
