(** Multicore work pool on OCaml 5 domains (Domain + Mutex + Condition
    only).  Workers pull task indices from a shared counter; results are
    gathered at their submission index, so output order is deterministic
    regardless of domain scheduling.  Tasks must not share mutable
    state. *)

type t

val env_jobs : unit -> int option
(** Worker count requested via [AMB_JOBS], when set to a positive
    integer. *)

val default_jobs : unit -> int
(** [AMB_JOBS] when set, otherwise the runtime's recommended domain
    count. *)

val create : jobs:int -> t
(** Pool of [jobs] workers: [jobs - 1] spawned domains plus the
    submitting domain.  Raises [Invalid_argument] below 1. *)

val jobs : t -> int

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent. *)

val run : t -> (unit -> 'a) array -> 'a array
(** Execute every task across the pool; results in submission order.
    The first exception (by task index) is re-raised after the batch
    settles.  Not reentrant: raises [Invalid_argument] if the pool is
    already running a batch. *)

val parallel_batches : unit -> int
(** Batches {!run} has spread across more than one worker since the
    program started (a batch of one task, or on a one-worker pool, runs
    inline and is not counted).  Lets a test check that a sharded pass
    really reached the pool. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** Run against a transient pool, always shutting the workers down. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [List.map] spread across workers; result order matches the input.
    [jobs] defaults to {!default_jobs}. *)

val map_array_chunked : ?jobs:int -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** [Array.map] with the index space split into [chunk]-sized blocks
    (default ~4 per worker); element order preserved.  Raises
    [Invalid_argument] on a non-positive [chunk]. *)
