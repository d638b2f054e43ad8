(** Reference binary-heap priority queue: the simulation kernel's first
    event queue, kept with the tests as the plain oracle the float heap
    is checked against.  Events are ordered
    by (time, insertion sequence): ties in time pop in insertion order,
    keeping simulations deterministic. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:float -> 'a -> unit
(** Enqueue an event; raises [Invalid_argument] for NaN times. *)

val of_list : (float * 'a) list -> 'a t
(** Build a queue in one O(n) heapify pass; equal-time entries pop in
    list order.  Raises [Invalid_argument] for NaN times. *)

val peek : 'a t -> (float * 'a) option
(** Earliest (time, payload) without removing it. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest (time, payload). *)

val clear : 'a t -> unit
(** Drop all pending events. *)

val drain : 'a t -> (float * 'a) list
(** Pop everything, in order. *)
