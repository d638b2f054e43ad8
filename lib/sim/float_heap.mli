(** Unboxed binary min-heap with float keys and int payloads — the
    dedicated priority queue for graph algorithms.  Keys, payloads and
    sequence numbers live in flat arrays (no boxed entries); equal keys
    pop in insertion order. *)

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 16; the heap grows by doubling. *)

val length : t -> int
val is_empty : t -> bool

type cell = { mutable v : float }
(** A flat float slot (an all-float record, so stores do not box). *)

val push_cell : t -> cell -> int -> unit
(** Enqueue a payload with the key taken from the cell's [.v]: nothing
    is boxed.  Raises [Invalid_argument] for a NaN key. *)

val pop_min : t -> cell -> int
(** Remove the smallest entry, store its key in the cell and return its
    payload; ties in key resolve in insertion order.  Allocates nothing.
    Raises [Invalid_argument] on an empty heap — test {!is_empty}
    first. *)

val clear : t -> unit

val sort_floats : float array -> unit
(** In-place ascending heapsort on unboxed doubles — what to use instead
    of [Array.sort Float.compare] (which boxes both floats at every
    comparison) on NaN-free data.  On such data the result is
    element-for-element identical to the [Float.compare] sort. *)
