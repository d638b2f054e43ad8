(** Multi-hop routing over a radio topology.  Edge costs derive from the
    physical layer (minimum closing TX energy per hop plus RX energy).
    Policies: fewest transmissions, least total energy, or avoid draining
    bottleneck nodes.  Routes are the parent chains of a {!Route_tree}
    priced by {!tree_weight}. *)

open Amb_units
open Amb_radio

type policy = Min_hop | Min_energy | Max_lifetime

val policy_name : policy -> string

type pair_cache = {
  offsets : int array;  (** length n+1; CSR row bounds *)
  neighbors : int array;  (** in-range neighbour ids, ascending per row *)
  edge_tx_j : float array;  (** TX-side joules, parallel to [neighbors] *)
}
(** Only the in-range pairs — O(n + edges) memory at every fleet size. *)

type t = {
  topology : Topology.t;
  link : Link_budget.t;
  packet : Packet.t;
  range_m : float;
  cache : pair_cache;  (** per-pair TX joules over the in-range CSR adjacency *)
  rx_j : float;  (** RX-side joules per packet (distance-independent) *)
  tariff : float -> float;
      (** staged distance (m) -> TX-side joules ({!Link_budget.tx_tariff}
          for this link and packet); NaN beyond radio reach.  The pair
          cache is filled by its slice form
          ({!Link_budget.tx_tariff_slice}, bit for bit the same
          prices), and distances off the cache (faded links,
          {!path_energy}, {!hop_energy}) are priced by calling it. *)
}
(** Immutable once {!make} returns, so any number of runs — on any
    number of domains — may share one router. *)

val make :
  ?jobs:int ->
  topology:Topology.t ->
  link:Link_budget.t ->
  packet:Packet.t ->
  unit ->
  t
(** The radio range is derived from the link budget at maximum TX power.
    The per-pair link-energy cache is computed here, once, and reused by
    every tree rebuild under every policy.  Each unordered in-range
    pair is priced once with the staged tariff and its joules
    copied to both directions; a pair is in range when
    [Float.hypot dx dy <= range_m], screened first on [dx²+dy²].  Only
    the in-range pairs are stored: CSR rows built from one enumeration
    of the pairs over a {!Spatial} grid, each pair met once, counted,
    then written into the upper half of its lower id's row; the upper
    halves are sorted and priced in place (one
    {!Link_budget.tx_tariff_slice} call per row), the lower halves
    filled by transposing them.  With [jobs] > 1 and at least 4096
    nodes, the four passes (pair counts and pair fills over slot
    ranges, sort-and-price and transposition over rows) run on a
    domain pool; the cache is a pure function of the positions, so the
    result is bitwise independent of [jobs]. *)

val rows : t -> int array * int array
(** [(offsets, neighbors)] of the CSR in-range structure: row [i] is
    [neighbors.(offsets.(i) .. offsets.(i+1) - 1)], ascending, and [j]
    is in row [i] exactly when [i] is in row [j].  Route trees
    ({!Route_tree.create}) sweep it to relax only in-range pairs. *)

val slot : t -> int -> int -> int
(** [slot t i j] — the index [k] of [j] in row [i] ([cache.neighbors.(k)
    = j]), or -1 when the pair is out of range.  [cache.edge_tx_j.(k)]
    is then the pair's TX joules, the same value in both directions.
    O(log degree). *)

val link_energy_into : t -> int -> Amb_sim.Float_heap.cell -> unit
(** [link_energy_into t k c] stores in [c.v] the TX+RX joules of the
    pair at slot [k] — bit for bit what {!link_energy_j} returns for
    it, without the row search and without boxing the result; NaN when
    [k < 0].  Route sweeps price unfaded edges with it
    ({!Route_tree.weight}). *)

val adjacency : t -> (int array * int array) option
(** [Some (rows t)], always.  The option is left from the retired dense
    tier, whose grid had no rows; new code calls {!rows}. *)

val hop_energy : t -> distance_m:float -> Energy.t option
(** Energy to move one packet one hop: minimum closing TX energy plus RX
    energy; [None] beyond radio reach. *)

val sender_energy_j : t -> int -> int -> float
(** Cached TX-side joules to move one packet between a node pair; NaN
    when the pair is out of radio range.  O(log degree): a binary search
    of row [i]. *)

val receiver_energy_j : t -> float
(** Cached RX-side joules per packet. *)

val link_energy_j : t -> int -> int -> float
(** Cached TX+RX joules for a node pair; NaN when out of range. *)

val tree_weight : t -> policy:policy -> residual:float array -> Route_tree.weight
(** The policy's edge pricing for {!Route_tree.rebuild} and its
    repairs, read from the pair cache by slot ({!link_energy_into}):
    hop [u -> v] costs 1 under [Min_hop], its TX+RX joules under
    [Min_energy], and under [Max_lifetime] those joules divided by the
    forwarder's residual [residual.(u)] (joules), or [max_float /. 1e6]
    when that residual is at most 0.  A NaN pair (no link) stays NaN
    under every policy.  [residual] is read at each call, so a caller
    that writes it reprices the next rebuild. *)

val path_energy : t -> int list -> Energy.t option
(** Total radio energy to deliver one packet along a path. *)

val sender_energy : t -> distance_m:float -> Energy.t option
(** TX-side-only energy for one hop (per-node depletion accounting,
    faded links). *)

val receiver_energy : t -> Energy.t
(** RX-side-only energy for one hop. *)
