(** Multi-hop routing policies over a radio topology.

    Edge costs derive from the physical layer: transmitting over distance
    [d] costs the minimum closing TX energy per bit (via the link budget),
    plus the receiver's energy per bit.  Three policies:
    - [Min_hop] — fewest transmissions;
    - [Min_energy] — least total energy per delivered bit;
    - [Max_lifetime] — avoid draining bottleneck nodes (energy cost scaled
      by the inverse of the forwarder's residual energy).

    Every hop is priced by one staged tariff ({!Link_budget.tx_tariff},
    or its slice form while the cache is built): the
    distance-independent link-budget and front-end terms are computed
    once per router, and each distance costs only the per-distance
    float operations, bit for bit the unstaged [required_tx_dbm] +
    [transmit_energy] result.

    Per-pair storage is a CSR adjacency over the in-range pairs only
    (offsets / neighbour ids / per-edge TX joules), O(n + edges) memory
    and build time at every fleet size: a squared-distance screen, the
    exact [Float.hypot <= range_m] test for pairs that pass it, and one
    tariff evaluation per unordered pair, copied to both directions
    (exact, since the distance is symmetric).  Per-pair lookups are a
    binary search of the (short, sorted) neighbour row; route trees
    read the rows directly and price an edge by its slot.  The build
    enumerates each unordered pair once, from the forward half ring of
    a {!Spatial} grid slot, to count and then to fill the upper half of
    its lower id's row ([j > i]); it sorts and prices the upper halves
    in place with the slice form of the tariff
    ({!Link_budget.tx_tariff_slice}) and fills the lower halves by
    transposing them.  With [jobs] > 1 and at least 4096 nodes, its
    four passes run on {!Amb_sim.Domain_pool}; the cache is a pure
    function of the node positions, so the result is bitwise
    independent of [jobs]. *)

open Amb_units
open Amb_radio

type policy = Min_hop | Min_energy | Max_lifetime

let policy_name = function
  | Min_hop -> "min-hop"
  | Min_energy -> "min-energy"
  | Max_lifetime -> "max-lifetime"

type pair_cache = {
  offsets : int array;  (** length n+1; row [i] is [offsets.(i) .. offsets.(i+1) - 1] *)
  neighbors : int array;  (** in-range neighbour ids, ascending within a row *)
  edge_tx_j : float array;  (** TX-side joules, parallel to [neighbors] *)
}

type t = {
  topology : Topology.t;
  link : Link_budget.t;
  packet : Packet.t;
  range_m : float;
  cache : pair_cache;  (** per-pair TX joules over the in-range CSR adjacency *)
  rx_j : float;  (** RX-side joules per packet (distance-independent) *)
  tariff : float -> float;
      (** staged distance (m) -> TX-side joules; NaN beyond radio reach *)
}

(* Below this many rows a sharded pass runs inline: a pool batch costs
   more than the work it would split. *)
let shard_min_rows = 4096

(* CSR adjacency over the in-range pairs, neighbours ascending per row,
   in four passes over one pair enumeration, the forward half ring of
   each grid slot ({!Spatial.count_pairs}), which meets every in-range
   unordered pair [{l, h}], [l < h], exactly once:
   1. count: each pair adds to the degrees of [l] and [h] and to the
      upper-half size of [l]; then a serial prefix sum gives the row
      bounds, and the upper half of row [l] is its last [up.(l)] slots;
   2. fill: each pair writes [h] and the exact distance into the upper
      half of row [l] ({!Spatial.fill_pairs}), in scan order;
   3. per row, the upper half is insertion-sorted by id, then priced in
      place by the staged slice tariff;
   4. per row [i], the lower half by transposition: scanning the upper
      halves of rows [j < i] in ascending [j] meets every pair [(j, i)]
      in the order row [i] needs, so each is appended at a per-row
      cursor with its mirror's joules — no search, no sort.  A shard
      scans the upper halves of every row below its end and keeps the
      targets it owns.
   Passes 1 and 2 shard over slot ranges, each shard counting into its
   own [deg] / [up] arrays.  In pass 2, shard [s] fills the upper half
   of row [l] downwards from its end less the counts of the shards
   after it, so the shards' spans are disjoint and shard 0's cursors end
   on the upper halves' first slots.  Passes 3 and 4 shard over rows,
   each writing only its own rows' slots (pass 4 only lower halves,
   while it reads upper halves).  Every slot's content is fixed by the
   positions alone, whatever the partition, so sharding cannot move a
   bit.  The mirror copy is exact because the acceptance test and the
   distance are symmetric: [(-dx)² = dx²] and
   [hypot (-dx) (-dy) = hypot dx dy]. *)
let build_csr ~topology ~price ~range_m ~jobs =
  let n = Topology.node_count topology in
  (* A link that cannot close even at contact has range 0, where the
     pair kernels list no pair; any positive cell edge serves then. *)
  let index =
    Topology.spatial topology
      ~cell_m:(if range_m > 0.0 then range_m else topology.Topology.width_m)
  in
  (* [run parts task] runs [task p lo hi] over the [parts] ranges of an
     even partition of [0, n). *)
  let build ~slot_parts ~row_parts run =
    (* Shard 0 counts degrees into what becomes [offsets]. *)
    let deg = Array.init slot_parts (fun s -> Array.make (if s = 0 then n + 1 else n) 0) in
    let up = Array.init slot_parts (fun _ -> Array.make n 0) in
    run slot_parts (fun s lo hi -> Spatial.count_pairs index ~range_m lo hi ~deg:deg.(s) ~up:up.(s));
    let offsets = deg.(0) in
    let total = ref 0 in
    for i = 0 to n - 1 do
      let d = ref offsets.(i) in
      for s = 1 to slot_parts - 1 do
        d := !d + deg.(s).(i)
      done;
      offsets.(i) <- !total;
      total := !total + !d;
      (* [up.(s).(i)] becomes shard [s]'s fill cursor: the end of row
         [i] less the upper-half counts of the shards after [s]. *)
      let c = ref !total in
      for s = slot_parts - 1 downto 0 do
        let u = up.(s).(i) in
        up.(s).(i) <- !c;
        c := !c - u
      done
    done;
    offsets.(n) <- !total;
    let edges = !total in
    let neighbors = Array.make edges 0 in
    let edge_tx_j = Array.create_float edges in
    run slot_parts (fun s lo hi ->
        Spatial.fill_pairs index ~range_m lo hi ~cursor:up.(s) ~ids:neighbors ~dists:edge_tx_j);
    let upper = up.(0) in  (* row -> first slot of its upper half *)
    run row_parts (fun _ lo hi ->
        for i = lo to hi - 1 do
          let top = upper.(i) and rhi = offsets.(i + 1) in
          for a = top + 1 to rhi - 1 do
            let v = neighbors.(a) and d = edge_tx_j.(a) in
            let p = ref a in
            while !p > top && neighbors.(!p - 1) > v do
              neighbors.(!p) <- neighbors.(!p - 1);
              edge_tx_j.(!p) <- edge_tx_j.(!p - 1);
              decr p
            done;
            neighbors.(!p) <- v;
            edge_tx_j.(!p) <- d
          done;
          price edge_tx_j top rhi
        done);
    run row_parts (fun _ lo hi ->
        let cursor = Array.sub offsets lo (hi - lo) in
        for j = 0 to hi - 2 do
          let k = ref upper.(j) and stop = offsets.(j + 1) in
          while !k < stop && neighbors.(!k) < hi do
            let i = neighbors.(!k) in
            if i >= lo then begin
              let c = cursor.(i - lo) in
              neighbors.(c) <- j;
              edge_tx_j.(c) <- edge_tx_j.(!k);
              cursor.(i - lo) <- c + 1
            end;
            incr k
          done
        done);
    { offsets; neighbors; edge_tx_j }
  in
  let bounds parts p = (p * n / parts, (p + 1) * n / parts) in
  if jobs <= 1 || n < shard_min_rows then
    build ~slot_parts:1 ~row_parts:1 (fun parts task ->
        for p = 0 to parts - 1 do
          let lo, hi = bounds parts p in
          task p lo hi
        done)
  else
    Amb_sim.Domain_pool.with_pool ~jobs (fun pool ->
        build ~slot_parts:jobs ~row_parts:(4 * jobs) (fun parts task ->
            ignore
              (Amb_sim.Domain_pool.run pool
                 (Array.init parts (fun p () ->
                      let lo, hi = bounds parts p in
                      task p lo hi))
                : unit array)))

let make ?(jobs = 1) ~topology ~link ~packet () =
  let range_m = Link_budget.max_range link ~tx_dbm:link.Link_budget.radio.Amb_circuit.Radio_frontend.max_tx_dbm in
  let bits = Packet.total_bits packet in
  let rx_j =
    Energy.to_joules
      (Amb_circuit.Radio_frontend.receive_energy link.Link_budget.radio ~bits ~include_startup:true)
  in
  let tariff = Link_budget.tx_tariff link ~bits in
  let cache = build_csr ~topology ~price:(Link_budget.tx_tariff_slice link ~bits) ~range_m ~jobs in
  { topology; link; packet; range_m; cache; rx_j; tariff }

(** [rows router] — the CSR structure (offsets, neighbour ids).  Route
    trees sweep it to visit only in-range pairs. *)
let rows router = (router.cache.offsets, router.cache.neighbors)

(* The option shape of the retired two-tier cache, for callers that
   still match on it. *)
let adjacency router = Some (rows router)

(** [slot router i j] — the index of [j] in row [i] of the cache, or
    -1 when the pair is out of range.  O(log degree): a binary search
    of row [i]. *)
let slot router i j =
  let { offsets; neighbors; _ } = router.cache in
  let lo = ref offsets.(i) and hi = ref (offsets.(i + 1) - 1) in
  let result = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = Array.unsafe_get neighbors mid in
    if v = j then begin
      result := mid;
      lo := !hi + 1
    end
    else if v < j then lo := mid + 1
    else hi := mid - 1
  done;
  !result

(** [sender_energy_j router i j] — cached TX-side joules for the pair;
    NaN when out of range. *)
let sender_energy_j router i j =
  let k = slot router i j in
  if k < 0 then Float.nan else Array.unsafe_get router.cache.edge_tx_j k

(** [link_energy_into router k c] — [c.v <-] the TX+RX joules of the
    pair at slot [k] (as {!slot} returns; NaN for [k < 0]): what
    {!link_energy_j} finds by its row search, read by index and
    returned unboxed. *)
let link_energy_into router k (c : Amb_sim.Float_heap.cell) =
  c.v <- (if k < 0 then Float.nan else router.cache.edge_tx_j.(k)) +. router.rx_j

(** [receiver_energy_j router] — cached RX-side joules per packet. *)
let receiver_energy_j router = router.rx_j

(** [link_energy_j router i j] — cached TX+RX joules to move one packet
    between the pair; NaN when out of range. *)
let link_energy_j router i j = sender_energy_j router i j +. router.rx_j

(** [hop_energy router ~distance_m] — energy to move one packet one hop of
    [distance_m]: minimum closing TX energy plus RX energy; [None] beyond
    radio reach. *)
let hop_energy router ~distance_m =
  let tx = router.tariff distance_m in
  if Float.is_nan tx then None else Some (Energy.joules (tx +. router.rx_j))

(** [tree_weight router ~policy ~residual] — the {!Route_tree.weight}
    of [policy] over the pair cache, read by slot: [Min_hop] prices
    every finite pair 1, [Min_energy] its TX+RX joules, [Max_lifetime]
    those joules over the forwarder's residual [residual.(u)] (joules;
    read at each call, so later writes reprice the tree), or
    [max_float /. 1e6] once that residual is at most 0.  NaN pairs stay
    NaN (no link). *)
let tree_weight router ~policy ~(residual : float array) : Route_tree.weight =
  match policy with
  | Min_hop ->
    fun _ _ k c ->
      link_energy_into router k c;
      if not (Float.is_nan c.v) then c.v <- 1.0
  | Min_energy -> fun _ _ k c -> link_energy_into router k c
  | Max_lifetime ->
    fun u _ k c ->
      link_energy_into router k c;
      if not (Float.is_nan c.v) then
        c.v <- (if residual.(u) <= 0.0 then Float.max_float /. 1e6 else c.v /. residual.(u))

(** [path_energy router path] — total radio energy to deliver one packet
    along [path]; [None] if a hop is out of range. *)
let path_energy router path =
  let rec walk = function
    | [] | [ _ ] -> Some Energy.zero
    | u :: (v :: _ as rest) -> (
      let d = Topology.pair_distance router.topology u v in
      match (hop_energy router ~distance_m:d, walk rest) with
      | Some e, Some tail -> Some (Energy.add e tail)
      | _, _ -> None)
  in
  walk path

(** [sender_energy router ~distance_m] — TX-side-only energy for one hop
    (used when accounting per-node depletion, and to price faded links). *)
let sender_energy router ~distance_m =
  let tx = router.tariff distance_m in
  if Float.is_nan tx then None else Some (Energy.joules tx)

(** [receiver_energy router] — RX-side-only energy for one hop (cached). *)
let receiver_energy router = Energy.joules router.rx_j
