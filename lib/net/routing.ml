(** Multi-hop routing policies over a radio topology.

    Edge costs derive from the physical layer: transmitting over distance
    [d] costs the minimum closing TX energy per bit (via the link budget),
    plus the receiver's energy per bit.  Three policies:
    - [Min_hop] — fewest transmissions;
    - [Min_energy] — least total energy per delivered bit;
    - [Max_lifetime] — avoid draining bottleneck nodes (energy cost scaled
      by the inverse of the forwarder's residual energy).

    Every hop is priced by one staged tariff ({!Link_budget.tx_tariff}):
    the distance-independent link-budget and front-end terms are
    computed once per router, and each distance costs only the
    per-distance float operations, bit for bit the unstaged
    [required_tx_dbm] + [transmit_energy] result.

    Per-pair storage is a CSR adjacency over the in-range pairs only
    (offsets / neighbour ids / per-edge TX joules), O(n + edges) memory
    and build time at every fleet size: a squared-distance screen, the
    exact [Float.hypot <= range_m] test for pairs that pass it, and one
    tariff evaluation per unordered pair, copied to both directions
    (exact, since the distance is symmetric).  Per-pair lookups are a
    binary search of the (short, sorted) neighbour row; route trees
    read the rows directly and price an edge by its slot.  The build
    queries a {!Spatial} grid whose coordinates sit in cell order,
    prices only the upper half of each row ([j > i]) and fills the
    lower half by transposing the upper halves.  With [jobs] > 1 and at least 4096 nodes, each of its three
    row passes (degrees, upper halves, lower halves) shards across
    {!Amb_sim.Domain_pool}; the cache is a pure function of the node
    positions, so the result is bitwise independent of [jobs]. *)

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
  tx_memo : (float, float) Hashtbl.t;
      (** distance (m) -> TX-side joules for distances off the pair
          cache only (faded links, [path_energy], [hop_energy]); owned by
          this router instance and unsynchronised — parallel shards each
          build their own router *)
}

(** [tx_energy_j_at router ~distance_m] — memoized TX-side joules for an
    arbitrary hop length; NaN beyond radio reach.  Keyed on the exact
    distance, so repeated lookups (per-pair fades, path walks) skip the
    tariff. *)
let tx_energy_j_at router ~distance_m =
  match Hashtbl.find_opt router.tx_memo distance_m with
  | Some e -> e
  | None ->
    let e = router.tariff distance_m in
    Hashtbl.add router.tx_memo distance_m e;
    e

(* Below this many rows a sharded pass runs inline: a pool batch costs
   more than the work it would split. *)
let shard_min_rows = 4096

(* CSR adjacency over the in-range pairs, neighbours ascending per row,
   in three row-sharded passes:
   1. degrees (grid range counts), then a serial prefix sum;
   2. per row [i], the upper half: the in-range ids [j > i] and their
      exact distances straight from the grid, insertion-sorted by id
      into the end of the row, then priced in place by the staged
      tariff;
   3. per row [i], the lower half by transposition: scanning the upper
      halves of rows [j < i] in ascending [j] meets every pair [(j, i)]
      in the order row [i] needs, so each is appended at a per-row
      cursor with its mirror's joules — no search, no sort.  A shard
      scans the upper halves of every row below its end and keeps the
      targets it owns.
   The mirror copy is exact because the acceptance test and the distance
   are symmetric: [(-dx)² = dx²] and [hypot (-dx) (-dy) = hypot dx dy].
   Every pass writes only its own rows' slots (pass 3 only lower halves,
   while it reads upper halves) from read-only inputs, so sharding
   cannot move a bit. *)
let build_csr ~topology ~tariff ~range_m ~jobs =
  let n = Topology.node_count topology in
  (* A link that cannot close even at contact has range 0, where the
     grid queries list no pair; any positive cell edge serves then. *)
  let index =
    Topology.spatial topology
      ~cell_m:(if range_m > 0.0 then range_m else topology.Topology.width_m)
  in
  let offsets = Array.make (n + 1) 0 in
  let upper = Array.make n 0 in  (* row -> first slot of its upper half *)
  (* [shard task] runs [task lo hi] over a partition of the rows. *)
  let build shard =
    shard (fun lo hi ->
        for i = lo to hi - 1 do
          offsets.(i + 1) <- Spatial.degree index i ~range_m
        done);
    for i = 1 to n do
      offsets.(i) <- offsets.(i) + offsets.(i - 1)
    done;
    let edges = offsets.(n) in
    let neighbors = Array.make edges 0 in
    let edge_tx_j = Array.create_float edges in
    shard (fun lo hi ->
        for i = lo to hi - 1 do
          let rlo = offsets.(i) in
          let m = Spatial.fill_above index i ~range_m neighbors edge_tx_j rlo in
          let rhi = offsets.(i + 1) in
          let top = rhi - (m - rlo) in
          (* Insertion sort from the scratch run [rlo, m) into the row's
             end [top, rhi), reading the run backwards: the sorted part
             grows down from [rhi] and never overtakes the unread
             entries, since [m <= rhi]. *)
          for src = m - 1 downto rlo do
            let v = neighbors.(src) and d = edge_tx_j.(src) in
            let p = ref (src + rhi - m) in
            while !p < rhi - 1 && neighbors.(!p + 1) < v do
              neighbors.(!p) <- neighbors.(!p + 1);
              edge_tx_j.(!p) <- edge_tx_j.(!p + 1);
              incr p
            done;
            neighbors.(!p) <- v;
            edge_tx_j.(!p) <- d
          done;
          for k = top to rhi - 1 do
            edge_tx_j.(k) <- tariff edge_tx_j.(k)
          done;
          upper.(i) <- top
        done);
    shard (fun lo hi ->
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
  if jobs <= 1 || n < shard_min_rows then build (fun task -> task 0 n)
  else
    Amb_sim.Domain_pool.with_pool ~jobs (fun pool ->
        let chunk = (n + (4 * jobs) - 1) / (4 * jobs) in
        let chunks = (n + chunk - 1) / chunk in
        build (fun task ->
            ignore
              (Amb_sim.Domain_pool.run pool
                 (Array.init chunks (fun c () -> task (c * chunk) (Stdlib.min n ((c + 1) * chunk))))
                : unit array)))

let make ?(jobs = 1) ~topology ~link ~packet () =
  let range_m = Link_budget.max_range link ~tx_dbm:link.Link_budget.radio.Amb_circuit.Radio_frontend.max_tx_dbm in
  let bits = Packet.total_bits packet in
  let rx_j =
    Energy.to_joules
      (Amb_circuit.Radio_frontend.receive_energy link.Link_budget.radio ~bits ~include_startup:true)
  in
  let tariff = Link_budget.tx_tariff link ~bits in
  let cache = build_csr ~topology ~tariff ~range_m ~jobs in
  { topology; link; packet; range_m; cache; rx_j; tariff; tx_memo = Hashtbl.create 64 }

(** [with_private_memo router] — the same router (topology, pair cache
    and packet shared, all read-only) with a fresh, empty distance memo.
    The memo is a pure cache over [tariff], so a clone computes
    bitwise-identical energies; what it buys is isolation: parallel
    shards whose fault plans fade links each write their own memo
    instead of racing on the shared one. *)
let with_private_memo router = { router with tx_memo = Hashtbl.create 64 }

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
  let tx = tx_energy_j_at router ~distance_m in
  if Float.is_nan tx then None else Some (Energy.joules (tx +. router.rx_j))

(** [build_graph router ~policy ~residual] — weighted graph for [policy],
    entirely from the per-pair energy cache (no link-budget math).
    [residual] gives each node's remaining energy (used by
    [Max_lifetime]); pass the same value for all nodes to recover
    [Min_energy] behaviour.  Edges are inserted in ascending source, then
    ascending destination order. *)
let build_graph router ~policy ~residual =
  let n = Topology.node_count router.topology in
  let g = Graph.create n in
  let add i j tx =
    let joules = tx +. router.rx_j in
    if not (Float.is_nan joules) then
      let weight =
        match policy with
        | Min_hop -> 1.0
        | Min_energy -> joules
        | Max_lifetime ->
          let r = Energy.to_joules (residual i) in
          if r <= 0.0 then Float.max_float /. 1e6 else joules /. r
      in
      Graph.add_edge g ~src:i ~dst:j ~weight
  in
  let { offsets; neighbors; edge_tx_j } = router.cache in
  for i = 0 to n - 1 do
    for k = offsets.(i) to offsets.(i + 1) - 1 do
      add i neighbors.(k) edge_tx_j.(k)
    done
  done;
  g

(** [route router ~policy ~residual ~src ~dst] — the chosen path, or
    [None] when disconnected. *)
let route router ~policy ~residual ~src ~dst =
  let g = build_graph router ~policy ~residual in
  Graph.shortest_path g ~src ~dst

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
    (used when accounting per-node depletion); memoized per distance. *)
let sender_energy router ~distance_m =
  let tx = tx_energy_j_at router ~distance_m in
  if Float.is_nan tx then None else Some (Energy.joules tx)

(** [receiver_energy router] — RX-side-only energy for one hop (cached). *)
let receiver_energy router = Energy.joules router.rx_j
