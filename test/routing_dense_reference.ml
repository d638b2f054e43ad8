(* Reference pair cache: the flat n×n joule grid [Routing] built below
   1 024 nodes before every router carried CSR rows.

   Same kernel, written over all pairs: for each unordered pair a
   squared-distance reject, the exact [Float.hypot <= range_m] test,
   one staged-tariff evaluation copied to both directions.  It shares
   only the router's tariff and range with [Routing.make], so the CSR
   build is held to an independent fill: every ordered pair's lookup
   must equal this grid bit for bit, and the rows must list exactly the
   pairs it prices. *)

open Amb_net

type t = { n : int; tx_j : float array  (** row-major; NaN = out of range *) }

let make (router : Routing.t) =
  let topology = router.Routing.topology and range_m = router.Routing.range_m in
  let n = Topology.node_count topology in
  let positions = topology.Topology.positions in
  let _, reject = Spatial.sq_band range_m in
  let tx_j = Array.make (n * n) Float.nan in
  for i = 0 to n - 1 do
    let p = positions.(i) in
    for j = i + 1 to n - 1 do
      let q = positions.(j) in
      let dx = p.Topology.x -. q.Topology.x and dy = p.Topology.y -. q.Topology.y in
      if not ((dx *. dx) +. (dy *. dy) > reject) then begin
        let d = Float.hypot dx dy in
        if d <= range_m then begin
          let e = router.Routing.tariff d in
          tx_j.((i * n) + j) <- e;
          tx_j.((j * n) + i) <- e
        end
      end
    done
  done;
  { n; tx_j }

let sender_energy_j t i j = t.tx_j.((i * t.n) + j)

(* Rows listing every other node, ascending: a route tree over them
   relaxes all n² ordered pairs, the historic dense sweep. *)
let complete_rows n =
  let offsets = Array.init (n + 1) (fun i -> i * (n - 1)) in
  let neighbors = Array.make (n * (n - 1)) 0 in
  for i = 0 to n - 1 do
    for k = 0 to n - 2 do
      neighbors.((i * (n - 1)) + k) <- (if k < i then k else k + 1)
    done
  done;
  (offsets, neighbors)

(* A pair weight as a [Route_tree.weight]: priced from the pair alone,
   the row slot ignored.  Complete-row trees need it (their slots index
   no router cache), and the reference runs use it so that their
   row-search pricing checks the simulators' slot-indexed one. *)
let pair_weight f : Route_tree.weight = fun u v _ c -> c.Route_tree.v <- f u v
