(** Hop costs + fade faults over the shared routing cache (see .mli).

    The MAC overheads are isolated by differencing the closed-form
    per-packet energies at the configured wake-up interval against a
    vanishing interval, so the distance-dependent frame cost itself is
    never double-charged on top of the routing cache. *)

open Amb_units
open Amb_radio
open Amb_net

type mode = Off | Cached | Mac of Mac_duty_cycle.t

type t = {
  router : Routing.t;
  mode : mode;
  tx_overhead_j : float;
  rx_overhead_j : float;
  sampling_w : float;
  exponent : float;  (** path-loss exponent, for fade -> distance mapping *)
  mutable fades : (int * int * float) list;
  tag_link : Backscatter.t option;
  is_tag : int -> bool;
  is_reader : int -> bool;  (** nodes allowed to terminate a tag hop *)
  tag_tx_j : float;  (** tag-side joules per report (detector + modulator) *)
  reader_rx_j : float;  (** reader-side joules per report (carrier + listen) *)
}

let create ?tag_link ~router ~mode () =
  let tx_overhead_j, rx_overhead_j, sampling_w =
    match mode with
    | Off | Cached -> (0.0, 0.0, 0.0)
    | Mac mac ->
      let tiny = { mac with Mac_duty_cycle.t_wakeup = Time_span.seconds 1e-6 } in
      ( Energy.to_joules (Mac_duty_cycle.tx_energy_per_packet mac)
        -. Energy.to_joules (Mac_duty_cycle.tx_energy_per_packet tiny),
        Energy.to_joules (Mac_duty_cycle.rx_energy_per_packet mac)
        -. Energy.to_joules (Mac_duty_cycle.rx_energy_per_packet tiny),
        Power.to_watts (Mac_duty_cycle.sampling_power mac) )
  in
  let exponent =
    match router.Routing.link.Link_budget.channel with
    | Path_loss.Log_distance { exponent; _ } -> exponent
    | Path_loss.Free_space -> 2.0
  in
  let bs, is_tag, is_reader =
    match tag_link with
    | Some (b, tag_p, reader_p) -> (Some b, tag_p, reader_p)
    | None -> (None, (fun _ -> false), fun _ -> false)
  in
  (* Route trees sweep only the router's in-range rows, so a tag hop
     must never close past the radio range (both reaches are monotone
     in distance). *)
  (match bs with
  | Some b when Backscatter.closes b ~distance_m:(Float.succ router.Routing.range_m) ->
    invalid_arg "Link_layer.create: the tag link reaches past the radio range"
  | _ -> ());
  let tag_tx_j, reader_rx_j =
    match bs with
    | None -> (0.0, 0.0)
    | Some b ->
      let bits = Packet.total_bits router.Routing.packet in
      ( Energy.to_joules (Backscatter.tag_energy_per_report b ~bits),
        Energy.to_joules (Backscatter.reader_energy_per_report b ~bits) )
  in
  { router; mode; tx_overhead_j; rx_overhead_j; sampling_w; exponent; fades = [];
    tag_link = bs; is_tag; is_reader; tag_tx_j; reader_rx_j }

let mode t = t.mode

let key a b = if a <= b then (a, b) else (b, a)

let set_fade t ~a ~b ~db =
  if db < 0.0 then invalid_arg "Link_layer.set_fade: negative dB";
  let x, y = key a b in
  t.fades <- (x, y, db) :: List.filter (fun (p, q, _) -> (p, q) <> (x, y)) t.fades

let find_fade fades a b =
  let x, y = key a b in
  match List.find_opt (fun (p, q, _) -> p = x && q = y) fades with
  | Some (_, _, db) -> db
  | None -> 0.0

(* Called once per Dijkstra relaxation: a fade-free run returns at
   once, without a call or a key pair. *)
let[@inline] fade_db t a b = match t.fades with [] -> 0.0 | fades -> find_fade fades a b

(* TX joules over a faded pair: the extra loss shows up as an effective
   distance under the log-distance exponent. *)
let faded_tx_j t i j db =
  let d = Topology.pair_distance t.router.Routing.topology i j in
  let d' = d *. (10.0 ** (db /. (10.0 *. t.exponent))) in
  match Routing.sender_energy t.router ~distance_m:d' with
  | Some e -> Energy.to_joules e
  | None -> Float.nan

let phy_tx_j t i j =
  let db = fade_db t i j in
  if db = 0.0 then Routing.sender_energy_j t.router i j else faded_tx_j t i j db

(* A fade on a tag hop inflates the interrogation distance the same way
   it does on the shared PHY: effective d' = d * 10^(db / (10 n)) under
   the PHY channel's exponent (the reader link shares the building). *)
let tag_pair_closes t i j =
  match t.tag_link with
  | None -> false
  | Some bs ->
    let d = Topology.pair_distance t.router.Routing.topology i j in
    let db = fade_db t i j in
    let d' = if db = 0.0 then d else d *. (10.0 ** (db /. (10.0 *. t.exponent))) in
    Backscatter.closes bs ~distance_m:d'

(* A tag hop exists only toward a reader the transaction closes with:
   no multihop through tags, no tag served by a non-reader. *)
let tag_edge_ok t i j = t.is_reader j && tag_pair_closes t i j
let tag_hop t i = t.is_tag i

let cost_tx_j t i j =
  if t.is_tag i then
    match t.mode with
    | Off -> 0.0
    | Cached | Mac _ -> if tag_edge_ok t i j then t.tag_tx_j else Float.nan
  else
    match t.mode with
    | Off -> 0.0
    | Cached -> phy_tx_j t i j
    | Mac _ -> phy_tx_j t i j +. t.tx_overhead_j

let cost_rx_j t =
  match t.mode with
  | Off -> 0.0
  | Cached -> Routing.receiver_energy_j t.router
  | Mac _ -> Routing.receiver_energy_j t.router +. t.rx_overhead_j

let reader_cost_rx_j t = match t.mode with Off -> 0.0 | Cached | Mac _ -> t.reader_rx_j

(* Receiver classification of a hop node -> p, precomputed so the
   report walk branches on an int instead of re-asking the
   predicates per packet. *)
let hop_normal = 0
let hop_tag = 1
let hop_sink_parent = 2

(* Table twin of [cost_tx_j]: the tariff and receiver class of
   [node]'s hop to [parent.(node)].  Runs on every route-tree sync
   (rebuild / death repair / fade), never per packet, so the per-hop
   CSR binary search and fade lookup of the historic walk collapse into
   one refresh per topology event. *)
let refresh_hop_tariff t ~sink ~parent ~tx_j ~hop_kind node =
  let p = parent.(node) in
  if p < 0 then begin
    (* Orphan or dead: the walk drops before pricing, but keep the
       entry poisoned so a stale read can never charge anything. *)
    tx_j.(node) <- Float.nan;
    hop_kind.(node) <- hop_normal
  end
  else begin
    tx_j.(node) <- cost_tx_j t node p;
    hop_kind.(node) <-
      (if t.is_tag node then hop_tag else if p = sink then hop_sink_parent else hop_normal)
  end

(* Route sweeps relax from the sink outward and price [u -> v] with
   [u] the settled parent-side node and [v] the candidate child —
   traffic on the edge flows v -> u.  Symmetric PHY weights never
   noticed, but the tag tariff must read the pair in that order: a tag
   appears only as the child [v], priced at the full reader-paid
   transaction toward a reader [u], and never as a parent.  [k] is the
   pair's slot in the router's rows, in either direction (the cache
   holds one value for both), so an unfaded PHY pair reads its joules
   by index; the answer goes to [c], unboxed. *)
let weight_into t i j k (c : Route_tree.cell) =
  if t.is_tag i then c.v <- Float.nan  (* nothing routes into or through a tag *)
  else if t.is_tag j then
    (* The full transaction price, so the tree attaches each tag to the
       cheapest reader that closes. *)
    c.v <- (if tag_edge_ok t j i then t.tag_tx_j +. t.reader_rx_j else Float.nan)
  else begin
    let db = fade_db t i j in
    if db = 0.0 then Routing.link_energy_into t.router k c
    else c.v <- faded_tx_j t i j db +. Routing.receiver_energy_j t.router
  end

let weight_j t i j =
  let c = { Route_tree.v = Float.nan } in
  weight_into t i j (Routing.slot t.router i j) c;
  c.v

let sampling_power_w t = t.sampling_w
