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

let fade_db t a b =
  let x, y = key a b in
  match List.find_opt (fun (p, q, _) -> p = x && q = y) t.fades with
  | Some (_, _, db) -> db
  | None -> 0.0

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

(* Batch twin of [cost_tx_j] over a whole parent array.  Runs on every
   route-tree sync (rebuild / death repair / fade), never per packet,
   so the per-hop CSR binary search and fade lookup of the historic
   walk collapse into one refresh per topology event.  Each entry is
   exactly [cost_tx_j t node parent.(node)] — the fade-free non-tag
   shortcut below inlines [phy_tx_j] at db = 0, which *is*
   [Routing.sender_energy_j], so the tariffs stay bit-identical. *)
let refresh_hop_tariffs t ~sink ~parent ~tx_j ~hop_kind =
  let n = Array.length parent in
  let fade_free = match t.fades with [] -> true | _ :: _ -> false in
  for node = 0 to n - 1 do
    let p = parent.(node) in
    if p < 0 then begin
      (* Orphan or dead: the walk drops before pricing, but keep the
         entry poisoned so a stale read can never charge anything. *)
      tx_j.(node) <- Float.nan;
      hop_kind.(node) <- hop_normal
    end
    else begin
      let tag = t.is_tag node in
      tx_j.(node) <-
        (if fade_free && not tag then
           match t.mode with
           | Off -> 0.0
           | Cached -> Routing.sender_energy_j t.router node p
           | Mac _ -> Routing.sender_energy_j t.router node p +. t.tx_overhead_j
         else cost_tx_j t node p);
      hop_kind.(node) <- (if tag then hop_tag else if p = sink then hop_sink_parent else hop_normal)
    end
  done

(* Route sweeps relax from the sink outward and call [weight_j t u v]
   with [u] the settled parent-side node and [v] the candidate child —
   traffic on the edge flows v -> u.  Symmetric PHY weights never
   noticed, but the tag tariff must read the pair in that order: a tag
   appears only as the child [v], priced at the full reader-paid
   transaction toward a reader [u], and never as a parent. *)
let weight_j t i j =
  if t.is_tag i then Float.nan  (* nothing routes into or through a tag *)
  else if t.is_tag j then
    (* The full transaction price, so the tree attaches each tag to the
       cheapest reader that closes. *)
    if tag_edge_ok t j i then t.tag_tx_j +. t.reader_rx_j else Float.nan
  else begin
    let db = fade_db t i j in
    if db = 0.0 then Routing.link_energy_j t.router i j
    else faded_tx_j t i j db +. Routing.receiver_energy_j t.router
  end

let sampling_power_w t = t.sampling_w
