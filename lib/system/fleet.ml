(** Heterogeneous device fleets — static configuration of the keynote's
    network of devices: a W-node sink, mW relays and µW sensor leaves in
    one field on one shared radio PHY.  See fleet.mli for the model
    boundaries (notably: one PHY for the whole fleet; tier heterogeneity
    lives in the energy/compute parameters). *)

open Amb_units
open Amb_energy
open Amb_circuit
open Amb_radio
open Amb_net
open Amb_node

type tier = Sensor_leaf | Relay | Sink | Tag

let tier_name = function
  | Sensor_leaf -> "uW leaf"
  | Relay -> "mW relay"
  | Sink -> "W sink"
  | Tag -> "nW tag"

(* [Tag] last: legacy consumers that index tiers by position keep their
   ordinals, and metrics that iterate the list print the tag row after
   the keynote tiers. *)
let all_tiers = [ Sensor_leaf; Relay; Sink; Tag ]

type tier_config = {
  name : string;
  activation_energy : Energy.t;
  sleep_power : Power.t;
  supply : Supply.t;
  report_period : Time_span.t option;
  budget_override : Energy.t option;
}

type t = {
  topology : Topology.t;
  tiers : tier array;
  tier_members : int array array;  (** per {!tier_ordinal}: ascending node ids *)
  sink : int;
  leaf : tier_config;
  relay : tier_config;
  sink_cfg : tier_config;
  tag : tier_config;
  tag_link : Amb_radio.Backscatter.t option;
      (** reader-powered PHY of the [Tag] tier; [None] when the fleet has
          no tags *)
  router : Routing.t;
}

let config_of t = function
  | Sensor_leaf -> t.leaf
  | Relay -> t.relay
  | Sink -> t.sink_cfg
  | Tag -> t.tag

let node_count t = Topology.node_count t.topology
let tier_of t i = t.tiers.(i)
let tier_ordinal = function Sensor_leaf -> 0 | Relay -> 1 | Sink -> 2 | Tag -> 3

(* Per-tier membership, computed once at construction (counting pass +
   fill pass): consumers iterate a tier in O(tier size) instead of
   filtering the whole fleet per query. *)
let members_of tiers =
  let counts = Array.make 4 0 in
  Array.iter (fun tr -> counts.(tier_ordinal tr) <- counts.(tier_ordinal tr) + 1) tiers;
  let members = Array.map (fun c -> Array.make c 0) counts in
  let cursors = Array.make 4 0 in
  Array.iteri
    (fun i tr ->
      let k = tier_ordinal tr in
      members.(k).(cursors.(k)) <- i;
      cursors.(k) <- cursors.(k) + 1)
    tiers;
  members

let tier_nodes t tier = t.tier_members.(tier_ordinal tier)
let nodes_of_tier t tier = Array.to_list (tier_nodes t tier)

(* ------------------------------------------------------------------ *)
(* Default tier configurations from the reference designs              *)

let microwatt_leaf ?(report_period = Time_span.seconds 30.0) () =
  let node = Reference_designs.microwatt_node () in
  let act = Reference_designs.microwatt_activation in
  let b = Node_model.cycle_breakdown node act in
  (* Radio energy is charged per hop by the link layer, so the
     activation keeps only the sense/convert/compute part. *)
  let non_radio =
    Energy.add b.Node_model.sensing (Energy.add b.Node_model.conversion b.Node_model.computation)
  in
  {
    name = "uW sensor leaf";
    activation_energy = non_radio;
    sleep_power = node.Node_model.sleep_power;
    supply = node.Node_model.supply;
    report_period = Some report_period;
    budget_override = None;
  }

let milliwatt_relay () =
  let node = Reference_designs.milliwatt_node () in
  {
    name = "mW relay";
    activation_energy = Energy.zero;
    sleep_power = node.Node_model.sleep_power;
    supply = node.Node_model.supply;
    report_period = None;
    budget_override = None;
  }

let watt_sink () =
  let node = Reference_designs.watt_node () in
  {
    name = "W sink";
    activation_energy = Energy.zero;
    sleep_power = node.Node_model.sleep_power;
    supply = node.Node_model.supply;
    report_period = None;
    budget_override = None;
  }

let nanowatt_tag ?(report_period = Time_span.minutes 5.0) () =
  let node = Reference_designs.nanowatt_tag () in
  let act = Reference_designs.nanowatt_activation in
  let b = Node_model.cycle_breakdown node act in
  (* The whole radio transaction is priced by the link layer's
     backscatter tariff (tag pays detector+modulator, reader pays the
     carrier), so the activation keeps only the protocol logic. *)
  {
    name = "nW tag";
    activation_energy = b.Node_model.computation;
    sleep_power = node.Node_model.sleep_power;
    supply = node.Node_model.supply;
    report_period = Some report_period;
    budget_override = None;
  }

let flat ~budget ~report_period =
  {
    name = "flat budget";
    activation_energy = Energy.zero;
    sleep_power = Power.zero;
    supply = Supply.make ~name:"flat budget" ~regulator_efficiency:1.0 ();
    report_period = Some report_period;
    budget_override = Some budget;
  }

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let default_link () =
  Link_budget.make ~radio:Radio_frontend.low_power_uhf ~channel:Path_loss.indoor ()

let default_packet = Packet.sensor_report

let default_tag_link () =
  Backscatter.make ~name:"UHF reader link" ~reader:Radio_frontend.rfid_reader
    ~tag:Radio_frontend.backscatter_uhf ()

let make ?leaf ?relay ?sink ?tag ?tag_link ?(tags = 0) ?(width_m = 250.0)
    ?(height_m = 250.0) ?link ?packet ~leaves ~relays ~seed () =
  if leaves < 0 then invalid_arg "Fleet.make: negative leaf count";
  if tags < 0 then invalid_arg "Fleet.make: negative tag count";
  if leaves + tags < 1 then invalid_arg "Fleet.make: need at least one leaf or tag";
  if relays < 0 then invalid_arg "Fleet.make: negative relay count";
  let leaf = match leaf with Some c -> c | None -> microwatt_leaf () in
  let relay = match relay with Some c -> c | None -> milliwatt_relay () in
  let sink_cfg = match sink with Some c -> c | None -> watt_sink () in
  let tag_cfg = match tag with Some c -> c | None -> nanowatt_tag () in
  let tag_link =
    if tags = 0 then None
    else Some (match tag_link with Some l -> l | None -> default_tag_link ())
  in
  let rng = Amb_sim.Rng.create seed in
  let n = 1 + relays + leaves + tags in
  let cx = width_m /. 2.0 and cy = height_m /. 2.0 in
  let ring = Float.min width_m height_m /. 4.0 in
  let positions =
    Array.init n (fun i ->
        if i = 0 then { Topology.x = cx; y = cy }
        else if i <= relays then begin
          let angle = 2.0 *. Float.pi *. Float.of_int (i - 1) /. Float.of_int relays in
          { Topology.x = cx +. (ring *. cos angle); y = cy +. (ring *. sin angle) }
        end
        else begin
          (* x then y, in node order (leaves first, then tags): the
             layout is a pure function of the seed, independent of tier
             parameters, and a fleet with [tags = 0] is bitwise
             identical to the pre-tag layout. *)
          let x = Amb_sim.Rng.uniform rng 0.0 width_m in
          let y = Amb_sim.Rng.uniform rng 0.0 height_m in
          { Topology.x; y }
        end)
  in
  let topology = Topology.of_positions ~width_m ~height_m positions in
  let tiers =
    Array.init n (fun i ->
        if i = 0 then Sink
        else if i <= relays then Relay
        else if i <= relays + leaves then Sensor_leaf
        else Tag)
  in
  let link = match link with Some l -> l | None -> default_link () in
  let packet = match packet with Some p -> p | None -> default_packet in
  let router = Routing.make ~topology ~link ~packet () in
  { topology; tiers; tier_members = members_of tiers; sink = 0; leaf; relay; sink_cfg;
    tag = tag_cfg; tag_link; router }

(* Leaves are placed in fixed-size blocks, each drawing from its own
   RNG stream; the streams are split off the master sequentially before
   any parallel work, so the layout is a pure function of the seed —
   bitwise independent of [jobs] (the same discipline as
   {!Amb_tech.Variability.monte_carlo}). *)
let city_block = 8192

type build_timing = {
  clock : unit -> float;
  mutable layout_s : float;
  mutable topology_s : float;
  mutable csr_s : float;
}

let build_timing ~clock = { clock; layout_s = 0.0; topology_s = 0.0; csr_s = 0.0 }

let city ?leaf ?relay ?sink ?tag ?tag_link ?(tags = 0) ?link ?packet ?(jobs = 1)
    ?(target_degree = 16.0) ?timing ~nodes ~seed () =
  if nodes < 4 then invalid_arg "Fleet.city: need at least four nodes";
  if tags < 0 then invalid_arg "Fleet.city: negative tag count";
  if target_degree <= 0.0 then invalid_arg "Fleet.city: non-positive target degree";
  let leaf = match leaf with Some c -> c | None -> microwatt_leaf () in
  let relay = match relay with Some c -> c | None -> milliwatt_relay () in
  let sink_cfg = match sink with Some c -> c | None -> watt_sink () in
  let tag_cfg = match tag with Some c -> c | None -> nanowatt_tag () in
  let tag_link_v =
    if tags = 0 then None
    else Some (match tag_link with Some l -> l | None -> default_tag_link ())
  in
  let link = match link with Some l -> l | None -> default_link () in
  let packet = match packet with Some p -> p | None -> default_packet in
  let range_m =
    Link_budget.max_range link
      ~tx_dbm:link.Link_budget.radio.Radio_frontend.max_tx_dbm
  in
  (* Field side chosen so a uniform placement lands [target_degree]
     nodes inside one radio range: area = n * pi * r^2 / degree. *)
  let side =
    Float.sqrt (Float.of_int nodes *. Float.pi *. range_m *. range_m /. target_degree)
  in
  let n = nodes + tags in
  let relays = Stdlib.max 1 (nodes / 50) in
  let leaves = nodes - 1 - relays in
  let stamp = match timing with Some t -> t.clock () | None -> 0.0 in
  let positions = Array.make n { Topology.x = 0.0; y = 0.0 } in
  positions.(0) <- { Topology.x = side /. 2.0; y = side /. 2.0 };
  (* Relays on a deterministic uniform grid: backbone coverage of the
     whole field, independent of the seed. *)
  let gcols = Float.to_int (Float.ceil (Float.sqrt (Float.of_int relays))) in
  let grows = (relays + gcols - 1) / gcols in
  for k = 0 to relays - 1 do
    let col = k mod gcols and row = k / gcols in
    positions.(1 + k) <-
      { Topology.x = (Float.of_int col +. 0.5) *. side /. Float.of_int gcols;
        y = (Float.of_int row +. 0.5) *. side /. Float.of_int grows }
  done;
  let master = Amb_sim.Rng.create seed in
  let blocks = (leaves + city_block - 1) / city_block in
  let streams = Array.init blocks (fun _ -> Amb_sim.Rng.split master) in
  (* The tag stream splits only when tags are requested, after all leaf
     streams: a [tags = 0] city is bitwise identical to the pre-tag
     layout. *)
  let tag_stream = if tags > 0 then Some (Amb_sim.Rng.split master) else None in
  let fill k =
    let rng = streams.(k) in
    let lo = 1 + relays + (k * city_block) in
    let hi = Stdlib.min (nodes - 1) (lo + city_block - 1) in
    for i = lo to hi do
      (* x then y, in node order within the block, as [make] draws. *)
      let x = Amb_sim.Rng.uniform rng 0.0 side in
      let y = Amb_sim.Rng.uniform rng 0.0 side in
      positions.(i) <- { Topology.x; y }
    done
  in
  if jobs <= 1 || blocks <= 1 then
    for k = 0 to blocks - 1 do
      fill k
    done
  else
    ignore
      (Amb_sim.Domain_pool.with_pool ~jobs (fun pool ->
           Amb_sim.Domain_pool.run pool (Array.init blocks (fun k () -> fill k))));
  (match tag_stream with
  | None -> ()
  | Some rng ->
      for i = nodes to n - 1 do
        let x = Amb_sim.Rng.uniform rng 0.0 side in
        let y = Amb_sim.Rng.uniform rng 0.0 side in
        positions.(i) <- { Topology.x; y }
      done);
  let stamp =
    match timing with
    | None -> stamp
    | Some t ->
        let now = t.clock () in
        t.layout_s <- t.layout_s +. (now -. stamp);
        now
  in
  let topology = Topology.of_positions ~width_m:side ~height_m:side positions in
  let stamp =
    match timing with
    | None -> stamp
    | Some t ->
        let now = t.clock () in
        t.topology_s <- t.topology_s +. (now -. stamp);
        now
  in
  let tiers =
    Array.init n (fun i ->
        if i = 0 then Sink
        else if i <= relays then Relay
        else if i < nodes then Sensor_leaf
        else Tag)
  in
  let router = Routing.make ~jobs ~topology ~link ~packet () in
  (match timing with
  | None -> ()
  | Some t -> t.csr_s <- t.csr_s +. (t.clock () -. stamp));
  { topology; tiers; tier_members = members_of tiers; sink = 0; leaf; relay; sink_cfg;
    tag = tag_cfg; tag_link = tag_link_v; router }

let homogeneous ?link ?packet ~topology ~sink ~node () =
  let n = Topology.node_count topology in
  if n < 2 then invalid_arg "Fleet.homogeneous: need at least two nodes";
  if sink < 0 || sink >= n then invalid_arg "Fleet.homogeneous: sink out of range";
  let tiers = Array.init n (fun i -> if i = sink then Sink else Sensor_leaf) in
  let sink_cfg = { node with name = node.name ^ " (sink)"; report_period = None } in
  let link = match link with Some l -> l | None -> default_link () in
  let packet = match packet with Some p -> p | None -> default_packet in
  let router = Routing.make ~topology ~link ~packet () in
  { topology; tiers; tier_members = members_of tiers; sink; leaf = node; relay = node;
    sink_cfg; tag = node; tag_link = None; router }
