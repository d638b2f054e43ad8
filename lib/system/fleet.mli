(** Heterogeneous device fleets — the network of the keynote's device
    classes: one mains-powered W-node sink, battery-powered mW relays,
    harvesting µW sensor leaves, and (optionally) batteryless nW
    backscatter tags, placed in a field.  Leaves and relays share one
    active radio PHY; tags have no transmitter and ride a reader-powered
    {!Amb_radio.Backscatter} link terminated at the W-node sink.

    A fleet is pure configuration: topology, per-node tier, per-tier
    energy/traffic parameters, and the precomputed {!Amb_net.Routing}
    cache.  {!Cosim} executes it. *)

open Amb_units
open Amb_energy
open Amb_net

type tier = Sensor_leaf | Relay | Sink | Tag

val tier_name : tier -> string

val all_tiers : tier list
(** [Tag] last, after the three keynote tiers. *)

(** Per-tier node parameters.  [activation_energy] is charged per
    generated report on top of the radio energy the link layer charges
    (so it should exclude communication unless the link layer runs
    {!Link_layer.Off}).  [report_period = None] means the tier carries
    traffic but generates none.  [budget_override] replaces the supply's
    battery capacity — used by {!flat}. *)
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
  tiers : tier array;  (** per node index *)
  tier_members : int array array;  (** per tier ordinal: ascending node ids *)
  sink : int;
  leaf : tier_config;
  relay : tier_config;
  sink_cfg : tier_config;
  tag : tier_config;
  tag_link : Amb_radio.Backscatter.t option;
      (** reader-powered PHY of the [Tag] tier; [None] when the fleet
          has no tags *)
  router : Routing.t;  (** shared-PHY per-pair link-energy cache *)
}

val config_of : t -> tier -> tier_config
val node_count : t -> int

val tier_nodes : t -> tier -> int array
(** Ascending node ids of a tier, precomputed at construction; callers
    must not mutate the array.  O(1) per query. *)

val nodes_of_tier : t -> tier -> int list
(** {!tier_nodes} as a fresh list. *)

val tier_of : t -> int -> tier

val microwatt_leaf : ?report_period:Time_span.t -> unit -> tier_config
(** The µW reference design: PV + coin cell, 5 µW sleep; activation
    energy is the non-radio part of one sense-process-transmit cycle
    (the radio part is charged per hop by the link layer).  Default
    report period 30 s. *)

val milliwatt_relay : unit -> tier_config
(** The mW reference design as a forwarding relay: Li-ion battery, 2 mW
    sleep, generates no reports. *)

val watt_sink : unit -> tier_config
(** The W reference design as the mains-powered collection sink. *)

val nanowatt_tag : ?report_period:Time_span.t -> unit -> tier_config
(** The nW reference design as a batteryless inventory tag: rectenna
    supply, 30 nW sleep, no battery (so the ledger never declares it
    dead); activation energy is the ~50-op protocol logic only — the
    whole radio transaction is priced by the link layer's backscatter
    tariff.  Default report period 5 min (one inventory round). *)

val flat : budget:Energy.t -> report_period:Time_span.t -> tier_config
(** A node that spends radio energy only, from a flat [budget]: no
    activation, sleep or harvest, an ideal regulator.  On a
    {!homogeneous} fleet under {!Link_layer.Cached} hop pricing,
    {!Cosim} runs the packet-level model of {!Amb_net.Net_sim}. *)

val default_tag_link : unit -> Amb_radio.Backscatter.t
(** The fleet's default reader-powered PHY: 36 dBm monostatic UHF reader
    ({!Amb_circuit.Radio_frontend.rfid_reader}) interrogating
    {!Amb_circuit.Radio_frontend.backscatter_uhf} tags. *)

val make :
  ?leaf:tier_config ->
  ?relay:tier_config ->
  ?sink:tier_config ->
  ?tag:tier_config ->
  ?tag_link:Amb_radio.Backscatter.t ->
  ?tags:int ->
  ?width_m:float ->
  ?height_m:float ->
  ?link:Amb_radio.Link_budget.t ->
  ?packet:Amb_radio.Packet.t ->
  leaves:int ->
  relays:int ->
  seed:int ->
  unit ->
  t
(** Deterministic mixed-tier layout in a [width_m] x [height_m] field
    (default 250 x 250 m): the sink at the field centre (node 0), relays
    on a ring of radius min(w,h)/4 around it (nodes 1..relays), leaves
    uniformly random from [seed], then [tags] (default 0) uniformly
    random tags — drawn after the leaves, so a fleet with [tags = 0] is
    bitwise identical to the pre-tag layout.  The PHY defaults to the
    low-power-UHF front-end over the indoor channel carrying
    sensor-report packets; tags ride {!default_tag_link} unless
    [tag_link] overrides it.  Raises [Invalid_argument] when [leaves] or
    [tags] or [relays] is negative, or when [leaves + tags] < 1 (a fleet
    must source traffic from somewhere). *)

type build_timing = {
  clock : unit -> float;  (** wall-clock source, e.g. [Unix.gettimeofday] *)
  mutable layout_s : float;  (** placement: relay grid, leaf blocks, tags *)
  mutable topology_s : float;  (** [Topology.of_positions] *)
  mutable csr_s : float;  (** [Routing.make]: CSR structure + edge energies *)
}
(** Wall-clock accumulators for {!city}'s three build stages, filled
    when passed as [?timing].  Purely observational — the built fleet
    is bit-identical with or without it. *)

val build_timing : clock:(unit -> float) -> build_timing
(** Fresh zeroed accumulators around [clock]. *)

val city :
  ?leaf:tier_config ->
  ?relay:tier_config ->
  ?sink:tier_config ->
  ?tag:tier_config ->
  ?tag_link:Amb_radio.Backscatter.t ->
  ?tags:int ->
  ?link:Amb_radio.Link_budget.t ->
  ?packet:Amb_radio.Packet.t ->
  ?jobs:int ->
  ?target_degree:float ->
  ?timing:build_timing ->
  nodes:int ->
  seed:int ->
  unit ->
  t
(** City-scale fleet: the sink at the centre of a square field sized so
    a uniform placement sees ~[target_degree] (default 16) nodes per
    radio range, [nodes/50] relays on a deterministic uniform grid, and
    the remaining nodes as uniformly random leaves.  [tags] (default 0)
    extra batteryless tags are placed uniformly from a dedicated RNG
    stream split after the leaf streams (so [tags = 0] stays bitwise
    identical to the pre-tag layout); the field is sized by [nodes]
    alone — tags generate traffic but never relay.  Leaf placement
    draws from per-block RNG streams split off the seed before any
    parallel work, and the routing cache is built as CSR rows — so the
    fleet is a pure function of [seed], bitwise
    independent of [jobs], and O(n + edges) in memory.  Raises
    [Invalid_argument] when [nodes] < 4 or [tags] < 0. *)

val homogeneous :
  ?link:Amb_radio.Link_budget.t ->
  ?packet:Amb_radio.Packet.t ->
  topology:Topology.t ->
  sink:int ->
  node:tier_config ->
  unit ->
  t
(** Every node identical (all leaves except the sink, which gets the same
    energy parameters but generates nothing) on a caller-supplied
    topology — with {!flat} nodes, the packet-level network fleet of
    experiments E20 and E27; with one battery leaf, the fleet E27 holds
    to {!Amb_node.Lifetime_sim}.  Raises
    [Invalid_argument] on a topology of fewer than two nodes (a
    sink-only fleet is degenerate) or a [sink] out of range. *)
