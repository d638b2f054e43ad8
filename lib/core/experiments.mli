(** The reconstructed experiment suite — one builder per table/figure
    (E1..E27 plus ablations A1..A3); see DESIGN.md for the id-to-module
    map and EXPERIMENTS.md for expected-shape vs measured. *)

open Amb_tech

val e1 : unit -> Report.t
(** Power-information graph. *)

val e2 : unit -> Report.t
(** The three device classes. *)

val e3 : unit -> Report.t
(** CS-A energy budget per activation. *)

val e4 : unit -> Report.t
(** CS-A lifetime vs activation rate. *)

val e5 : unit -> Report.t
(** Efficiency gaps vs roadmap. *)

val e6 : unit -> Report.t
(** DVFS vs race-to-idle. *)

val e7 : unit -> Report.t
(** Media SoC across process nodes. *)

val e8 : unit -> Report.t
(** Radio energy per bit vs range. *)

val e9 : unit -> Report.t
(** Preamble-sampling MAC optimum. *)

val e10 : unit -> Report.t
(** Functions mapped on the smart-home network. *)

val e11 : unit -> Report.t
(** Sensor-field lifetime vs routing policy. *)

val e12 : unit -> Report.t
(** Discrete-event simulation vs closed form. *)

val e13 : unit -> Report.t
(** Closing the video-on-mW gap by architecture. *)

val e14 : unit -> Report.t
(** Diurnal harvesting: balance and night buffer. *)

val e15 : unit -> Report.t
(** MPSoC interconnect: shared bus vs NoC. *)

val e16 : unit -> Report.t
(** Shared-channel MAC simulation vs pure-ALOHA closed form. *)

val e17 : unit -> Report.t
(** Regulator overheads set the sleep floor. *)

val e18 : unit -> Report.t
(** Per-die leakage spread from process variability. *)

val e19 : unit -> Report.t
(** Sensitivity of the autonomy boundary to model constants. *)

val e20 : unit -> Report.t
(** Packet-level network simulation (the co-simulation on a flat-budget
    fleet) vs analytic depletion. *)

val e21 : unit -> Report.t
(** Analytic schedulability bounds vs simulated deadline misses. *)

val e22 : unit -> Report.t
(** Design space of the autonomous sensing node. *)

val e23 : unit -> Report.t
(** The ten-year vision timeline: which class-down ambitions scaling
    alone reaches, by year. *)

val e24 : unit -> Report.t
(** 2.4 GHz coexistence: sensor delivery under home interference mixes. *)

val e25 : unit -> Report.t
(** Heterogeneous-fleet co-simulation baseline (the [lib/system]
    tentpole: one clock over energy, radio and routing). *)

val e26 : unit -> Report.t
(** Fault scenarios (crash, link fade, battery variability) on the E25
    fleet, one scenario per domain. *)

val e27 : unit -> Report.t
(** Degenerate-config cross-checks: the co-simulation vs the plain
    [Net_sim] reference on E20's flat fleet, and vs [Lifetime_sim]
    (E12-style single node). *)

val e28 : unit -> Report.t
(** The extended taxonomy: all four device classes including the
    Ambient-IoT nW tag (the CLI's default [classes] table). *)

val e29 : unit -> Report.t
(** The A-IoT blocks placed on the power-information graph; frontier
    computed over the union with the E1 catalogue. *)

val e30 : unit -> Report.t
(** Backscatter link budget vs distance — monostatic and bistatic, with
    harvested DC and both sides of the per-report energy bill. *)

val e31 : unit -> Report.t
(** Mixed fleet with batteryless tags through the co-simulation: the
    W-node reader pays the radio bill the tags cannot. *)

val e32 : unit -> Report.t
(** The declarative scenario-matrix harness over a 2x2x2 grid (policy x
    fault plan x seed), with the replay pass proving the digest-keyed
    cache answers every cell. *)

val a1 : unit -> Report.t
(** Ablation: Peukert derating off. *)

val a2 : unit -> Report.t
(** Ablation: Dennard vs leakage-aware projection. *)

val a3 : unit -> Report.t
(** Ablation: radio start-up cost removed. *)

val media_soc : Process_node.t -> Soc.t
(** The fixed-architecture SD media SoC retargeted across nodes (E7). *)

val smart_home_hosts : unit -> Mapping.host list
(** The E10 network: four sensors, wearable, handheld, 8-core media
    hub. *)

val all : (string * string * (unit -> Report.t)) list
(** (id, description, builder), in presentation order. *)

val find : string -> (string * string * (unit -> Report.t)) option
(** Case-insensitive lookup by experiment id. *)

val shard_count : string -> int
(** Number of independently schedulable shards a builder splits into
    (1 for unsharded experiments and unknown ids). *)

val build_sharded : ?jobs:int -> string -> Report.t option
(** Build one experiment, spreading its shards (if any) over a domain
    pool; [None] for unknown ids.  Byte-identical to the sequential
    builder. *)

val run_all :
  ?jobs:int -> ?expected:(string -> float option) -> unit -> (string * string * Report.t) list
(** Build every report, in presentation order.  [jobs] > 1 runs the
    work on a domain pool at shard granularity, submitted
    longest-expected-first (greedy LPT against the pool's pull order);
    [expected] supplies measured per-experiment build times in ns (a
    previous bench snapshot), falling back to a static cost table.
    Output is byte-identical to the sequential run (deterministic
    gather, per-task seeds). *)
