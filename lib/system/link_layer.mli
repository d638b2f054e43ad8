(** Physical-layer hop costs for the co-simulation, with injectable link
    fades.

    Three cost modes:
    - [Off] — radio free of charge (the single-node degenerate
      cross-check, where the activation energy already contains the
      radio);
    - [Cached] — the {!Amb_net.Routing} per-pair TX/RX cache verbatim,
      byte-identical to what {!Amb_net.Net_sim} charges;
    - [Mac] — [Cached] plus preamble-sampling MAC overheads from
      {!Amb_radio.Mac_duty_cycle}: a full-interval preamble per TX, half
      an interval of listening per RX, and a continuous channel-sampling
      power every node pays in sleep.

    A fade of [db] on a pair raises its path loss, modelled as an
    effective distance d' = d * 10^(db / (10 n)) under the channel's
    log-distance exponent n; hops that no longer close are cut from the
    routing graph.

    When a fleet carries batteryless tags, [tag_link] installs the
    reader-powered tariff of {!Amb_radio.Backscatter}: a hop whose
    sender is a tag charges the tag only its detector+modulator
    nanojoules, while the receiving reader pays the carrier for the
    whole transaction (command downlink plus carrier+listen during the
    reply) — even when that reader is the sink, which otherwise listens
    free.  Nothing routes into or through a tag, and a tag hop exists
    only toward a node the [is_reader] predicate admits. *)

open Amb_net

type mode = Off | Cached | Mac of Amb_radio.Mac_duty_cycle.t

type t

val create :
  ?tag_link:Amb_radio.Backscatter.t * (int -> bool) * (int -> bool) ->
  router:Routing.t ->
  mode:mode ->
  unit ->
  t
(** [tag_link] is [(link, is_tag, is_reader)]: the backscatter PHY, the
    predicate marking tag nodes, and the predicate marking the nodes
    allowed to terminate a tag hop (the W-node readers). *)

val mode : t -> mode

val set_fade : t -> a:int -> b:int -> db:float -> unit
(** Set (replace) the symmetric extra loss on a pair; raises
    [Invalid_argument] on negative dB. *)

val fade_db : t -> int -> int -> float

val cost_tx_j : t -> int -> int -> float
(** Joules charged to the sender for one packet over a pair; NaN when the
    (possibly faded) link cannot close; 0 under [Off].  For a tag sender
    this is the backscatter tariff's tag side — nanojoules of detector
    and modulator, never a PA. *)

val cost_rx_j : t -> float
(** Joules charged to the receiver per packet (distance-independent). *)

val tag_hop : t -> int -> bool
(** Whether a sender is a tag, i.e. the hop is reader-powered.  Always
    false without [tag_link]. *)

val reader_cost_rx_j : t -> float
(** Joules the serving reader pays per tag report (carrier during the
    command, carrier + receive chain during the reply); 0 under [Off] or
    without [tag_link]. *)

val hop_normal : int
(** {!refresh_hop_tariffs} receiver kinds: an ordinary hop (receiver
    pays {!cost_rx_j}) … *)

val hop_tag : int
(** … a reader-powered tag hop (receiver pays {!reader_cost_rx_j},
    even when it is the sink) … *)

val hop_sink_parent : int
(** … or a hop into the sink, which listens for free. *)

val refresh_hop_tariffs :
  t -> sink:int -> parent:int array -> tx_j:float array -> hop_kind:int array -> unit
(** Precompute, for every node with [parent.(node) >= 0], the sender
    tariff [tx_j.(node) = cost_tx_j t node parent.(node)] (bit-exact,
    NaN when the hop cannot close) and the receiver classification
    [hop_kind.(node)] ({!hop_normal} / {!hop_tag} /
    {!hop_sink_parent}).  Orphans get a NaN tariff.  Called on every
    route-tree sync, so the arrays are stale only when the tree itself
    is — the co-simulation's report walk then reads flat arrays with
    zero link-layer calls per hop. *)

val weight_j : t -> int -> int -> float
(** [weight_j t u v] — physical TX+RX joules for routing weights,
    fade-adjusted, regardless of mode (an [Off] fleet still routes over
    the physical graph); NaN when the pair is out of reach.  Route
    sweeps relax from the sink outward, so [u] is the parent-side node
    and [v] the child whose traffic flows [v -> u]: a tag prices its
    edge only as the child, at the full reader-paid transaction toward
    a reader parent, and is NaN as a parent (nothing routes into or
    through a tag). *)

val sampling_power_w : t -> float
(** Continuous MAC channel-sampling drain per node; 0 outside [Mac]. *)
