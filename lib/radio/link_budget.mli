(** Link-budget analysis tying the radio front-end to the channel: how
    far a TX level reaches, what level a distance requires, and what a
    delivered bit costs there. *)

open Amb_circuit

type t = {
  radio : Radio_frontend.t;
  channel : Path_loss.model;
  fade_margin_db : float;  (** safety margin on top of sensitivity *)
}

val make : ?fade_margin_db:float -> radio:Radio_frontend.t -> channel:Path_loss.model -> unit -> t
(** Default margin 10 dB; raises [Invalid_argument] on negative margins. *)

val noise_floor_dbm : t -> float
val received_dbm : t -> tx_dbm:float -> distance_m:float -> float
val snr_db : t -> tx_dbm:float -> distance_m:float -> float

val closes : t -> tx_dbm:float -> distance_m:float -> bool
(** Does the link close with margin? *)

val max_range : t -> tx_dbm:float -> float

val required_tx_dbm : t -> distance_m:float -> float option
(** Minimum TX level closing the link; [None] beyond the radio's
    maximum. *)

val tx_tariff : t -> bits:float -> float -> float
(** [tx_tariff link ~bits] is the staged per-hop price: distance (m) to
    the joules of one [bits]-bit TX burst, start-up included, at the
    minimum closing level; NaN where {!required_tx_dbm} is [None].  Bit
    for bit [required_tx_dbm] then [Radio_frontend.transmit_energy
    ~include_startup:true], with every distance-independent term
    computed once at staging. *)

val tx_tariff_slice : t -> bits:float -> float array -> int -> int -> unit
(** [tx_tariff_slice link ~bits] is {!tx_tariff} over an array slice:
    [f a lo hi] replaces each distance [a.(k)], [lo <= k < hi], by
    [tx_tariff link ~bits a.(k)], bit for bit, with no float boxed per
    element.  Staged like {!tx_tariff}; the caller keeps the slice in
    bounds. *)

val energy_per_delivered_bit : t -> distance_m:float -> packet_bits:float -> Amb_units.Energy.t option
(** TX energy per bit at the minimum closing level, including amortised
    start-up (the E8 curve); [None] when the link cannot close. *)

val tx_power_at : t -> distance_m:float -> Amb_units.Power.t option
(** DC power while transmitting at the minimum closing level. *)
