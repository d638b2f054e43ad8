(** Link-budget analysis tying the radio front-end to the channel.

    Answers the questions that size the communication electronics of each
    node class: how far does a given TX level reach, what TX level does a
    given distance require, and how much energy does a delivered bit cost
    at that distance. *)

open Amb_units
open Amb_circuit

type t = {
  radio : Radio_frontend.t;
  channel : Path_loss.model;
  fade_margin_db : float;  (** safety margin on top of sensitivity *)
}

let make ?(fade_margin_db = 10.0) ~radio ~channel () =
  if fade_margin_db < 0.0 then invalid_arg "Link_budget.make: negative margin";
  { radio; channel; fade_margin_db }

(** [noise_floor_dbm link] — receiver noise floor. *)
let noise_floor_dbm link =
  Decibel.noise_floor_dbm ~bandwidth_hz:link.radio.Radio_frontend.bandwidth_hz
    ~noise_figure_db:link.radio.Radio_frontend.noise_figure_db

(** [received_dbm link ~tx_dbm ~distance_m]. *)
let received_dbm link ~tx_dbm ~distance_m =
  Path_loss.received_dbm link.channel ~tx_dbm
    ~carrier_hz:link.radio.Radio_frontend.carrier_hz ~distance_m

(** [snr_db link ~tx_dbm ~distance_m] — SNR at the detector. *)
let snr_db link ~tx_dbm ~distance_m =
  received_dbm link ~tx_dbm ~distance_m -. noise_floor_dbm link

(** [closes link ~tx_dbm ~distance_m] — does the link close with margin? *)
let closes link ~tx_dbm ~distance_m =
  received_dbm link ~tx_dbm ~distance_m
  >= link.radio.Radio_frontend.sensitivity_dbm +. link.fade_margin_db

(** [max_range link ~tx_dbm] — metres. *)
let max_range link ~tx_dbm =
  Path_loss.max_range link.channel ~tx_dbm ~carrier_hz:link.radio.Radio_frontend.carrier_hz
    ~threshold_dbm:(link.radio.Radio_frontend.sensitivity_dbm +. link.fade_margin_db)

(** [required_tx_dbm link ~distance_m] — the minimum TX level closing the
    link at [distance_m]; [None] when even the radio's maximum does not
    reach. *)
let required_tx_dbm link ~distance_m =
  let loss =
    Path_loss.loss_db link.channel ~carrier_hz:link.radio.Radio_frontend.carrier_hz ~distance_m
  in
  let needed = link.radio.Radio_frontend.sensitivity_dbm +. link.fade_margin_db +. loss in
  if needed > link.radio.Radio_frontend.max_tx_dbm then None else Some needed

(** [tx_tariff link ~bits] — the per-hop price, staged: a function from
    distance to the joules of one [bits]-bit TX burst (start-up
    included) at the minimum closing level, NaN where
    {!required_tx_dbm} is [None].  Bit for bit
    [required_tx_dbm] followed by [Radio_frontend.transmit_energy
    ~include_startup:true]: every distance-independent term (the loss
    staging of {!Path_loss.loss_fn}, sensitivity plus margin, airtime,
    electronics power, start-up energy) is computed once here, and the
    per-distance operations keep their order.  The clamp of
    [Radio_frontend.tx_power] is dropped: the level it would clamp is
    already at most [max_tx_dbm]. *)
let tx_tariff link ~bits =
  let radio = link.radio in
  let loss = Path_loss.loss_fn link.channel ~carrier_hz:radio.Radio_frontend.carrier_hz in
  let threshold = radio.Radio_frontend.sensitivity_dbm +. link.fade_margin_db in
  let max_tx_dbm = radio.Radio_frontend.max_tx_dbm in
  let p_electronics = Power.to_watts radio.Radio_frontend.p_tx_electronics in
  let pa_efficiency = radio.Radio_frontend.pa_efficiency in
  let airtime = Time_span.to_seconds (Data_rate.transfer_time radio.Radio_frontend.bitrate bits) in
  let startup = Energy.to_joules (Radio_frontend.startup_energy radio) in
  fun distance_m ->
    let needed = threshold +. loss distance_m in
    if needed > max_tx_dbm then Float.nan
    else
      let rf_out = Power.to_watts (Decibel.power_of_dbm needed) in
      ((p_electronics +. (rf_out /. pa_efficiency)) *. airtime) +. startup

(** [energy_per_delivered_bit link ~distance_m ~packet_bits] — TX energy
    per bit at the minimum closing TX level, including amortised start-up;
    [None] when the link cannot close.  The E8 curve. *)
let energy_per_delivered_bit link ~distance_m ~packet_bits =
  match required_tx_dbm link ~distance_m with
  | None -> None
  | Some tx_dbm ->
    Some (Radio_frontend.effective_energy_per_bit link.radio ~tx_dbm ~bits:packet_bits)

(** [tx_power_at link ~distance_m] — DC power while transmitting at the
    minimum closing level; [None] when out of reach. *)
let tx_power_at link ~distance_m =
  match required_tx_dbm link ~distance_m with
  | None -> None
  | Some tx_dbm -> Some (Radio_frontend.tx_power link.radio ~tx_dbm)
