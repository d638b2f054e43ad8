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

(* The distance-independent terms of the per-hop price (an all-float
   record, so its fields are read unboxed). *)
type tariff_terms = {
  threshold : float;  (** sensitivity plus fade margin, dBm *)
  max_tx_dbm : float;
  p_electronics : float;  (** W *)
  pa_efficiency : float;
  airtime : float;  (** s *)
  startup : float;  (** J *)
}

let tariff_terms link ~bits =
  let radio = link.radio in
  {
    threshold = radio.Radio_frontend.sensitivity_dbm +. link.fade_margin_db;
    max_tx_dbm = radio.Radio_frontend.max_tx_dbm;
    p_electronics = Power.to_watts radio.Radio_frontend.p_tx_electronics;
    pa_efficiency = radio.Radio_frontend.pa_efficiency;
    airtime = Time_span.to_seconds (Data_rate.transfer_time radio.Radio_frontend.bitrate bits);
    startup = Energy.to_joules (Radio_frontend.startup_energy radio);
  }

(* The per-distance operations from a path loss (dB) to the burst's
   joules, shared by [tx_tariff] and [tx_tariff_slice].  The RF output
   is [Decibel.power_of_dbm] unfolded ([1e-3 *. 10 ** (dBm / 10)]; the
   unit wrappers are identities), so no float is boxed. *)
let[@inline] price t loss =
  let needed = t.threshold +. loss in
  if needed > t.max_tx_dbm then Float.nan
  else
    let rf_out = 1e-3 *. (10.0 ** (needed /. 10.0)) in
    ((t.p_electronics +. (rf_out /. t.pa_efficiency)) *. t.airtime) +. t.startup

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
  let loss = Path_loss.loss_fn link.channel ~carrier_hz:link.radio.Radio_frontend.carrier_hz in
  let t = tariff_terms link ~bits in
  fun distance_m -> price t (loss distance_m)

(** [tx_tariff_slice link ~bits] — {!tx_tariff} over an array slice, in
    place: the distances become their losses ({!Path_loss.loss_slice}),
    then their prices, one call per slice and no float boxed. *)
let tx_tariff_slice link ~bits =
  let loss = Path_loss.loss_slice link.channel ~carrier_hz:link.radio.Radio_frontend.carrier_hz in
  let t = tariff_terms link ~bits in
  fun a lo hi ->
    loss a lo hi;
    for k = lo to hi - 1 do
      Array.unsafe_set a k (price t (Array.unsafe_get a k))
    done

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
