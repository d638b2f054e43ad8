(** Radio propagation models.

    Free-space (Friis) for line-of-sight links and log-distance for indoor
    ambient-intelligence environments, where exponents of 3-4 are
    typical. *)

let speed_of_light = 299_792_458.0

type model =
  | Free_space
  | Log_distance of { exponent : float; reference_m : float }
      (** Friis up to [reference_m], then 10*n*log10(d/d0) beyond *)

let free_space = Free_space

let log_distance ?(reference_m = 1.0) exponent =
  if exponent < 1.0 then invalid_arg "Path_loss.log_distance: exponent < 1";
  if reference_m <= 0.0 then invalid_arg "Path_loss.log_distance: non-positive reference";
  Log_distance { exponent; reference_m }

(** Typical indoor (through-wall) environment: n = 3.3. *)
let indoor = log_distance 3.3

(** Typical open office: n = 2.5. *)
let open_office = log_distance 2.5

(* Friis loss at [d] for a precomputed wavelength. *)
let friis ~wavelength d =
  if d <= 0.0 then 0.0 else 20.0 *. Float.log10 (4.0 *. Float.pi *. d /. wavelength)

let friis_loss_db ~carrier_hz ~distance_m =
  friis ~wavelength:(speed_of_light /. carrier_hz) distance_m

(** [loss_fn model ~carrier_hz] — [loss_db model ~carrier_hz] staged:
    the wavelength, the reference-distance loss and [10·n] are computed
    once, and the returned function does only the per-distance
    operations. *)
let loss_fn model ~carrier_hz =
  if carrier_hz <= 0.0 then invalid_arg "Path_loss.loss_db: non-positive carrier";
  let wavelength = speed_of_light /. carrier_hz in
  match model with
  | Free_space -> friis ~wavelength
  | Log_distance { exponent; reference_m } ->
    let reference_loss = friis ~wavelength reference_m and ten_n = 10.0 *. exponent in
    fun d ->
      if d <= 0.0 then 0.0
      else if d <= reference_m then friis ~wavelength d
      else reference_loss +. (ten_n *. Float.log10 (d /. reference_m))

(** [loss_db model ~carrier_hz ~distance_m] — path loss in dB.  Distances
    at or below zero lose nothing; carrier must be positive. *)
let loss_db model ~carrier_hz ~distance_m = loss_fn model ~carrier_hz distance_m

(** [received_dbm model ~tx_dbm ~carrier_hz ~distance_m]. *)
let received_dbm model ~tx_dbm ~carrier_hz ~distance_m =
  tx_dbm -. loss_db model ~carrier_hz ~distance_m

(** [max_range model ~tx_dbm ~carrier_hz ~threshold_dbm] — the largest
    distance at which the received level stays above [threshold_dbm]
    (monotone bisection; 0 when even at contact the threshold fails). *)
let max_range model ~tx_dbm ~carrier_hz ~threshold_dbm =
  let ok d = received_dbm model ~tx_dbm ~carrier_hz ~distance_m:d >= threshold_dbm in
  if not (ok 1e-3) then 0.0
  else
    let rec bracket hi n = if n = 0 || not (ok hi) then hi else bracket (hi *. 2.0) (n - 1) in
    let hi = bracket 1.0 60 in
    if ok hi then hi
    else
      let rec bisect lo hi n =
        if n = 0 then lo
        else
          let mid = 0.5 *. (lo +. hi) in
          if ok mid then bisect mid hi (n - 1) else bisect lo mid (n - 1)
      in
      bisect 1e-3 hi 60
