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
let[@inline] friis ~wavelength d =
  if d <= 0.0 then 0.0 else 20.0 *. Float.log10 (4.0 *. Float.pi *. d /. wavelength)

let friis_loss_db ~carrier_hz ~distance_m =
  friis ~wavelength:(speed_of_light /. carrier_hz) distance_m

(* The distance-independent terms of a model's loss.  Free space is the
   log-distance law with an infinite reference distance: every distance
   [d <= infinity] takes the Friis branch. *)
type staged = { wavelength : float; reference_m : float; reference_loss : float; ten_n : float }

let stage model ~carrier_hz =
  if carrier_hz <= 0.0 then invalid_arg "Path_loss.loss_db: non-positive carrier";
  let wavelength = speed_of_light /. carrier_hz in
  match model with
  | Free_space -> { wavelength; reference_m = Float.infinity; reference_loss = 0.0; ten_n = 0.0 }
  | Log_distance { exponent; reference_m } ->
    { wavelength; reference_m; reference_loss = friis ~wavelength reference_m;
      ten_n = 10.0 *. exponent }

(* The per-distance operations, shared by [loss_fn] and [loss_slice]. *)
let[@inline] staged_loss s d =
  if d <= s.reference_m then friis ~wavelength:s.wavelength d
  else s.reference_loss +. (s.ten_n *. Float.log10 (d /. s.reference_m))

(** [loss_fn model ~carrier_hz] — [loss_db model ~carrier_hz] staged:
    the wavelength, the reference-distance loss and [10·n] are computed
    once, and the returned function does only the per-distance
    operations. *)
let loss_fn model ~carrier_hz =
  let s = stage model ~carrier_hz in
  fun d -> staged_loss s d

(** [loss_slice model ~carrier_hz] — {!loss_fn} over an array slice, in
    place: one call per slice, no float boxed per distance. *)
let loss_slice model ~carrier_hz =
  let s = stage model ~carrier_hz in
  fun a lo hi ->
    for k = lo to hi - 1 do
      Array.unsafe_set a k (staged_loss s (Array.unsafe_get a k))
    done

(** [loss_db model ~carrier_hz ~distance_m] — path loss in dB.  Distances
    at or below zero lose nothing; carrier must be positive. *)
let loss_db model ~carrier_hz ~distance_m = loss_fn model ~carrier_hz distance_m

(** [received_dbm model ~tx_dbm ~carrier_hz ~distance_m]. *)
let received_dbm model ~tx_dbm ~carrier_hz ~distance_m =
  tx_dbm -. loss_db model ~carrier_hz ~distance_m

(** [max_range model ~tx_dbm ~carrier_hz ~threshold_dbm] — the largest
    distance at which the received level stays above [threshold_dbm]
    (monotone bisection over one staging of the model; 0 when even at
    contact the threshold fails). *)
let max_range model ~tx_dbm ~carrier_hz ~threshold_dbm =
  let s = stage model ~carrier_hz in
  let ok d = tx_dbm -. staged_loss s d >= threshold_dbm in
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
