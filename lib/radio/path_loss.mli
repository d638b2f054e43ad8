(** Radio propagation: free-space (Friis) and log-distance models, the
    latter with indoor exponents of 2.5-4. *)

val speed_of_light : float

type model =
  | Free_space
  | Log_distance of { exponent : float; reference_m : float }
      (** Friis up to [reference_m], then 10*n*log10(d/d0) beyond *)

val free_space : model

val log_distance : ?reference_m:float -> float -> model
(** Raises [Invalid_argument] for exponents below 1 or non-positive
    reference distances. *)

val indoor : model
(** Through-wall indoor environment, n = 3.3. *)

val open_office : model
(** Open office, n = 2.5. *)

val friis_loss_db : carrier_hz:float -> distance_m:float -> float

val loss_db : model -> carrier_hz:float -> distance_m:float -> float
(** Path loss in dB; zero at or below zero distance; raises
    [Invalid_argument] on a non-positive carrier. *)

val loss_fn : model -> carrier_hz:float -> float -> float
(** [loss_fn model ~carrier_hz] is [fun d -> loss_db model ~carrier_hz
    ~distance_m:d], staged: the distance-independent terms are computed
    once.  Raises [Invalid_argument] on a non-positive carrier. *)

val loss_slice : model -> carrier_hz:float -> float array -> int -> int -> unit
(** [loss_slice model ~carrier_hz] is {!loss_fn} over an array slice:
    [f a lo hi] replaces each distance [a.(k)], [lo <= k < hi], by its
    loss, bit for bit [loss_fn model ~carrier_hz a.(k)], with no float
    boxed per element.  Staged like {!loss_fn}; the caller keeps the
    slice in bounds. *)

val received_dbm : model -> tx_dbm:float -> carrier_hz:float -> distance_m:float -> float

val max_range : model -> tx_dbm:float -> carrier_hz:float -> threshold_dbm:float -> float
(** Largest distance keeping the received level above a threshold
    (monotone bisection on the model staged once, as {!loss_fn} stages
    it; bit for bit the bisection over {!received_dbm}); 0 when even
    contact fails. *)
