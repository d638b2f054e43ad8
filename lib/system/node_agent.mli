(** Per-node energy state inside the co-simulation: a mutable agent
    coupling a tier's supply (battery capacity, regulator, harvest
    income) to the continuous sleep drain and the discrete charges the
    traffic it carries causes.

    The accounting mirrors {!Amb_node.Lifetime_sim} exactly — sleep power
    drawn through the regulator, harvest income scaled by a diurnal
    multiplier sampled at interval midpoints, reserve clamped at battery
    capacity, death-crossing instants interpolated within the interval —
    so a single-leaf fleet reproduces its lifetimes. *)

open Amb_units

type t

val create :
  ?income_multiplier:(float -> float) ->
  ?extra_sleep:Power.t ->
  id:int ->
  cfg:Fleet.tier_config ->
  unit ->
  t
(** Mains supplies get an infinite reserve; a battery-less, non-mains
    supply gets capacity 0 and never dies (it runs on harvest alone,
    like {!Amb_node.Lifetime_sim}).  [extra_sleep] adds a continuous
    drain on top of the tier's sleep power (e.g. MAC channel
    sampling). *)

val id : t -> int
val alive : t -> bool

val account : t -> now:float -> unit
(** Settle sleep drain and harvest income since the last accounting
    instant; may record an (interpolated) battery death. *)

val charge : t -> now:float -> float -> unit
(** Settle flows, then draw [joules] through the regulator; may record a
    battery death at [now]. *)

val crash : t -> now:float -> unit
(** Fault injection: settle flows, then fail the node at [now]. *)

val scale_battery : t -> factor:float -> unit
(** Scale capacity and reserve (battery-capacity variation faults);
    raises [Invalid_argument] on non-positive factors. *)

val reserve_j : t -> float
(** Raw remaining reserve in joules (negative once overdrawn, infinite
    for mains) — the residual the max-lifetime routing policy weights
    by. *)

(** {2 Raw ledger access}

    Columns for {!Fleet_ledger}, the struct-of-arrays ledger every
    {!Cosim} run charges: parameters are copied out once per run,
    mutable state written back once at the end via {!restore}. *)

val capacity_j : t -> float
val income_w : t -> float
val regulator_efficiency : t -> float
val sleep_drain_w : t -> float
val consumed_j : t -> float
val harvested_j : t -> float

val last_account_s : t -> float
(** Last settled accounting instant, raw seconds. *)

val died_at_s : t -> float
(** Raw death instant: NaN while alive (the ledger encoding). *)

val has_income_multiplier : t -> bool
(** Whether the agent samples a diurnal income multiplier (income > 0
    and a multiplier was supplied at creation). *)

val restore :
  t ->
  reserve_j:float ->
  consumed_j:float ->
  harvested_j:float ->
  last_account_s:float ->
  died_at_s:float ->
  crashed:bool ->
  unit
(** Overwrite the mutable ledger state wholesale — {!Fleet_ledger}'s
    end-of-run write-back. *)

val residual_energy : t -> Energy.t
(** Reserve clamped at zero, for reporting. *)

val consumed_energy : t -> Energy.t
val harvested_energy : t -> Energy.t

val died_at : t -> Time_span.t option
(** Battery-exhaustion or crash instant. *)

val is_crashed : t -> bool
