(** Diurnal harvesting profiles: periodic piecewise-constant scale factors
    on a harvesting environment, and the storage buffer needed to ride
    through the dark stretch (experiment E14). *)

open Amb_units

type segment = { duration : Time_span.t; scale : float }

type t = private {
  name : string;
  segments : segment list;  (** one period, repeated forever *)
  period_s : float;  (** [period], seconds *)
  bounds : float array;  (** end of segment [k] within the period, seconds *)
  scales : float array;  (** scale of segment [k] *)
}
(** A profile carries its segment list and a flat lookup table built
    once by {!make}: [bounds] is the left fold [0.0 +. d0 +. d1 ...] of
    the segment durations and [period_s] its last element, so every
    boundary is bitwise the offset a walk down [segments] computes.
    {!scale_at} and {!income_multiplier} read the table instead of
    walking the list, and are bit-identical to that walk at every time: the
    time is reduced with [Float.rem] by [period_s] (a negative
    remainder wraps up by one period), the result is the scale of the
    first segment whose bound lies strictly beyond it, and a time with
    no such segment (NaN, ±infinity) gives [1.0].  The record is
    [private] so {!make} stays the only constructor; code that must
    evaluate the profile without a call (the fleet ledger's accounting
    kernel) reads the table directly and owes the same arithmetic. *)

val make : name:string -> segment list -> t
(** Raises [Invalid_argument] on an empty profile, non-positive segment
    durations or negative scales. *)

val period : t -> Time_span.t

val office_lighting : t
(** 10 h lit, 14 h at 2%. *)

val living_room_lighting : t
(** Morning and evening lit stretches. *)

val outdoor_diurnal : t
(** 12 h day / 12 h night. *)

val constant : t

val scale_at : t -> Time_span.t -> float
(** The multiplier in effect at a given time (periodic), read from the
    lookup table. *)

val average_scale : t -> float
(** Duration-weighted mean multiplier. *)

val average_income : t -> Power.t -> Power.t
(** Long-run harvested power when the nominal environment yields the
    given peak income. *)

val darkest_stretch : t -> threshold:float -> Time_span.t
(** Longest contiguous run of sub-threshold segments, with wrap-around. *)

val buffer_energy_required : t -> load:Power.t -> income:Power.t -> Energy.t
(** Energy a buffer must hold to carry the load through the darkest
    stretch, crediting the residual income. *)

val buffer_capacitance_required :
  t -> load:Power.t -> income:Power.t -> v_max:Voltage.t -> v_min:Voltage.t -> float
(** Supercapacitor value (farads) implementing the buffer within a
    usable voltage window; raises [Invalid_argument] on an empty window. *)

val sustainable : t -> load:Power.t -> income:Power.t -> bool
(** Long-run balance test: average income covers the load. *)

val income_multiplier : t -> float -> float
(** [time_s -> multiplier] function for the discrete-event simulator:
    {!scale_at} on raw seconds. *)
