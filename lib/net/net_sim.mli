(** Packet-level sensor-network simulation — the plain reference run of
    the collection-tree model: jittered periodic reports forwarded hop
    by hop, per-hop TX/RX energy drained from per-node budgets, deaths
    dropping traffic and triggering a full tree rebuild.  The fast
    simulator is {!Amb_system.Cosim}; on a flat-budget fleet
    ({!Amb_system.Fleet.flat}) it reproduces this run, which experiment
    E27 and the simulators tests check. *)

open Amb_units

type config = {
  router : Routing.t;
  sink : int;
  policy : Routing.policy;
  report_period : Time_span.t;  (** per-node generation period *)
  budget : int -> Energy.t;  (** per-node radio energy budget *)
  horizon : Time_span.t;
  rebuild_period : Time_span.t;  (** periodic residual-aware tree rebuild *)
}

val config :
  ?rebuild_period:Time_span.t ->
  router:Routing.t ->
  sink:int ->
  policy:Routing.policy ->
  report_period:Time_span.t ->
  budget:(int -> Energy.t) ->
  horizon:Time_span.t ->
  unit ->
  config
(** Default rebuild period 4 hours.  Raises [Invalid_argument] on
    non-finite or non-positive periods or horizons, or a sink outside
    [0..n-1]. *)

type outcome = {
  generated : int;
  delivered : int;
  dropped : int;
  first_death : Time_span.t option;  (** first node exhaustion instant *)
  dead_at_end : int;
  delivery_ratio : float;
  energy_spent : Energy.t;
  residual : Energy.t array;  (** per-node budget left at end of run *)
}

val run : config -> seed:int -> outcome
(** Deterministic in the seed (report phases are the only randomness). *)
