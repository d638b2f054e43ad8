(** Scenario-grid expansion and batch execution.

    {!expand} turns a {!Scenario_spec.t} into its cross-product cell
    array in a fixed axis order (leaves, relays, tags, hours, policy,
    link, diurnal, budget, fault plan, seeds innermost), so the grid
    order — and with it the {!Result_store} row order — is a pure
    function of the spec.  Each cell is one {!Amb_system.Cosim} run,
    identified by [(config_digest, seed)] where the config digest is the
    MD5 of {!canonical_config} (the cell minus its seed).

    {!execute} runs a grid against a store: cached cells are answered
    from it, the rest run on {!Amb_sim.Domain_pool} submitted
    longest-expected-first (expected cost = node count x horizon), and
    every completed cell appends exactly one [amblib-matrix-row/1] JSON
    line in grid order — carrying either the outcome metrics plus the
    {!Amb_report.Report_io.digest} of the cell's system report, or, when
    the cell raises, a structured [status = "error"] row.  A poisoned
    cell therefore never aborts the batch.  Rows are flushed chunk by
    chunk in grid order, so an interrupted run resumes into a merged
    store byte-identical to an uninterrupted one. *)

open Amb_net

type cell = {
  name : string;
  leaves : int;
  relays : int;
  tags : int;
  hours : float;
  policy : Routing.policy;
  link : Scenario_spec.link_mode;
  diurnal : string;
  budget_j : float;  (** leaf budget override; 0 keeps the coin-cell model *)
  plan : string;  (** canonical fault-plan text, ["none"] when empty *)
  faults : Scenario_spec.fault_spec list;
  seed : int;
}

type origin =
  | Hit  (** answered from the store *)
  | Ran  (** executed this call, [status = "ok"] *)
  | Failed  (** executed this call, [status = "error"] *)

type stats = {
  cells : int;
  ran : int;  (** executed this call (includes [Failed]) *)
  cached : int;
  errors : int;  (** rows with [status = "error"], whatever their origin *)
}

val expand : Scenario_spec.t -> cell array

val canonical_config : cell -> string
val config_digest : cell -> string

val expected_cost : cell -> float
(** Node count x horizon in hours: the cost the pool orders cells by
    and {!max_cost_node_hours} bounds. *)

val max_cost_node_hours : float
(** Admission bound on one cell's {!expected_cost} (10{^6} node-hours,
    about 1.2·10{^8} events at the 30 s report period).  A cell above
    it (or with a NaN cost) is not run: {!run_cell} answers it with an
    error row, in [ambient matrix] and [ambient serve] alike. *)

val run_cell : cell -> string
(** One co-simulation to one row line.  Any exception becomes a
    [status = "error"] row with the exception text — error isolation for
    both the batch runner and `ambient serve`.  A cell whose cost
    exceeds {!max_cost_node_hours} is rejected the same way, before
    anything is built. *)

val row_of_error : cell -> string -> string

val execute :
  ?jobs:int ->
  ?pool:Amb_sim.Domain_pool.t ->
  store:Result_store.t ->
  Scenario_spec.t ->
  (cell * string * origin) array * stats
(** Run the grid, returning per-cell [(cell, row line, origin)] in grid
    order.  [pool] (the `ambient serve` path) takes precedence over
    [jobs]; with neither, cells run sequentially in-process.  New rows
    are appended to [store] in grid order as chunks complete. *)
