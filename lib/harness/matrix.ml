(** Grid expansion and execution for scenario-matrix runs (see .mli).

    Each expanded cell is one {!Amb_system.Cosim} run with a config
    digest (MD5 of the canonical, re-parseable cell description minus
    the seed) naming its point in design space.  Execution mirrors the
    PR-4 suite scheduler: cells are submitted to {!Amb_sim.Domain_pool}
    longest-expected-first (expected cost = nodes x hours — the event
    count is linear in both) and gathered back at their grid index, so
    the emitted row stream is byte-identical at any [jobs].  Rows are
    appended to the {!Result_store} in grid order, one flush per chunk,
    which is what makes an interrupted run resume into a byte-identical
    merged store. *)

open Amb_units
open Amb_net
open Amb_system
module Json = Amb_report.Report_io.Json

type cell = {
  name : string;
  leaves : int;
  relays : int;
  tags : int;
  hours : float;
  policy : Routing.policy;
  link : Scenario_spec.link_mode;
  diurnal : string;
  budget_j : float;
  plan : string;
  faults : Scenario_spec.fault_spec list;
  seed : int;
}

type origin = Hit | Ran | Failed

type stats = { cells : int; ran : int; cached : int; errors : int }

(* ------------------------------------------------------------------ *)
(* Expansion                                                           *)

(* Cross product in fixed axis order, seeds innermost, so the grid
   order — and with it the store's row order — is a pure function of
   the spec. *)
let expand (spec : Scenario_spec.t) =
  let acc = ref [] in
  List.iter
    (fun leaves ->
      List.iter
        (fun relays ->
          List.iter
            (fun tags ->
              List.iter
                (fun hours ->
                  List.iter
                    (fun policy ->
                      List.iter
                        (fun link ->
                          List.iter
                            (fun diurnal ->
                              List.iter
                                (fun budget_j ->
                                  List.iter
                                    (fun (plan, faults) ->
                                      List.iter
                                        (fun seed ->
                                          acc :=
                                            { name = spec.Scenario_spec.name; leaves; relays;
                                              tags; hours; policy; link; diurnal; budget_j;
                                              plan; faults; seed }
                                            :: !acc)
                                        spec.Scenario_spec.seeds)
                                    spec.Scenario_spec.fault_plans)
                                spec.Scenario_spec.budgets_j)
                            spec.Scenario_spec.diurnals)
                        spec.Scenario_spec.links)
                    spec.Scenario_spec.policies)
                spec.Scenario_spec.hours)
            spec.Scenario_spec.tags)
        spec.Scenario_spec.relays)
    spec.Scenario_spec.leaves;
  Array.of_list (List.rev !acc)

(* ------------------------------------------------------------------ *)
(* Identity                                                            *)

(** [canonical_config cell] — the cell's full configuration (everything
    but the seed) as one `;`-joined line of spec syntax; the config
    digest is the MD5 of exactly this string. *)
let canonical_config c =
  String.concat ";"
    [
      "name=" ^ c.name;
      "leaves=" ^ string_of_int c.leaves;
      "relays=" ^ string_of_int c.relays;
      "tags=" ^ string_of_int c.tags;
      "hours=" ^ Scenario_spec.float_str c.hours;
      "policy=" ^ Routing.policy_name c.policy;
      "link=" ^ Scenario_spec.link_str c.link;
      "diurnal=" ^ c.diurnal;
      "leaf-budget-j=" ^ Scenario_spec.float_str c.budget_j;
      "fault=" ^ c.plan;
    ]

let config_digest c = Digest.to_hex (Digest.string (canonical_config c))

(* ------------------------------------------------------------------ *)
(* Row emission — one-line amblib-matrix-row/1 JSON objects.           *)

let json_string = Amb_report.Report_io.json_string

(* Report_io's float discipline: %.17g round-trips binary64, non-finite
   values become tagged strings. *)
let json_float v =
  if Float.is_nan v then "\"nan\""
  else if v = Float.infinity then "\"inf\""
  else if v = Float.neg_infinity then "\"-inf\""
  else Printf.sprintf "%.17g" v

let cell_json c =
  Printf.sprintf
    "{\"name\":%s,\"leaves\":%d,\"relays\":%d,\"tags\":%d,\"hours\":%s,\"policy\":%s,\
     \"link\":%s,\"diurnal\":%s,\"budget_j\":%s,\"faults\":%s}"
    (json_string c.name) c.leaves c.relays c.tags (json_float c.hours)
    (json_string (Routing.policy_name c.policy))
    (json_string (Scenario_spec.link_str c.link))
    (json_string c.diurnal) (json_float c.budget_j) (json_string c.plan)

let row_prefix c =
  Printf.sprintf "{\"schema\":%s,\"config\":%s,\"seed\":%d,\"cell\":%s"
    (json_string Result_store.row_schema)
    (json_string (config_digest c))
    c.seed (cell_json c)

(** [row_of_error cell msg] — the structured error row a raising cell
    contributes instead of aborting the batch. *)
let row_of_error c msg =
  Printf.sprintf "%s,\"status\":\"error\",\"error\":%s}" (row_prefix c) (json_string msg)

let row_of_outcome c (o : Cosim.outcome) ~report_digest =
  let first_death_h =
    match o.Cosim.first_death with
    | Some t -> json_float (Time_span.to_seconds t /. 3600.0)
    | None -> "null"
  in
  Printf.sprintf
    "%s,\"status\":\"ok\",\"metrics\":{\"generated\":%d,\"delivered\":%d,\"dropped\":%d,\
     \"delivery_ratio\":%s,\"first_death_h\":%s,\"dead_at_end\":%d,\"energy_spent_j\":%s,\
     \"energy_harvested_j\":%s,\"availability\":%s,\"mean_coverage\":%s,\"rebuilds\":%d,\
     \"events\":%d},\"report_digest\":%s}"
    (row_prefix c) o.Cosim.generated o.Cosim.delivered o.Cosim.dropped
    (json_float o.Cosim.delivery_ratio)
    first_death_h o.Cosim.dead_at_end
    (json_float (Energy.to_joules o.Cosim.energy_spent))
    (json_float (Energy.to_joules o.Cosim.energy_harvested))
    (json_float o.Cosim.availability)
    (json_float o.Cosim.mean_coverage)
    o.Cosim.rebuilds o.Cosim.events
    (json_string report_digest)

(* ------------------------------------------------------------------ *)
(* One cell -> one co-simulation                                       *)

let diurnal_profile = function
  | "office" -> Some Amb_energy.Day_profile.office_lighting
  | "living-room" -> Some Amb_energy.Day_profile.living_room_lighting
  | "outdoor" -> Some Amb_energy.Day_profile.outdoor_diurnal
  | "constant" -> Some Amb_energy.Day_profile.constant
  | _ -> None

let fault_of_spec = function
  | Scenario_spec.Crash { node; at_h } ->
    Fault_plan.Node_crash { node; at = Time_span.hours at_h }
  | Scenario_spec.Fade { a; b; db; at_h } ->
    Fault_plan.Link_fade { a; b; db; at = Time_span.hours at_h }
  | Scenario_spec.Bscale { node; scale } -> Fault_plan.Battery_scale { node; scale }

(* Spec-level validation cannot see the fleet size; a fault naming a
   node the cell does not have is this cell's error, not the grid's. *)
let check_fault_nodes ~node_count faults =
  List.iter
    (fun f ->
      let check n =
        if n < 0 || n >= node_count then
          failwith
            (Printf.sprintf "fault %s references node %d but the fleet has nodes 0..%d"
               (Scenario_spec.fault_str f) n (node_count - 1))
      in
      match f with
      | Scenario_spec.Crash { node; _ } | Scenario_spec.Bscale { node; _ } -> check node
      | Scenario_spec.Fade { a; b; _ } ->
        check a;
        check b)
    faults

let build_fleet c =
  let leaf =
    let base = Fleet.microwatt_leaf () in
    if c.budget_j > 0.0 then
      { base with Fleet.budget_override = Some (Energy.joules c.budget_j) }
    else base
  in
  Fleet.make ~leaf ~leaves:c.leaves ~relays:c.relays ~tags:c.tags ~seed:c.seed ()

let link_mode_of (fleet : Fleet.t) = function
  | Scenario_spec.Off -> Link_layer.Off
  | Scenario_spec.Cached -> Link_layer.Cached
  | Scenario_spec.Mac wakeup_s ->
    let router = fleet.Fleet.router in
    Link_layer.Mac
      (Amb_radio.Mac_duty_cycle.make
         ~radio:router.Routing.link.Amb_radio.Link_budget.radio
         ~t_wakeup:(Time_span.seconds wakeup_s) ~packet:router.Routing.packet ())

(** [report_title cell] — deterministic per-cell title, so the amblib
    report digest each row carries is a pure function of the cell. *)
let report_title c =
  Printf.sprintf "%s %s seed %d" c.name (String.sub (config_digest c) 0 8) c.seed

(* Expected cost: node count x horizon tracks the event count (reports
   are per-node-per-period, accounting per node).  It orders the pool's
   work longest-first and bounds what one cell may cost. *)
let expected_cost c = Float.of_int (c.leaves + c.relays + c.tags + 1) *. c.hours

(* One cell's admission bound.  A 30 s report period makes a node-hour
   about 120 events, so the bound is ~1.2e8 events — tens of seconds on
   one core — while the largest cell any experiment, test or the
   serve-sweep benchmark runs costs a few hundred node-hours (26 nodes x
   12 h).  Without it one request line (hours = 1e9) starts a run that
   never answers. *)
let max_cost_node_hours = 1e6

let check_cost c =
  let cost = expected_cost c in
  if not (cost <= max_cost_node_hours) then
    failwith
      (Printf.sprintf "cell costs %g node-hours (%d nodes x %g h); the bound is %g" cost
         (c.leaves + c.relays + c.tags + 1) c.hours max_cost_node_hours)

let outcome c =
  check_cost c;
  let fleet = build_fleet c in
  check_fault_nodes ~node_count:(Fleet.node_count fleet) c.faults;
  let cfg =
    Cosim.config
      ~link:(link_mode_of fleet c.link)
      ~policy:c.policy
      ?diurnal:(diurnal_profile c.diurnal)
      ~faults:(List.map fault_of_spec c.faults)
      ~fleet
      ~horizon:(Time_span.hours c.hours)
      ()
  in
  (fleet, Cosim.run cfg ~seed:c.seed)

(** [run_cell cell] — one co-simulation to one row line.  Error
    isolation lives here: any exception (over-bound cost, bad fleet
    shape, out-of-range fault, model invariant) becomes a structured
    error row, so a poisoned cell can never abort the batch or kill
    `ambient serve`. *)
let run_cell c =
  match outcome c with
  | fleet, o ->
    let report = System_metrics.report ~title:(report_title c) fleet o in
    row_of_outcome c o ~report_digest:(Amb_report.Report_io.digest report)
  | exception e -> row_of_error c (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Batch execution on the domain pool                                  *)

let status_of_line line =
  match Result_store.entry_of_line line with
  | Ok entry -> entry.Result_store.status
  | Error _ -> "error"

(* Cells run in grid-order chunks; inside a chunk tasks go to the pool
   longest-expected-first and gather back at their chunk index, and the
   chunk's rows append to the store in grid order before the next chunk
   starts — so an interrupt loses at most one chunk and never tears the
   row order. *)
let run_chunk ~pool cells =
  let n = Array.length cells in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      match Float.compare (expected_cost cells.(b)) (expected_cost cells.(a)) with
      | 0 -> Int.compare a b
      | c -> c)
    order;
  let rows = Array.make n "" in
  (match pool with
  | None -> Array.iteri (fun i c -> rows.(i) <- run_cell c) cells
  | Some pool ->
    let results =
      Amb_sim.Domain_pool.run pool (Array.map (fun i () -> run_cell cells.(i)) order)
    in
    Array.iteri (fun k i -> rows.(i) <- results.(k)) order);
  rows

let execute ?(jobs = 1) ?pool ~(store : Result_store.t) (spec : Scenario_spec.t) =
  let cells = expand spec in
  let n = Array.length cells in
  let results = Array.make n None in
  let ran = ref 0 and cached = ref 0 and errors = ref 0 in
  (* Serve cache hits first; what remains is the work list. *)
  let pending = ref [] in
  Array.iteri
    (fun i c ->
      match Result_store.find store ~config:(config_digest c) ~seed:c.seed with
      | Some line ->
        incr cached;
        if status_of_line line = "error" then incr errors;
        results.(i) <- Some (line, Hit)
      | None -> pending := i :: !pending)
    cells;
  let pending = Array.of_list (List.rev !pending) in
  let chunk = if jobs <= 1 && pool = None then 1 else Stdlib.max 8 (4 * jobs) in
  let run_all pool =
    let total = Array.length pending in
    let start = ref 0 in
    while !start < total do
      let stop = Stdlib.min total (!start + chunk) in
      let idx = Array.sub pending !start (stop - !start) in
      let rows = run_chunk ~pool (Array.map (fun i -> cells.(i)) idx) in
      Array.iteri
        (fun k i ->
          let line = rows.(k) in
          Result_store.append store line;
          incr ran;
          let failed = status_of_line line = "error" in
          if failed then incr errors;
          results.(i) <- Some (line, if failed then Failed else Ran))
        idx;
      start := stop
    done
  in
  (match pool with
  | Some _ -> run_all pool
  | None ->
    if jobs <= 1 || Array.length pending <= 1 then run_all None
    else Amb_sim.Domain_pool.with_pool ~jobs (fun p -> run_all (Some p)));
  let rows =
    Array.mapi
      (fun i c ->
        match results.(i) with
        | Some (line, origin) -> (c, line, origin)
        | None -> assert false)
      cells
  in
  (rows, { cells = n; ran = !ran; cached = !cached; errors = !errors })
