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

(* Each row is written into one buffer, [Printf]-free; the config digest
   comes in from the caller, which computes it once per cell.  The
   Printf-based emitters these replaced are the test oracle
   (test/row_reference.ml). *)

let json_string = Amb_report.Report_io.json_string

let json_float = Amb_report.Report_io.json_float

let schema_json = json_string Result_store.row_schema

let add_str b s = Buffer.add_string b (json_string s)
let add_num b v = Buffer.add_string b (json_float v)
let add_int b n = Buffer.add_string b (string_of_int n)

(* [,"key":value] *)
let field b key =
  Buffer.add_string b ",\"";
  Buffer.add_string b key;
  Buffer.add_string b "\":"

let str_field b key s = field b key; add_str b s
let int_field b key n = field b key; add_int b n
let num_field b key v = field b key; add_num b v

let add_row_prefix b ~config c =
  Buffer.add_string b "{\"schema\":";
  Buffer.add_string b schema_json;
  str_field b "config" config;
  int_field b "seed" c.seed;
  Buffer.add_string b ",\"cell\":{\"name\":";
  add_str b c.name;
  int_field b "leaves" c.leaves;
  int_field b "relays" c.relays;
  int_field b "tags" c.tags;
  num_field b "hours" c.hours;
  str_field b "policy" (Routing.policy_name c.policy);
  str_field b "link" (Scenario_spec.link_str c.link);
  str_field b "diurnal" c.diurnal;
  num_field b "budget_j" c.budget_j;
  str_field b "faults" c.plan;
  Buffer.add_char b '}'

let error_row ~config c msg =
  let b = Buffer.create 512 in
  add_row_prefix b ~config c;
  Buffer.add_string b ",\"status\":\"error\"";
  str_field b "error" msg;
  Buffer.add_char b '}';
  Buffer.contents b

let outcome_row ~config c (o : Cosim.outcome) ~report_digest =
  let b = Buffer.create 640 in
  add_row_prefix b ~config c;
  Buffer.add_string b ",\"status\":\"ok\",\"metrics\":{\"generated\":";
  add_int b o.Cosim.generated;
  int_field b "delivered" o.Cosim.delivered;
  int_field b "dropped" o.Cosim.dropped;
  num_field b "delivery_ratio" o.Cosim.delivery_ratio;
  (match o.Cosim.first_death with
  | Some t -> num_field b "first_death_h" (Time_span.to_seconds t /. 3600.0)
  | None -> Buffer.add_string b ",\"first_death_h\":null");
  int_field b "dead_at_end" o.Cosim.dead_at_end;
  num_field b "energy_spent_j" (Energy.to_joules o.Cosim.energy_spent);
  num_field b "energy_harvested_j" (Energy.to_joules o.Cosim.energy_harvested);
  num_field b "availability" o.Cosim.availability;
  num_field b "mean_coverage" o.Cosim.mean_coverage;
  int_field b "rebuilds" o.Cosim.rebuilds;
  int_field b "events" o.Cosim.events;
  Buffer.add_char b '}';
  str_field b "report_digest" report_digest;
  Buffer.add_char b '}';
  Buffer.contents b

(** [row_of_error cell msg] — the structured error row a raising cell
    contributes instead of aborting the batch. *)
let row_of_error c msg = error_row ~config:(config_digest c) c msg

let row_of_outcome c o ~report_digest = outcome_row ~config:(config_digest c) c o ~report_digest

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

(** [report_title ~config cell] — deterministic per-cell title, so the
    amblib report digest each row carries is a pure function of the
    cell. *)
let report_title ~config c =
  String.concat " " [ c.name; String.sub config 0 8; "seed"; string_of_int c.seed ]

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

(* A request may cost what one cell may.  Without this bound one
   request of 40 000 admissible cells runs for hours; the largest grid
   any spec, test, experiment or serve-sweep request sends costs 1 440
   node-hours. *)
let max_request_node_hours = 1e6

let check_request spec =
  let cells = expand spec in
  (* a cell over its own bound runs nothing: it becomes an error row *)
  let admitted c =
    let k = expected_cost c in
    if k <= max_cost_node_hours then k else 0.0
  in
  let cost = Array.fold_left (fun acc c -> acc +. admitted c) 0.0 cells in
  if cost <= max_request_node_hours then Ok ()
  else
    Error
      (Printf.sprintf "grid costs %g node-hours over %d cells; the bound is %g per request" cost
         (Array.length cells) max_request_node_hours)

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
let run_cell_as ~config c =
  match outcome c with
  | fleet, o ->
    let report = System_metrics.report ~title:(report_title ~config c) fleet o in
    outcome_row ~config c o ~report_digest:(Amb_report.Report_io.digest report)
  | exception e -> error_row ~config c (Printexc.to_string e)

let run_cell c = run_cell_as ~config:(config_digest c) c

(* ------------------------------------------------------------------ *)
(* Batch execution on the domain pool                                  *)

(* Cells run in grid-order chunks; inside a chunk tasks go to the pool
   longest-expected-first and gather back at their chunk index, and the
   chunk's rows append to the store in grid order before the next chunk
   starts — so an interrupt loses at most one chunk and never tears the
   row order. *)
let run_chunk ~pool cells configs idx =
  let n = Array.length idx in
  let cost k = expected_cost cells.(idx.(k)) in
  let order = Array.init n (fun k -> k) in
  Array.sort
    (fun a b ->
      match Float.compare (cost b) (cost a) with
      | 0 -> Int.compare a b
      | c -> c)
    order;
  let run k = run_cell_as ~config:configs.(idx.(k)) cells.(idx.(k)) in
  match pool with
  | None -> Array.init n run
  | Some pool ->
    let results = Amb_sim.Domain_pool.run pool (Array.map (fun k () -> run k) order) in
    let rows = Array.make n "" in
    Array.iteri (fun j k -> rows.(k) <- results.(j)) order;
    rows

(* A cell's config digest is computed once, here: the store lookup, the
   row and the report title all take it. *)
let execute ?(jobs = 1) ?pool ~(store : Result_store.t) (spec : Scenario_spec.t) =
  let cells = expand spec in
  let configs = Array.map config_digest cells in
  let n = Array.length cells in
  let results = Array.make n None in
  let ran = ref 0 and cached = ref 0 and errors = ref 0 in
  (* Serve cache hits first; what remains is the work list. *)
  let pending = ref [] in
  Array.iteri
    (fun i c ->
      match Result_store.find_entry store ~config:configs.(i) ~seed:c.seed with
      | Some entry ->
        incr cached;
        if entry.Result_store.status = "error" then incr errors;
        results.(i) <- Some (entry.Result_store.line, Hit)
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
      let rows = run_chunk ~pool cells configs idx in
      Array.iteri
        (fun k i ->
          let line = rows.(k) in
          let entry = Result_store.append_entry store line in
          incr ran;
          let failed = entry.Result_store.status = "error" in
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
