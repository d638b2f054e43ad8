(* The Printf-based row emitters that [Matrix]'s buffer writers
   replaced, kept verbatim as the differential oracle: on every cell and
   outcome the rows [Matrix] writes must equal these byte for byte,
   error rows included.  The JSON scalars are [Printf]'s own: strings
   through the escaping writer, floats through "%.17g" and the non-finite
   tags. *)

open Amb_units
open Amb_net
open Amb_system
open Amb_harness.Matrix
module Scenario_spec = Amb_harness.Scenario_spec
module Result_store = Amb_harness.Result_store

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

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

(** [report_title cell] — deterministic per-cell title, so the amblib
    report digest each row carries is a pure function of the cell. *)
let report_title c =
  Printf.sprintf "%s %s seed %d" c.name (String.sub (config_digest c) 0 8) c.seed

let run_cell c =
  match outcome c with
  | fleet, o ->
    let report = System_metrics.report ~title:(report_title c) fleet o in
    row_of_outcome c o ~report_digest:(Amb_report.Report_io.digest report)
  | exception e -> row_of_error c (Printexc.to_string e)
