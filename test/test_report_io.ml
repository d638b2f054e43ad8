(* Serialization tests for the typed result pipeline: JSON round-trip
   (property-based and over every real experiment), CSV escaping, and
   SI-payload vs rendered-text consistency. *)

open Amb_units
module Report = Amb_core.Report
module Report_io = Amb_core.Report_io
module Cell = Amb_core.Cell

let count = 200

(* --- generators ------------------------------------------------------ *)

(* Payload floats that survive %.17g round-tripping trivially, plus the
   awkward ones (0, negatives, tiny, huge).  Non-finite payloads are
   covered separately. *)
let gen_payload =
  QCheck.Gen.oneof
    [ QCheck.Gen.float_range (-1e12) 1e12;
      QCheck.Gen.oneofl [ 0.0; 1e-18; -1e-18; 1e15; 3.3e-3; 0.5 ];
    ]

let gen_text =
  QCheck.Gen.oneof
    [ QCheck.Gen.string_size ~gen:QCheck.Gen.printable (QCheck.Gen.int_bound 20);
      (* The characters the escapers must care about. *)
      QCheck.Gen.oneofl [ "a,b"; "say \"hi\""; "line\nbreak"; "tab\there"; "back\\slash"; "" ];
    ]

let gen_cell =
  QCheck.Gen.oneof
    [ QCheck.Gen.map Cell.text gen_text;
      QCheck.Gen.map Cell.int (QCheck.Gen.int_range (-1000000) 1000000);
      QCheck.Gen.map2 (fun v d -> Cell.float ~digits:d v) gen_payload (QCheck.Gen.int_range 1 9);
      QCheck.Gen.map (fun v -> Cell.power (Power.watts (Float.abs v))) gen_payload;
      QCheck.Gen.map (fun v -> Cell.energy (Energy.joules (Float.abs v))) gen_payload;
      QCheck.Gen.map (fun v -> Cell.time (Time_span.seconds (Float.abs v))) gen_payload;
      QCheck.Gen.map (fun v -> Cell.rate (Data_rate.bits_per_second (Float.abs v))) gen_payload;
      QCheck.Gen.map Cell.percent (QCheck.Gen.float_range 0.0 1.0);
    ]

let gen_report =
  QCheck.Gen.(
    int_range 1 5 >>= fun cols ->
    int_range 0 6 >>= fun nrows ->
    list_size (return cols) gen_text >>= fun header ->
    list_size (return nrows) (list_size (return cols) gen_cell) >>= fun rows ->
    string_size ~gen:QCheck.Gen.printable (int_bound 30) >>= fun title ->
    list_size (int_bound 3) gen_text >>= fun notes ->
    return (Report.make ~notes ~title ~header rows))

let arb_report = QCheck.make ~print:Report.to_string gen_report

(* --- JSON round-trip -------------------------------------------------- *)

let prop_json_roundtrip =
  QCheck.Test.make ~name:"of_json (to_json r) = Ok r" ~count arb_report (fun r ->
      match Report_io.of_json (Report_io.to_json r) with
      | Ok r' -> Report.equal r r'
      | Error msg -> QCheck.Test.fail_reportf "of_json failed: %s" msg)

let test_roundtrip_nonfinite () =
  (* nan/inf payloads take the tagged-string path in the envelope. *)
  let r =
    Report.make ~title:"nonfinite" ~header:[ "a"; "b"; "c" ]
      [ [ Cell.float Float.nan; Cell.float Float.infinity; Cell.float Float.neg_infinity ];
        [ Cell.power (Power.watts Float.nan); Cell.text "nan"; Cell.int 0 ];
      ]
  in
  match Report_io.of_json (Report_io.to_json r) with
  | Ok r' -> Alcotest.(check bool) "round-trips" true (Report.equal r r')
  | Error msg -> Alcotest.failf "of_json failed: %s" msg

let test_of_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Report_io.of_json s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "nonsense"; "{}"; "{\"schema\": \"other/1\"}"; "[1,2,3]";
      "{\"schema\": \"amblib-report/1\"}" ]

(* --- real experiments ------------------------------------------------- *)

let test_all_experiments_roundtrip () =
  List.iter
    (fun (id, _, build) ->
      let r = build () in
      let doc = Report_io.to_json ~id r in
      (match Report_io.Json.parse doc with
      | exception Report_io.Json.Parse_error msg -> Alcotest.failf "%s: invalid JSON: %s" id msg
      | json -> (
        match Report_io.Json.member "schema" json with
        | Some (Report_io.Json.String s) ->
          Alcotest.(check string) (id ^ " schema") Report_io.schema_tag s
        | _ -> Alcotest.failf "%s: missing schema" id));
      match Report_io.of_json doc with
      | Ok r' ->
        if not (Report.equal r r') then Alcotest.failf "%s: round-trip not equal" id
      | Error msg -> Alcotest.failf "%s: of_json failed: %s" id msg)
    Amb_core.Experiments.all

let test_case_studies_parse () =
  List.iter
    (fun cs ->
      let doc = Amb_core.Case_study.to_json cs in
      match Report_io.Json.parse doc with
      | exception Report_io.Json.Parse_error msg ->
        Alcotest.failf "case study %s: invalid JSON: %s" cs.Amb_core.Case_study.id msg
      | json -> (
        match
          (Report_io.Json.member "schema" json, Report_io.Json.member "reports" json)
        with
        | Some (Report_io.Json.String "amblib-case-study/1"), Some (Report_io.Json.List (_ :: _))
          -> ()
        | _ -> Alcotest.failf "case study %s: bad envelope" cs.Amb_core.Case_study.id))
    Amb_core.Case_study.all

let test_report_set_parses () =
  let doc = Report_io.set_to_json (Amb_core.Experiments.run_all ()) in
  match Report_io.Json.parse doc with
  | exception Report_io.Json.Parse_error msg -> Alcotest.failf "report set: %s" msg
  | json -> (
    match Report_io.Json.member "reports" json with
    | Some (Report_io.Json.List entries) ->
      Alcotest.(check int) "one entry per experiment"
        (List.length Amb_core.Experiments.all)
        (List.length entries)
    | _ -> Alcotest.fail "report set: missing reports")

(* --- SI payload vs rendered text -------------------------------------- *)

(* "76.5 uJ" and si=7.65e-05 must agree: parse mantissa and prefix from
   the prose and compare to the SI payload.  The tolerance is one unit in
   the mantissa's last rendered digit (covers both the rounding quantum
   and magnitudes outside the prefix table, where the mantissa drops
   below 1). *)
let test_si_matches_rendered () =
  let check_cell id cell =
    match cell with
    | (Cell.Power _ | Cell.Energy _) -> (
      let text = Cell.to_string cell in
      let si = Option.get (Cell.si_value cell) in
      match String.split_on_char ' ' text with
      | [ mantissa; united ] when String.length united > 0 ->
        let prefix = String.sub united 0 (String.length united - 1) in
        let factor =
          if prefix = "" then Some 1.0 else Si.parse_prefix prefix
        in
        (match (float_of_string_opt mantissa, factor) with
        | Some m, Some f ->
          let decimals =
            match String.index_opt mantissa '.' with
            | Some i -> String.length mantissa - i - 1
            | None -> 0
          in
          let quantum = 10.0 ** Float.of_int (-decimals) in
          if si = 0.0 then Alcotest.(check (float 1e-12)) (id ^ ": zero") 0.0 m
          else if Float.abs (m -. (si /. f)) > quantum then
            Alcotest.failf "%s: %S vs si=%.17g — off by more than the last digit" id text si
        | _ -> Alcotest.failf "%s: unparseable engineering text %S" id text)
      | _ -> Alcotest.failf "%s: unexpected engineering text %S" id text)
    | _ -> ()
  in
  List.iter
    (fun (id, _, build) ->
      let r = build () in
      List.iter (List.iter (check_cell id)) r.Report.rows)
    Amb_core.Experiments.all

(* --- CSV --------------------------------------------------------------- *)

let test_csv_escaping () =
  let r =
    Report.make ~title:"csv" ~header:[ "plain"; "with,comma"; "with\"quote" ]
      [ [ Cell.text "a"; Cell.text "b,c"; Cell.text "say \"hi\"" ];
        [ Cell.text "line\nbreak"; Cell.text ""; Cell.int 7 ];
      ]
  in
  let expected =
    "plain,\"with,comma\",\"with\"\"quote\"\n\
     a,\"b,c\",\"say \"\"hi\"\"\"\n\
     \"line\nbreak\",,7\n"
  in
  Alcotest.(check string) "RFC-4180 quoting" expected (Report_io.to_csv r)

let test_csv_matches_rendered_rows () =
  (* Unquoted CSV of a quote-free report is exactly the rendered cells. *)
  let r = Amb_core.Experiments.e3 () in
  let lines = String.split_on_char '\n' (String.trim (Report_io.to_csv r)) in
  Alcotest.(check int) "header + rows" (1 + List.length r.Report.rows) (List.length lines)

(* --- digest ------------------------------------------------------------ *)

let test_digest_sensitivity () =
  let base = Report.make ~title:"t" ~header:[ "a" ] [ [ Cell.float 1.0 ] ] in
  let d = Report_io.digest base in
  Alcotest.(check int) "md5 hex length" 32 (String.length d);
  Alcotest.(check string) "deterministic" d (Report_io.digest base);
  let changed_value = Report.make ~title:"t" ~header:[ "a" ] [ [ Cell.float 1.0000001 ] ] in
  let changed_kind = Report.make ~title:"t" ~header:[ "a" ] [ [ Cell.text "1" ] ] in
  if Report_io.digest changed_value = d then Alcotest.fail "value change not detected";
  if Report_io.digest changed_kind = d then Alcotest.fail "kind change not detected"

(* --- float rendering ----------------------------------------------------- *)

(* [json_float] skips [Printf]'s format parsing; every bit pattern —
   subnormals, both zeros, the largest finite values, NaNs and the
   infinities among them — must render byte for byte as before. *)
let prop_json_float_matches_printf =
  let gen =
    QCheck.Gen.oneof
      [ QCheck.Gen.map Int64.float_of_bits QCheck.Gen.ui64;
        QCheck.Gen.oneofl
          [ 0.0; -0.0; Float.max_float; -.Float.max_float; Float.min_float; -.Float.min_float;
            Int64.float_of_bits 1L; Int64.float_of_bits (-1L); Float.nan; Float.infinity;
            Float.neg_infinity; Float.epsilon; 1e-310; 0.1; 1e22; 123456789012345678.0 ] ]
  in
  QCheck.Test.make ~name:"json_float renders as Printf %.17g" ~count:2000
    (QCheck.make ~print:(fun v -> Printf.sprintf "%Lx" (Int64.bits_of_float v)) gen)
    (fun v ->
      let expected =
        if Float.is_nan v then "\"nan\""
        else if v = Float.infinity then "\"inf\""
        else if v = Float.neg_infinity then "\"-inf\""
        else Printf.sprintf "%.17g" v
      in
      Report_io.json_float v = expected)

let suite =
  [ QCheck_alcotest.to_alcotest prop_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_json_float_matches_printf;
    Alcotest.test_case "nonfinite payloads round-trip" `Quick test_roundtrip_nonfinite;
    Alcotest.test_case "of_json rejects garbage" `Quick test_of_json_rejects_garbage;
    Alcotest.test_case "all experiments round-trip via JSON" `Quick
      test_all_experiments_roundtrip;
    Alcotest.test_case "case-study envelopes parse" `Quick test_case_studies_parse;
    Alcotest.test_case "report-set envelope parses" `Quick test_report_set_parses;
    Alcotest.test_case "SI payloads match rendered engineering text" `Quick
      test_si_matches_rendered;
    Alcotest.test_case "CSV escaping is RFC-4180" `Quick test_csv_escaping;
    Alcotest.test_case "CSV shape matches report" `Quick test_csv_matches_rendered_rows;
    Alcotest.test_case "digest detects value and kind changes" `Quick test_digest_sensitivity;
  ]
