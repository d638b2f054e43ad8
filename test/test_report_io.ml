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

(* --- the JSON reader against its char-by-char oracle ------------------ *)

(* [Json_reference] is the reader [Report_io.Json.parse] replaced.  On
   every input within the depth bound the two must return the same value,
   floats compared by their bits, or raise the same [Parse_error] text:
   serve echoes that text, offset included.  Every generator below stays
   far inside the bound (a few dozen brackets at most). *)

module Json = Report_io.Json

let rec same_json a b =
  match (a, b) with
  | Json.Number x, Json.Number y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.List xs, Json.List ys -> List.equal same_json xs ys
  | Json.Object xs, Json.Object ys ->
    List.equal (fun (k, x) (l, y) -> String.equal k l && same_json x y) xs ys
  | (Json.Null | Json.Bool _ | Json.String _), _ -> a = b
  | (Json.Number _ | Json.List _ | Json.Object _), _ -> false

let readers_agree s =
  match
    ( (match Json.parse s with v -> Ok v | exception Json.Parse_error m -> Error m),
      match Json_reference.Json.parse s with
      | v -> Ok v
      | exception Json_reference.Json.Parse_error m -> Error m )
  with
  | Ok a, Ok b -> same_json a b
  | Error m, Error m' -> String.equal m m'
  | Ok _, Error m -> QCheck.Test.fail_reportf "only the oracle fails: %s" m
  | Error m, Ok _ -> QCheck.Test.fail_reportf "only the reader fails: %s" m

let prop_readers_agree ~name ~count gen =
  QCheck.Test.make ~name:("JSON reader = oracle: " ^ name) ~count
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    readers_agree

(* Structural characters, so random text gets past the first byte. *)
let json_char =
  QCheck.Gen.oneof
    [ QCheck.Gen.char;
      QCheck.Gen.oneofl
        [ '{'; '}'; '['; ']'; '"'; ':'; ','; ' '; '\n'; '\\'; '0'; '1'; '9'; '-'; '+'; '.';
          'e'; 'E'; 't'; 'f'; 'n'; 'u'; 'b'; 'a'; '\x00'; '\x1f'; '\x7f'; '\xc3'; '\xff' ] ]

let gen_number_value =
  QCheck.Gen.oneof
    [ QCheck.Gen.map Int64.float_of_bits QCheck.Gen.ui64;
      QCheck.Gen.map Float.of_int (QCheck.Gen.int_range (-100000) 100000);
      QCheck.Gen.float;
      QCheck.Gen.oneofl [ 0.0; -0.0; 0.5; 1e15; 9007199254740993.0; 1e22; 1e23; 1e-7 ] ]

let gen_json =
  let open QCheck.Gen in
  let text = string_size ~gen:json_char (int_bound 8) in
  sized_size (int_bound 4)
  @@ fix (fun self depth ->
         let scalar =
           oneof
             [ return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun v -> Json.Number v) gen_number_value;
               map (fun s -> Json.String s) text ]
         in
         if depth = 0 then scalar
         else
           frequency
             [ (2, scalar);
               (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (depth - 1))));
               ( 1,
                 map
                   (fun kvs -> Json.Object kvs)
                   (list_size (int_bound 4) (pair text (self (depth - 1)))) ) ])

(* A value printed the way the report writers print: [json_string],
   [json_float] (so NaN prints as the string "nan"), and [sep] between
   tokens. *)
let rec print_json sep = function
  | Json.Null -> "null"
  | Json.Bool b -> string_of_bool b
  | Json.Number v -> Report_io.json_float v
  | Json.String s -> Report_io.json_string s
  | Json.List vs -> "[" ^ sep ^ String.concat ("," ^ sep) (List.map (print_json sep) vs) ^ sep ^ "]"
  | Json.Object kvs ->
    "{" ^ sep
    ^ String.concat ("," ^ sep)
        (List.map (fun (k, v) -> Report_io.json_string k ^ sep ^ ":" ^ sep ^ print_json sep v) kvs)
    ^ sep ^ "}"

let gen_printed =
  QCheck.Gen.map2 print_json (QCheck.Gen.oneofl [ ""; " "; "\n\t\r " ]) gen_json

(* Store rows as [Matrix] writes them: a finished cell and an error
   cell. *)
let store_rows =
  [| {|{"schema":"amblib-matrix-row/1","config":"5d7610c93334f554ac82947e07eaf44a","seed":1000277,"cell":{"name":"sweep","leaves":5,"relays":0,"tags":0,"hours":12,"policy":"min-energy","link":"cached","diurnal":"living-room","budget_j":0.5,"faults":"bscale:4:0.2"},"status":"ok","metrics":{"generated":6772,"delivered":3891,"dropped":2881,"delivery_ratio":0.57457176609568816,"first_death_h":8.4310301577347051,"dead_at_end":1,"energy_spent_j":21601.513254608828,"energy_harvested_j":8.3549869035333835,"availability":0,"mean_coverage":0.54051716929557847,"rebuilds":5,"events":6848},"report_digest":"7bb452ff97ee72e1f0262642be2938bb"}|};
     {|{"schema":"amblib-matrix-row/1","config":"ced9a0445f08db9f9a3ba339c19487dc","seed":1001100,"cell":{"name":"sweep","leaves":4,"relays":0,"tags":0,"hours":2,"policy":"min-hop","link":"mac:2","diurnal":"office","budget_j":0.5,"faults":"crash:10@3"},"status":"error","error":"Failure(\"fault crash:10@3 references node 10 but the fleet has nodes 0..4\")"}|} |]

(* One to four byte replacements, deletions or insertions, then maybe a
   truncation. *)
let gen_mutated_row =
  let open QCheck.Gen in
  let edit s =
    let n = String.length s in
    int_bound (n - 1) >>= fun i ->
    json_char >>= fun c ->
    oneofl
      [ String.sub s 0 i ^ String.make 1 c ^ String.sub s (i + 1) (n - i - 1);
        String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1);
        String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i) ]
  in
  let rec edits k s = if k = 0 then return s else edit s >>= edits (k - 1) in
  oneofl (Array.to_list store_rows) >>= fun row ->
  int_range 0 4 >>= fun k ->
  edits k row >>= fun s ->
  frequency
    [ (3, return s); (1, map (fun i -> String.sub s 0 i) (int_bound (String.length s))) ]

let gen_random_bytes = QCheck.Gen.string_size ~gen:json_char (QCheck.Gen.int_bound 40)

(* Number lexemes around the fast path's edges: signs, leading zeros,
   14-18 digit mantissas, empty fractions and exponents, and 15-17
   digit mantissas above 2^53. *)
let gen_lexeme =
  let open QCheck.Gen in
  let digits k = string_size ~gen:numeral (return k) in
  let piece =
    oneof
      [ oneofl [ "-0"; "-"; "+"; "."; "-."; "e5"; "1e"; "1e+"; "0e0"; "-0.0"; "007"; "1.";
                 ".5"; "1e22"; "1e23"; "1e-22"; "1e-23"; "1.e5"; "-.5"; ".e5";
                 "123456789012345"; "1234567890123456"; "1e0400"; "1e-0400"; "1_0";
                 (* 16 digits above 2^53: rounding the mantissa first
                    rounds twice. *)
                 "9007199254740993"; "9007199254740993e-2"; "90071992547409.93";
                 "9007199254740995e-1" ];
        ( oneofl [ ""; "-"; "+"; "--" ] >>= fun sign ->
          oneofl [ ""; "0"; "00" ] >>= fun lead ->
          frequency [ (1, return 0); (4, int_range 1 18); (3, int_range 14 17) ] >>= fun ni ->
          digits ni >>= fun int_part ->
          frequency
            [ (2, return ""); (1, return "."); (3, map (( ^ ) ".") (int_bound 17 >>= digits)) ]
          >>= fun frac ->
          frequency
            [ (2, return "");
              ( 2,
                oneofl [ "e"; "E" ] >>= fun e ->
                oneofl [ ""; "+"; "-" ] >>= fun es ->
                int_bound 4 >>= digits >|= fun ed -> e ^ es ^ ed ) ]
          >|= fun exp -> sign ^ lead ^ int_part ^ frac ^ exp );
        ( int_range 14 16 >>= digits >>= fun rest ->
          let m = "9" ^ rest in
          int_bound (String.length m) >>= fun dot ->
          oneofl [ ""; "e-3"; "e1" ] >|= fun exp ->
          String.sub m 0 dot ^ "." ^ String.sub m dot (String.length m - dot) ^ exp ) ]
  in
  piece >>= fun lexeme ->
  oneofl [ lexeme; "[" ^ lexeme ^ "]"; "[" ^ lexeme ^ ",1]"; lexeme ^ " "; lexeme ^ "x" ]

(* String literals built from escapes, including malformed and truncated
   ones, as values and as keys. *)
let gen_escaped =
  let open QCheck.Gen in
  let piece =
    oneof
      [ map (String.make 1) json_char;
        oneofl
          [ "\\n"; "\\t"; "\\r"; "\\b"; "\\f"; "\\/"; "\\\""; "\\\\"; "\\u0041"; "\\u1_23";
            "\\u_123"; "\\u123"; "\\u00e9"; "\\u007F"; "\\u0080"; "\\uZZZZ"; "\\u12"; "\\u"; "\\x";
            "\\"; "plain text" ] ]
  in
  list_size (int_bound 6) piece >|= String.concat "" >>= fun body ->
  oneofl
    [ "\"" ^ body ^ "\""; "\"" ^ body; "{\"" ^ body ^ "\":1}"; "[\"" ^ body ^ "\",\"\\u12\"]" ]

let test_json_depth_bound () =
  let nest k = String.make k '[' ^ String.make k ']' in
  let deep = nest Json.max_depth in
  Alcotest.(check bool) "512 levels read as before" true (readers_agree deep);
  let refused k =
    match Json.parse (nest k) with
    | _ -> Alcotest.failf "%d levels accepted" k
    | exception Json.Parse_error msg -> msg
  in
  Alcotest.(check string) "513 levels refused at the 513th bracket"
    "nesting deeper than 512 at offset 512" (refused (Json.max_depth + 1));
  let objects = String.concat "" (List.init 513 (fun _ -> "{\"a\":")) in
  Alcotest.(check string) "objects count too" "nesting deeper than 512 at offset 2560"
    (match Json.parse objects with
    | _ -> "accepted"
    | exception Json.Parse_error msg -> msg);
  (* The char-by-char reader took 1.6 s here, and time grew faster than
     the depth; the bound answers at once. *)
  Alcotest.(check string) "10^6 levels refused" "nesting deeper than 512 at offset 512"
    (refused 1_000_000)

(* --- the validating scan against the reader ------------------------ *)

(* [Json.member_spans] must accept what [Json.parse] accepts and raise
   its error text otherwise, and each span must read back as the member
   [Json.member] answers.  The text is also scanned inside padding, so
   the scan reads only its own [lo..hi) bytes and still reports offsets
   from [lo].  The keys asked for, all distinct, are the document's own
   top-level keys plus two it may lack. *)
let scan_agrees s =
  let parsed = match Json.parse s with v -> Ok v | exception Json.Parse_error m -> Error m in
  let keys =
    match parsed with
    | Ok (Json.Object kvs) ->
      Array.of_list (List.sort_uniq compare ("missing" :: "seed" :: List.map fst kvs))
    | _ -> [| "schema"; "a" |]
  in
  let padded = "[\"" ^ s ^ "\"]" in
  let lo = 2 and hi = 2 + String.length s in
  let scanned =
    match Json.member_spans padded lo hi keys with
    | spans -> Ok spans
    | exception Json.Parse_error m -> Error m
  in
  match (parsed, scanned) with
  | Error m, Error m' -> String.equal m m' || QCheck.Test.fail_reportf "%s <> %s" m m'
  | Ok v, Ok spans ->
    Array.for_all Fun.id
      (Array.mapi
         (fun k key ->
           let lo = spans.(2 * k) and hi = spans.((2 * k) + 1) in
           match Json.member key v with
           | None -> lo = -1 && hi = -1
           | Some m -> lo >= 0 && same_json m (Json.parse_span padded lo hi))
         keys)
  | Ok _, Error m -> QCheck.Test.fail_reportf "only the scan fails: %s" m
  | Error m, Ok _ -> QCheck.Test.fail_reportf "only the reader fails: %s" m

let prop_scan_agrees ~name ~count gen =
  QCheck.Test.make ~name:("JSON scan = reader: " ^ name) ~count
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    scan_agrees

(* Objects whose keys repeat, carry escapes that decode to the same
   bytes, or nest around the top level. *)
let gen_keyed_object =
  let open QCheck.Gen in
  let key =
    oneofl
      [ "\"seed\""; "\"s\\u0065ed\""; "\"seed\\b\""; "\"se\\fed\""; "\"seeds\""; "\"see\"";
        "\"\""; "\"schema\""; "\"sch\\u00e9ma\"" ]
  in
  let value = oneofl [ "1"; "-0"; "1e3"; "\"x\""; "[1,{\"seed\":2}]"; "{\"seed\":3}"; "null" ] in
  list_size (int_range 1 6) (pair key value) >>= fun kvs ->
  oneofl [ ""; " "; "\n\t" ] >|= fun sep ->
  "{" ^ String.concat "," (List.map (fun (k, v) -> sep ^ k ^ sep ^ ":" ^ sep ^ v ^ sep) kvs) ^ "}"

let test_scan_depth_bound () =
  let nest k = String.make k '[' ^ String.make k ']' in
  List.iter
    (fun k ->
      let s = "{\"a\":" ^ nest k ^ "}" in
      Alcotest.(check bool) (Printf.sprintf "%d levels" (k + 1)) true (scan_agrees s))
    [ Json.max_depth - 2; Json.max_depth - 1; Json.max_depth ];
  Alcotest.(check bool) "512 bare levels" true (scan_agrees (nest Json.max_depth));
  Alcotest.(check bool) "513 bare levels" true (scan_agrees (nest (Json.max_depth + 1)));
  (* Objects count as levels too, alone and below arrays. *)
  let objects k = String.concat "" (List.init k (fun _ -> "{\"a\":")) ^ "1" ^ String.make k '}' in
  let object_below k = String.make k '[' ^ "{}" ^ String.make k ']' in
  List.iter
    (fun k ->
      Alcotest.(check bool) (Printf.sprintf "%d object levels" k) true (scan_agrees (objects k));
      Alcotest.(check bool)
        (Printf.sprintf "object below %d arrays" (k - 1))
        true
        (scan_agrees (object_below (k - 1))))
    [ Json.max_depth - 1; Json.max_depth; Json.max_depth + 1 ];
  Alcotest.(check string) "10^5 levels refused with the reader's text"
    "nesting deeper than 512 at offset 512"
    (let s = String.make 100_000 '[' in
     match Json.member_spans s 0 (String.length s) [||] with
     | _ -> "accepted"
     | exception Json.Parse_error m -> m)

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
    QCheck_alcotest.to_alcotest (prop_readers_agree ~name:"printed values" ~count:3000 gen_printed);
    QCheck_alcotest.to_alcotest
      (prop_readers_agree ~name:"mutated store rows" ~count:3000 gen_mutated_row);
    QCheck_alcotest.to_alcotest
      (prop_readers_agree ~name:"random bytes" ~count:5000 gen_random_bytes);
    QCheck_alcotest.to_alcotest
      (prop_readers_agree ~name:"number lexemes" ~count:10000 gen_lexeme);
    QCheck_alcotest.to_alcotest (prop_readers_agree ~name:"escapes" ~count:5000 gen_escaped);
    Alcotest.test_case "JSON nesting bound" `Quick test_json_depth_bound;
    QCheck_alcotest.to_alcotest (prop_scan_agrees ~name:"printed values" ~count:3000 gen_printed);
    QCheck_alcotest.to_alcotest
      (prop_scan_agrees ~name:"mutated store rows" ~count:3000 gen_mutated_row);
    QCheck_alcotest.to_alcotest (prop_scan_agrees ~name:"random bytes" ~count:5000 gen_random_bytes);
    QCheck_alcotest.to_alcotest (prop_scan_agrees ~name:"number lexemes" ~count:10000 gen_lexeme);
    QCheck_alcotest.to_alcotest (prop_scan_agrees ~name:"escapes" ~count:5000 gen_escaped);
    QCheck_alcotest.to_alcotest
      (prop_scan_agrees ~name:"repeated and escaped keys" ~count:3000 gen_keyed_object);
    Alcotest.test_case "JSON scan nesting bound" `Quick test_scan_depth_bound;
  ]
