(** Serialization of typed reports: the [amblib-report/1] JSON envelope
    (with a parser for round-tripping), CSV emission, and a canonical
    content digest used by the bench harness as a model-drift gate.

    Everything is hand-rolled on the standard library — the toolkit takes
    no JSON dependency. *)

open Amb_units

(* ------------------------------------------------------------------ *)
(* JSON scalars                                                        *)

(** [json_string s] — [s] as a quoted, escaped JSON string literal. *)
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

(* The C formatter behind [Printf]'s float conversions: for "%.17g" on a
   finite value [Printf.sprintf] returns exactly its string, without
   parsing the format at every call. *)
external format_float : string -> float -> string = "caml_format_float"

(* Non-finite floats have no JSON number form; encode them as tagged
   strings so [of_json] can restore them exactly.  Finite values use %.17g,
   which round-trips binary64 exactly. *)
let json_float v =
  if Float.is_nan v then "\"nan\""
  else if v = Float.infinity then "\"inf\""
  else if v = Float.neg_infinity then "\"-inf\""
  else format_float "%.17g" v

(* ------------------------------------------------------------------ *)
(* Envelope emission                                                   *)

let schema_tag = "amblib-report/1"

(* A column's unit kind: the kind shared by every cell in the column, or
   "mixed" when qualitative [Text] verdicts interleave with numbers. *)
let column_kinds (report : Report.t) =
  let ncols = List.length report.header in
  let kinds = Array.make ncols None in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell ->
          let k = Cell.kind_name cell in
          match kinds.(i) with
          | None -> kinds.(i) <- Some (k, Cell.unit_symbol cell)
          | Some (k0, _) when k0 = k -> ()
          | Some _ -> kinds.(i) <- Some ("mixed", ""))
        row)
    report.rows;
  Array.to_list (Array.map (function None -> ("text", "") | Some ku -> ku) kinds)

let cell_to_json cell =
  let kind = json_string (Cell.kind_name cell) in
  match cell with
  | Cell.Text s -> Printf.sprintf "{ \"kind\": %s, \"text\": %s }" kind (json_string s)
  | Cell.Int i -> Printf.sprintf "{ \"kind\": %s, \"value\": %d }" kind i
  | Cell.Float { v; digits } ->
    Printf.sprintf "{ \"kind\": %s, \"value\": %s, \"digits\": %d, \"text\": %s }" kind
      (json_float v) digits
      (json_string (Cell.to_string cell))
  | Cell.Power _ | Cell.Energy _ | Cell.Time _ | Cell.Rate _ | Cell.Percent _ ->
    let si = match Cell.si_value cell with Some v -> v | None -> Float.nan in
    Printf.sprintf "{ \"kind\": %s, \"si\": %s, \"unit\": %s, \"text\": %s }" kind
      (json_float si)
      (json_string (Cell.unit_symbol cell))
      (json_string (Cell.to_string cell))

(** [to_json ?id report] — the [amblib-report/1] document: experiment id
    (when known), title, typed columns with unit kind, typed rows with
    numeric payloads in SI base units, and the notes. *)
let to_json ?id (report : Report.t) =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"schema\": %s,\n" (json_string schema_tag));
  (match id with
  | Some id -> Buffer.add_string b (Printf.sprintf "  \"id\": %s,\n" (json_string id))
  | None -> ());
  Buffer.add_string b (Printf.sprintf "  \"title\": %s,\n" (json_string report.Report.title));
  Buffer.add_string b "  \"columns\": [";
  List.iteri
    (fun i (name, (kind, unit)) ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b
        (Printf.sprintf "\n    { \"name\": %s, \"kind\": %s, \"unit\": %s }" (json_string name)
           (json_string kind) (json_string unit)))
    (List.combine report.Report.header (column_kinds report));
  Buffer.add_string b "\n  ],\n  \"rows\": [";
  List.iteri
    (fun i row ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b "\n    [ ";
      List.iteri
        (fun j cell ->
          if j > 0 then Buffer.add_string b ",\n      ";
          Buffer.add_string b (cell_to_json cell))
        row;
      Buffer.add_string b " ]")
    report.Report.rows;
  Buffer.add_string b "\n  ],\n  \"notes\": [";
  List.iteri
    (fun i note ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b ("\n    " ^ json_string note))
    report.Report.notes;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

(** [set_to_json entries] — a set of reports ([(id, description, report)])
    as one [amblib-report-set/1] document. *)
let set_to_json entries =
  let b = Buffer.create 8192 in
  Buffer.add_string b "{\n  \"schema\": \"amblib-report-set/1\",\n  \"reports\": [";
  List.iteri
    (fun i (id, desc, report) ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b "\n";
      Buffer.add_string b (Printf.sprintf "{ \"description\": %s,\n" (json_string desc));
      Buffer.add_string b (Printf.sprintf "  \"report\": %s }" (to_json ~id report)))
    entries;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Minimal JSON reader — just enough to round-trip the envelope.       *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Number of float
    | String of string
    | List of t list
    | Object of (string * t) list

  exception Parse_error of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some x when x = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let literal word value =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
        pos := !pos + String.length word;
        value
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance (); Buffer.contents b
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some ('"' | '\\' | '/') -> Buffer.add_char b s.[!pos]; advance ()
          | Some 'n' -> Buffer.add_char b '\n'; advance ()
          | Some 't' -> Buffer.add_char b '\t'; advance ()
          | Some 'r' -> Buffer.add_char b '\r'; advance ()
          | Some ('b' | 'f') -> advance ()
          | Some 'u' ->
            advance ();
            let start = !pos in
            for _ = 1 to 4 do (match peek () with Some _ -> advance () | None -> fail "bad \\u") done;
            (match int_of_string_opt ("0x" ^ String.sub s start 4) with
            | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
            | Some _ | None -> Buffer.add_char b '?')
          | _ -> fail "bad escape");
          go ()
        | Some c -> Buffer.add_char b c; advance (); go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let numchar c =
        (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while (match peek () with Some c when numchar c -> true | _ -> false) do advance () done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Number f
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "empty input"
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Object [])
        else
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((key, v) :: acc)
            | Some '}' -> advance (); Object (List.rev ((key, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); List [])
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          items []
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member key = function Object kvs -> List.assoc_opt key kvs | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Envelope parsing                                                    *)

let float_of_json = function
  | Json.Number v -> Ok v
  | Json.String "nan" -> Ok Float.nan
  | Json.String "inf" -> Ok Float.infinity
  | Json.String "-inf" -> Ok Float.neg_infinity
  | _ -> Error "expected a number"

let cell_of_json cell =
  let ( let* ) = Result.bind in
  let field name =
    match Json.member name cell with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "cell missing %S" name)
  in
  let numeric name =
    let* v = field name in
    float_of_json v
  in
  let* kind = field "kind" in
  match kind with
  | Json.String "text" -> (
    let* t = field "text" in
    match t with Json.String s -> Ok (Cell.Text s) | _ -> Error "text cell: bad \"text\"")
  | Json.String "int" -> (
    let* v = numeric "value" in
    if Float.is_integer v then Ok (Cell.Int (int_of_float v)) else Error "int cell: non-integer")
  | Json.String "float" ->
    let* v = numeric "value" in
    let* digits = numeric "digits" in
    Ok (Cell.Float { v; digits = int_of_float digits })
  | Json.String "power" ->
    let* si = numeric "si" in
    Ok (Cell.Power (Power.watts si))
  | Json.String "energy" ->
    let* si = numeric "si" in
    Ok (Cell.Energy (Energy.joules si))
  | Json.String "time" ->
    let* si = numeric "si" in
    Ok (Cell.Time (Time_span.seconds si))
  | Json.String "rate" ->
    let* si = numeric "si" in
    Ok (Cell.Rate (Data_rate.bits_per_second si))
  | Json.String "percent" ->
    let* si = numeric "si" in
    Ok (Cell.Percent si)
  | Json.String k -> Error (Printf.sprintf "unknown cell kind %S" k)
  | _ -> Error "cell \"kind\" is not a string"

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    Result.bind (f x) (fun y -> Result.map (fun ys -> y :: ys) (map_result f rest))

(** [of_json s] — parse an [amblib-report/1] document back into a typed
    report.  The inverse of {!to_json} up to the optional [id]. *)
let of_json s =
  let ( let* ) = Result.bind in
  let* json =
    match Json.parse s with
    | v -> Ok v
    | exception Json.Parse_error msg -> Error ("parse error: " ^ msg)
  in
  let* () =
    match Json.member "schema" json with
    | Some (Json.String tag) when tag = schema_tag -> Ok ()
    | _ -> Error (Printf.sprintf "missing or unexpected \"schema\" (want %s)" schema_tag)
  in
  let* title =
    match Json.member "title" json with
    | Some (Json.String t) -> Ok t
    | _ -> Error "missing \"title\""
  in
  let* header =
    match Json.member "columns" json with
    | Some (Json.List cols) ->
      map_result
        (fun c ->
          match Json.member "name" c with
          | Some (Json.String name) -> Ok name
          | _ -> Error "column missing \"name\"")
        cols
    | _ -> Error "missing \"columns\""
  in
  let* rows =
    match Json.member "rows" json with
    | Some (Json.List rows) ->
      map_result
        (function
          | Json.List cells -> map_result cell_of_json cells
          | _ -> Error "row is not a list")
        rows
    | _ -> Error "missing \"rows\""
  in
  let* notes =
    match Json.member "notes" json with
    | Some (Json.List notes) ->
      map_result
        (function Json.String s -> Ok s | _ -> Error "note is not a string")
        notes
    | _ -> Error "missing \"notes\""
  in
  match Report.make ~notes ~title ~header rows with
  | report -> Ok report
  | exception Invalid_argument msg -> Error msg

(* ------------------------------------------------------------------ *)
(* CSV                                                                 *)

(* RFC 4180 quoting: fields containing separators, quotes or newlines are
   quoted, with embedded quotes doubled. *)
let csv_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s then begin
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  end
  else s

(** [to_csv report] — header line then one line per row; cells render as
    their prose strings, RFC-4180 quoted. *)
let to_csv (report : Report.t) =
  let b = Buffer.create 1024 in
  let line cells = Buffer.add_string b (String.concat "," (List.map csv_field cells) ^ "\n") in
  line report.Report.header;
  List.iter line (Report.rendered_rows report);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Content digest                                                      *)

(** [digest report] — MD5 hex of the canonical typed content (kinds and
    full-precision SI payloads, not rendered text), used by the bench
    snapshot as a model-drift gate: any change to an experiment's numbers
    changes its digest. *)
let digest (report : Report.t) =
  let b = Buffer.create 4096 in
  Buffer.add_string b report.Report.title;
  List.iter (fun h -> Buffer.add_string b ("\x00" ^ h)) report.Report.header;
  List.iter
    (fun row ->
      Buffer.add_string b "\x01";
      List.iter
        (fun cell ->
          Buffer.add_string b ("\x02" ^ Cell.kind_name cell ^ ":");
          match cell with
          | Cell.Text s -> Buffer.add_string b s
          | _ ->
            (match Cell.si_value cell with
            | Some v -> Buffer.add_string b (json_float v)
            | None -> ()))
        row)
    report.Report.rows;
  List.iter (fun n -> Buffer.add_string b ("\x03" ^ n)) report.Report.notes;
  Digest.to_hex (Digest.string (Buffer.contents b))
