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
(* JSON reader                                                         *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Number of float
    | String of string
    | List of t list
    | Object of (string * t) list

  exception Parse_error of string

  (* Every document the toolkit writes nests about five deep.  The bound
     keeps the recursion stack small: a deep stack is rescanned by every
     minor collection, which made the time for 10^6 nested brackets
     grow faster than linearly. *)
  let max_depth = 512

  (* The reader scans [s] by index; [pos] is the next unread byte and the
     offset every error message reports. *)
  type reader = { s : string; n : int; mutable pos : int }

  let fail r msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg r.pos))

  let fail_at r i msg =
    r.pos <- i;
    fail r msg

  (* The scanning loops are top-level functions that take what they read
     as arguments: a local closure would be allocated on every call. *)
  let rec ws_end s n i =
    if i < n then
      match String.unsafe_get s i with ' ' | '\t' | '\n' | '\r' -> ws_end s n (i + 1) | _ -> i
    else i

  let skip_ws r = r.pos <- ws_end r.s r.n r.pos
  let at r c = r.pos < r.n && String.unsafe_get r.s r.pos = c

  let expect r c = if at r c then r.pos <- r.pos + 1 else fail r (Printf.sprintf "expected %c" c)

  let rec same s i word k =
    k = String.length word || (s.[i + k] = word.[k] && same s i word (k + 1))

  let literal r word v =
    let len = String.length word in
    if r.pos + len <= r.n && same r.s r.pos word 0 then begin
      r.pos <- r.pos + len;
      v
    end
    else fail r ("expected " ^ word)

  (* [\uXXXX] keeps code points below 0x80 and reads everything else,
     malformed digits included, as ['?']. *)
  let unicode s i =
    match int_of_string_opt ("0x" ^ String.sub s i 4) with
    | Some code when code < 0x80 -> Char.chr code
    | Some _ | None -> '?'

  (* The rest of a string literal from its first backslash [first]: one
     pass checks the escapes, failing where a char-by-char read would,
     and counts the result's bytes ([\b] and [\f] yield none); a second
     fills a buffer of exactly that size. *)
  let escaped r start first =
    let s = r.s and n = r.n in
    let rec measure i len =
      if i = n then fail_at r n "unterminated string"
      else
        match s.[i] with
        | '"' -> (i, len)
        | '\\' ->
          if i + 1 = n then fail_at r n "bad escape"
          else (
            match s.[i + 1] with
            | '"' | '\\' | '/' | 'n' | 't' | 'r' -> measure (i + 2) (len + 1)
            | 'b' | 'f' -> measure (i + 2) len
            | 'u' -> if i + 6 > n then fail_at r n "bad \\u" else measure (i + 6) (len + 1)
            | _ -> fail_at r (i + 1) "bad escape")
        | _ -> measure (i + 1) (len + 1)
    in
    let stop, len = measure first (first - start) in
    let b = Bytes.create len in
    let rec fill i j =
      if i < stop then
        match s.[i] with
        | '\\' -> (
          match s.[i + 1] with
          | 'b' | 'f' -> fill (i + 2) j
          | 'u' ->
            Bytes.set b j (unicode s (i + 2));
            fill (i + 6) (j + 1)
          | c ->
            Bytes.set b j (match c with 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | c -> c);
            fill (i + 2) (j + 1))
        | c ->
          Bytes.set b j c;
          fill (i + 1) (j + 1)
    in
    fill start 0;
    r.pos <- stop + 1;
    Bytes.unsafe_to_string b

  let rec plain_end s n i =
    if i < n then match String.unsafe_get s i with '"' | '\\' -> i | _ -> plain_end s n (i + 1)
    else n

  (* A string literal: one [String.sub] when it holds no escape. *)
  let parse_string r =
    expect r '"';
    let s = r.s and start = r.pos in
    let i = plain_end s r.n start in
    if i = r.n then fail_at r i "unterminated string"
    else if String.unsafe_get s i = '"' then begin
      r.pos <- i + 1;
      String.sub s start (i - start)
    end
    else escaped r start i

  (* A number is the longest run of [0-9+-.eE], read as [float_of_string]
     (strtod) reads it.  Clinger's fast path takes [-]D*[.D*][(e|E)[+|-]D+]
     with one to [fast_digits] mantissa digits, so the mantissa is an
     exact float, and a decimal exponent within [+-22], so is its power of
     ten: one correctly rounded multiply or divide then gives strtod's
     correctly rounded value, and ["-0"] gives [-0.0].  Anything else goes
     through [float_of_string]. *)
  let fast_digits = 15

  let pow10 =
    [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13; 1e14; 1e15;
       1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22 |]

  let rec number_end s n i =
    if i < n then
      match String.unsafe_get s i with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> number_end s n (i + 1)
      | _ -> i
    else i

  let rec digits_end s stop i =
    if i < stop && match String.unsafe_get s i with '0' .. '9' -> true | _ -> false then
      digits_end s stop (i + 1)
    else i

  let char_at s stop i = if i < stop then String.unsafe_get s i else ' '

  (* [acc] followed by the digits [s.[i..j-1]]. *)
  let rec digits_value s i j acc =
    if i = j then acc
    else digits_value s (i + 1) j ((10 * acc) + Char.code (String.unsafe_get s i) - 48)

  let parse_number r =
    let s = r.s and start = r.pos in
    let stop = number_end s r.n start in
    r.pos <- stop;
    let neg = stop > start && String.unsafe_get s start = '-' in
    let int0 = if neg then start + 1 else start in
    let int1 = digits_end s stop int0 in
    let dot = char_at s stop int1 = '.' in
    let frac1 = if dot then digits_end s stop (int1 + 1) else int1 in
    let e = match char_at s stop frac1 with 'e' | 'E' -> true | _ -> false in
    let esign = e && match char_at s stop (frac1 + 1) with '-' | '+' -> true | _ -> false in
    let exp0 = if esign then frac1 + 2 else frac1 + 1 in
    let exp1 = if e then digits_end s stop exp0 else frac1 in
    let frac_digits = if dot then frac1 - int1 - 1 else 0 in
    let digits = int1 - int0 + frac_digits in
    (* The whole run must match the fast grammar; three exponent digits
       bound the exponent's value. *)
    let fast =
      exp1 = stop && digits > 0 && digits <= fast_digits
      && ((not e) || (exp1 > exp0 && exp1 - exp0 <= 3))
    in
    let k =
      if not fast then 0
      else
        let exp = if e then digits_value s exp0 exp1 0 else 0 in
        (if esign && char_at s stop (frac1 + 1) = '-' then -exp else exp) - frac_digits
    in
    if fast && k >= -22 && k <= 22 then begin
      let m = digits_value s int0 int1 0 in
      let m = if dot then digits_value s (int1 + 1) frac1 m else m in
      let v = Float.of_int m in
      let v = if k >= 0 then v *. pow10.(k) else v /. pow10.(-k) in
      Number (if neg then -.v else v)
    end
    else
      match float_of_string_opt (String.sub s start (stop - start)) with
      | Some f -> Number f
      | None -> fail r "bad number"

  let rec value r depth =
    skip_ws r;
    if r.pos >= r.n then fail r "empty input";
    match String.unsafe_get r.s r.pos with
    | ('{' | '[') as c ->
      if depth = max_depth then fail r (Printf.sprintf "nesting deeper than %d" max_depth);
      r.pos <- r.pos + 1;
      skip_ws r;
      if c = '{' then
        if at r '}' then (r.pos <- r.pos + 1; Object [])
        else Object (members r (depth + 1))
      else if at r ']' then (r.pos <- r.pos + 1; List [])
      else List (items r (depth + 1))
    | '"' -> String (parse_string r)
    | 't' -> literal r "true" (Bool true)
    | 'f' -> literal r "false" (Bool false)
    | 'n' -> literal r "null" Null
    | _ -> parse_number r

  and[@tail_mod_cons] members r depth =
    skip_ws r;
    let key = parse_string r in
    skip_ws r;
    expect r ':';
    let v = value r depth in
    skip_ws r;
    if at r ',' then begin
      r.pos <- r.pos + 1;
      (key, v) :: members r depth
    end
    else begin
      if not (at r '}') then fail r "expected , or }";
      r.pos <- r.pos + 1;
      [ (key, v) ]
    end

  and[@tail_mod_cons] items r depth =
    let v = value r depth in
    skip_ws r;
    if at r ',' then begin
      r.pos <- r.pos + 1;
      v :: items r depth
    end
    else begin
      if not (at r ']') then fail r "expected , or ]";
      r.pos <- r.pos + 1;
      [ v ]
    end

  let parse s =
    let r = { s; n = String.length s; pos = 0 } in
    let v = value r 0 in
    skip_ws r;
    if r.pos <> r.n then fail r "trailing garbage";
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
