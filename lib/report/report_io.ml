(** Serialization of typed reports: the [amblib-report/1] JSON envelope
    (with a parser for round-tripping), CSV emission, and a canonical
    content digest used by the bench harness as a model-drift gate.

    Everything is hand-rolled on the standard library — the toolkit takes
    no JSON dependency. *)

open Amb_units

(* ------------------------------------------------------------------ *)
(* JSON scalars                                                        *)

(* True when no byte of [s] from [i] on needs an escape. *)
let rec plain s i =
  i = String.length s
  ||
  match String.unsafe_get s i with
  | '"' | '\\' -> false
  | c -> Char.code c >= 0x20 && plain s (i + 1)

let escaped s =
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

(** [json_string s] — [s] as a quoted, escaped JSON string literal. *)
let json_string s = if plain s 0 then "\"" ^ s ^ "\"" else escaped s

(* The C formatter behind [Printf]'s float conversions: for "%.17g" on a
   finite value [Printf.sprintf] returns exactly its string, without
   parsing the format at every call. *)
external format_float : string -> float -> string = "caml_format_float"

(* An exact "%.17g" in OCaml for integers below 10^17 and for normal
   doubles from about 2e-6 to 2^52; everything else goes to
   [format_float].

   A normal double is [m * 2^-s] with [2^52 <= m < 2^53].  With [x] the
   decimal exponent of its leading digit, its 17 significant digits are
   [v * 10^p] rounded, [p = 16 - x].  For [p <= 22], [5^p < 2^52], so
   [v * 10^p = m * 5^p / 2^(s-p)] is an exact product of at most 105
   bits (taken on 26-bit limbs) shifted right, its remainder rounded
   half to even as C's printf rounds an exact tie.  [x] is first
   estimated from the binary exponent, which is exact or one low. *)

let pow5 =
  let rec pow k = if k = 0 then 1 else 5 * pow (k - 1) in
  Array.init 23 pow
let limb = (1 lsl 26) - 1
let mantissa_bits = (1 lsl 52) - 1
let e17 = 100_000_000_000_000_000

(* [m * 5^p / 2^k] rounded half to even, for [0 <= k <= 52] and a
   quotient below 2^62. *)
let scaled m p k =
  let f = pow5.(p) in
  let m0 = m land limb and m1 = m lsr 26 in
  let f0 = f land limb and f1 = f lsr 26 in
  let c0 = m0 * f0 in
  let c1 = (m0 * f1) + (m1 * f0) + (c0 lsr 26) in
  (* the product is [hi * 2^52 + lo] with [lo < 2^52] *)
  let hi = (m1 * f1) + (c1 lsr 26) in
  let lo = ((c1 land limb) lsl 26) lor (c0 land limb) in
  if k = 0 then (hi lsl 52) lor lo
  else
    let q = (hi lsl (52 - k)) lor (lo lsr k) in
    let r = lo land ((1 lsl k) - 1) and half = 1 lsl (k - 1) in
    if r > half || (r = half && q land 1 = 1) then q + 1 else q

let rec decimal_length n = if n < 10 then 1 else 1 + decimal_length (n / 10)

(* Writes the [len] low decimal digits of [n] into [b], ending before
   [stop]; answers the digits above them. *)
let rec put_digits b stop n len =
  if len = 0 then n
  else begin
    Bytes.unsafe_set b (stop - 1) (Char.unsafe_chr (48 + (n mod 10)));
    put_digits b (stop - 1) (n / 10) (len - 1)
  end

(* The "%.17g" text of [d * 10^(x - nd + 1)], where [d] has [nd] digits
   and no trailing zero: plain notation when [-4 <= x < 17], else
   [D.DDDe±XX] with at least two exponent digits; no trailing zero and
   no bare point either way. *)
let layout ~neg d nd x =
  let sign = if neg then 1 else 0 in
  let b =
    if x < -4 || x >= 17 then begin
      let xd = Int.max 2 (decimal_length (abs x)) in
      let mant = if nd > 1 then nd + 1 else 1 in
      let b = Bytes.create (sign + mant + 2 + xd) in
      ignore (put_digits b (Bytes.length b) (abs x) xd);
      Bytes.unsafe_set b (sign + mant + 1) (if x < 0 then '-' else '+');
      Bytes.unsafe_set b (sign + mant) 'e';
      let lead = put_digits b (sign + mant) d (nd - 1) in
      if nd > 1 then Bytes.unsafe_set b (sign + 1) '.';
      Bytes.unsafe_set b sign (Char.unsafe_chr (48 + lead));
      b
    end
    else if x < 0 then begin
      (* 0.000DDD *)
      let b = Bytes.create (sign + 1 - x + nd) in
      ignore (put_digits b (Bytes.length b) d nd);
      Bytes.unsafe_fill b sign (1 - x) '0';
      Bytes.unsafe_set b (sign + 1) '.';
      b
    end
    else if nd <= x + 1 then begin
      (* DDD000 *)
      let b = Bytes.create (sign + x + 1) in
      ignore (put_digits b (sign + nd) d nd);
      Bytes.unsafe_fill b (sign + nd) (x + 1 - nd) '0';
      b
    end
    else begin
      (* DDD.DDD *)
      let b = Bytes.create (sign + nd + 1) in
      let int_part = put_digits b (Bytes.length b) d (nd - x - 1) in
      Bytes.unsafe_set b (sign + x + 1) '.';
      ignore (put_digits b (sign + x + 1) int_part (x + 1));
      b
    end
  in
  if neg then Bytes.unsafe_set b 0 '-';
  Bytes.unsafe_to_string b

let rec strip_zeros ~neg d nd x =
  if d mod 10 = 0 then strip_zeros ~neg (d / 10) (nd - 1) x else layout ~neg d nd x

(* A positive integer below 10^17: all its digits, in plain notation. *)
let integer ~neg n =
  let len = decimal_length n in
  strip_zeros ~neg n len (len - 1)

let format_17g v =
  let bits = Int64.bits_of_float v in
  let neg = Int64.compare bits 0L < 0 in
  let i = Int64.to_int bits in
  let be = (i lsr 52) land 0x7ff and frac = i land mantissa_bits in
  let m = frac lor (1 lsl 52) in
  (* [|v| = m * 2^-s] for a normal [v] *)
  let s = 1075 - be in
  if be = 0 then if frac = 0 then if neg then "-0" else "0" else format_float "%.17g" v
  else if s <= 0 then
    if s >= -4 && m lsl (-s) < e17 then integer ~neg (m lsl (-s)) else format_float "%.17g" v
  else if s <= 52 && m land ((1 lsl s) - 1) = 0 then integer ~neg (m lsr s)
  else
    let x = ((52 - s) * 78913) asr 18 in
    let p = 16 - x in
    if p < 1 || p > 22 || s - p < 0 || s - p > 51 then format_float "%.17g" v
    else
      let q = scaled m p (s - p) in
      (* 18 digits: the estimate of [x] was one low, or the rounding
         carried into 10^17, which at [x + 1] rounds to 10^16 *)
      if q >= e17 then strip_zeros ~neg (scaled m (p - 1) (s - p + 1)) 17 (x + 1)
      else strip_zeros ~neg q 17 x

(* Non-finite floats have no JSON number form; encode them as tagged
   strings so [of_json] can restore them exactly.  Finite values use %.17g,
   which round-trips binary64 exactly. *)
let json_float v =
  if Float.is_nan v then "\"nan\""
  else if v = Float.infinity then "\"inf\""
  else if v = Float.neg_infinity then "\"-inf\""
  else format_17g v

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

  let parse_span s lo hi =
    let r = { s; n = hi; pos = lo } in
    let v = value r 0 in
    skip_ws r;
    if r.pos <> r.n then fail r "trailing garbage";
    v

  let parse s = parse_span s 0 (String.length s)

  let member key = function Object kvs -> List.assoc_opt key kvs | _ -> None

  (* The validating scan: the grammar of [value] above, checked in place
     with no value built.  Each function takes the end [n] of the text
     and the index [i] where it starts, and answers the index just past
     what it read; any departure from the grammar raises [Reject]. *)
  exception Reject

  (* The rest of a string literal after its opening quote, escapes
     checked as [escaped] checks them. *)
  let rec scan_string s n i =
    let i = plain_end s n i in
    if i = n then raise Reject
    else if String.unsafe_get s i = '"' then i + 1
    else if i + 1 = n then raise Reject
    else
      match String.unsafe_get s (i + 1) with
      | '"' | '\\' | '/' | 'n' | 't' | 'r' | 'b' | 'f' -> scan_string s n (i + 2)
      | 'u' -> if i + 6 > n then raise Reject else scan_string s n (i + 6)
      | _ -> raise Reject

  let sign_at s n i = match char_at s n i with '+' | '-' -> true | _ -> false

  (* A number: the run of [0-9+-.eE] from [i] must match the strtod
     decimal grammar [[+|-](D+[.D*]|.D+)[(e|E)[+|-]D+]] (brackets
     optional, D a digit), exactly the runs [float_of_string] accepts:
     the greedy match of the grammar must end where the run ends. *)
  let scan_number s n i =
    let int0 = if sign_at s n i then i + 1 else i in
    let int1 = digits_end s n int0 in
    let frac1 = if char_at s n int1 = '.' then digits_end s n (int1 + 1) else int1 in
    if int1 = int0 && frac1 <= int1 + 1 then raise Reject;
    let stop =
      match char_at s n frac1 with
      | 'e' | 'E' ->
        let exp0 = if sign_at s n (frac1 + 1) then frac1 + 2 else frac1 + 1 in
        let exp1 = digits_end s n exp0 in
        if exp1 = exp0 then raise Reject;
        exp1
      | _ -> frac1
    in
    match char_at s n stop with
    | '0' .. '9' | '+' | '-' | '.' | 'e' | 'E' -> raise Reject
    | _ -> stop

  let scan_word s n i word =
    let len = String.length word in
    if i + len <= n && same s i word 0 then i + len else raise Reject

  (* The opening quote of a key after whitespace from [i]. *)
  let key_start s n i =
    let i = ws_end s n i in
    if char_at s n i <> '"' then raise Reject;
    i

  (* Past the colon that follows a key ending before [i]. *)
  let colon_end s n i =
    let i = ws_end s n i in
    if char_at s n i <> ':' then raise Reject;
    i + 1

  (* The slot in [keys] of the key literal whose opening quote is at [k]
     and closing quote at [k1 - 1], or [-1].  A key with escapes is
     decoded as [parse_string] decodes it. *)
  let rec plain_slot s k len keys j =
    if j = Array.length keys then -1
    else
      let key = Array.unsafe_get keys j in
      if String.length key = len && same s (k + 1) key 0 then j else plain_slot s k len keys (j + 1)

  let rec decoded_slot key keys j =
    if j = Array.length keys then -1
    else if String.equal key (Array.unsafe_get keys j) then j
    else decoded_slot key keys (j + 1)

  let key_slot s n k k1 keys =
    if plain_end s n (k + 1) = k1 - 1 then plain_slot s k (k1 - k - 2) keys 0
    else decoded_slot (parse_string { s; n; pos = k }) keys 0

  (* Members at [depth] 1 are the top-level object's: the value span of
     the first member named [keys.(j)] goes to [spans.(2j)] and
     [spans.(2j+1)]. *)
  let rec scan_value s n i depth keys spans =
    let i = ws_end s n i in
    if i >= n then raise Reject;
    match String.unsafe_get s i with
    | '{' ->
      if depth = max_depth then raise Reject;
      let i = ws_end s n (i + 1) in
      if char_at s n i = '}' then i + 1 else scan_members s n i (depth + 1) keys spans
    | '[' ->
      if depth = max_depth then raise Reject;
      let i = ws_end s n (i + 1) in
      if char_at s n i = ']' then i + 1 else scan_items s n i (depth + 1) keys spans
    | '"' -> scan_string s n (i + 1)
    | 't' -> scan_word s n i "true"
    | 'f' -> scan_word s n i "false"
    | 'n' -> scan_word s n i "null"
    | _ -> scan_number s n i

  and scan_members s n i depth keys spans =
    let k = key_start s n i in
    let k1 = scan_string s n (k + 1) in
    let v0 = ws_end s n (colon_end s n k1) in
    let v1 = scan_value s n v0 depth keys spans in
    if depth = 1 then begin
      let j = key_slot s n k k1 keys in
      if j >= 0 && spans.(2 * j) < 0 then begin
        spans.(2 * j) <- v0;
        spans.((2 * j) + 1) <- v1
      end
    end;
    let i = ws_end s n v1 in
    match char_at s n i with
    | ',' -> scan_members s n (i + 1) depth keys spans
    | '}' -> i + 1
    | _ -> raise Reject

  and scan_items s n i depth keys spans =
    let i = ws_end s n (scan_value s n i depth keys spans) in
    match char_at s n i with
    | ',' -> scan_items s n (i + 1) depth keys spans
    | ']' -> i + 1
    | _ -> raise Reject

  let member_spans s lo hi keys =
    let spans = Array.make (2 * Array.length keys) (-1) in
    match ws_end s hi (scan_value s hi lo 0 keys spans) = hi with
    | true -> spans
    | false | exception Reject ->
      (* [parse] rejects what the scan rejects, with its own text. *)
      ignore (parse (String.sub s lo (hi - lo)) : t);
      invalid_arg "Json.member_spans: the scan rejected what parse accepts"
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
  let tagged tag s =
    Buffer.add_char b tag;
    Buffer.add_string b s
  in
  Buffer.add_string b report.Report.title;
  List.iter (tagged '\x00') report.Report.header;
  List.iter
    (fun row ->
      Buffer.add_char b '\x01';
      List.iter
        (fun cell ->
          tagged '\x02' (Cell.kind_name cell);
          Buffer.add_char b ':';
          match cell with
          | Cell.Text s -> Buffer.add_string b s
          | _ -> (
            match Cell.si_value cell with
            | Some v -> Buffer.add_string b (json_float v)
            | None -> ()))
        row)
    report.Report.rows;
  List.iter (tagged '\x03') report.Report.notes;
  Digest.to_hex (Digest.string (Buffer.contents b))
