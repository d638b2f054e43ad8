(** Serialization of typed reports: the [amblib-report/1] JSON envelope,
    CSV emission, and a canonical content digest (hand-rolled, no JSON
    dependency). *)

val schema_tag : string
(** ["amblib-report/1"]. *)

val json_string : string -> string
(** A quoted, escaped JSON string literal — for frontends composing
    larger envelopes around {!to_json} documents.  ["\""], ["\\"] and
    bytes below 0x20 are escaped; other bytes pass through. *)

val json_float : float -> string
(** A float as JSON: finite values as ["%.17g"] (byte for byte
    [Printf.sprintf "%.17g"], which round-trips binary64), NaN and the
    infinities as the tagged strings ["\"nan\""], ["\"inf\""] and
    ["\"-inf\""] that {!of_json} restores.

    Most finite values are written in OCaml, exactly: integers of
    magnitude below 10{^17} (and both zeros) as their decimal digits,
    and normal doubles whose leading decimal digit sits between about
    10{^-6} and 10{^15} (all non-integers from about 2e-6 to 2{^52}) by
    an exact integer product rounded half to even, as printf rounds.
    Subnormals, values below that range, and integers from 10{^17} up
    go to the C formatter [Printf] uses.  Nothing is shared between
    calls, so domains may call it concurrently. *)

val to_json : ?id:string -> Report.t -> string
(** The [amblib-report/1] document: experiment id (when known), title,
    typed columns with unit kind, typed rows with numeric payloads in SI
    base units, and the notes. *)

val set_to_json : (string * string * Report.t) list -> string
(** A set of reports ([(id, description, report)]) as one
    [amblib-report-set/1] document. *)

val of_json : string -> (Report.t, string) result
(** Parse an [amblib-report/1] document back into a typed report.  The
    inverse of {!to_json} up to the optional [id]. *)

val to_csv : Report.t -> string
(** Header line then one line per row; cells render as their prose
    strings, RFC-4180 quoted. *)

val digest : Report.t -> string
(** MD5 hex of the canonical typed content (kinds and full-precision SI
    payloads); any change to an experiment's numbers changes its
    digest. *)

(** The JSON reader behind every document the toolkit reads back: serve
    requests, report envelopes and bench snapshots, and store rows,
    which {!Json.member_spans} checks against the same grammar without
    building a value.

    Grammar: RFC 8259 values with these departures, which the writers
    above never need and which stay fixed because callers echo the
    results.
    - A number is the longest run of the bytes [0-9 + - . e E], read as
      [float_of_string] reads it (so ["007"], ["+1"], [".5"] and ["1."]
      are numbers); a run it rejects, or an empty run where a value
      should start, is ["bad number"].
    - Strings carry raw bytes (control characters and non-UTF-8
      included).  [\b] and [\f] are dropped; [\uXXXX] takes the next
      four bytes whatever they are, keeps a code point below 0x80 and
      reads anything else, malformed digits included, as ['?'].
    - Duplicate object keys are kept in order; {!member} answers the
      first.
    - Whitespace is space, tab, newline and carriage return.

    Errors: {!Parse_error} carries ["MESSAGE at offset N"], [N] the byte
    offset where reading stopped.  The messages are ["empty input"],
    ["expected C"] (C a single character), ["expected true"] (or
    [false]/[null]), ["unterminated string"], ["bad escape"],
    ["bad \\u"], ["bad number"], ["expected , or }"],
    ["expected , or ]"], ["trailing garbage"], and
    ["nesting deeper than 512"] at the bracket or brace that would open
    a 513th level.

    Time and space are linear in the input: the reader scans by index,
    grows no buffer, and recurses no deeper than {!Json.max_depth}. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Number of float
    | String of string
    | List of t list
    | Object of (string * t) list

  exception Parse_error of string

  val max_depth : int
  (** 512: the deepest container nesting {!parse} accepts. *)

  val parse : string -> t
  (** One complete value, optionally surrounded by whitespace.  Raises
      {!Parse_error} on malformed input. *)

  val member : string -> t -> t option

  val member_spans : string -> int -> int -> string array -> int array
  (** [member_spans s lo hi keys] checks [s.[lo..hi-1]] against the
      grammar of {!parse} without building a value, and answers where
      the top-level members named [keys] (distinct) sit: slots [2k]
      and [2k+1] hold the start and end of the value of the first
      member named [keys.(k)] (as {!member} picks it), or [-1] when the
      text is not an object or has no such member.  Keys compare after
      escapes are decoded.

      The scan accepts exactly the texts {!parse} accepts: the same
      escapes (with [\u] taking any four bytes), the same depth bound
      and the same trailing-garbage rule.  A number is checked, not
      converted: a run of [0-9 + - . e E] must match the strtod decimal
      grammar [[+|-](D+[.D*]|.D+)[(e|E)[+|-]D+]] (brackets optional, D
      a digit), which is what [float_of_string] accepts from those
      bytes.

      On a text it rejects it raises the {!Parse_error} that {!parse}
      raises on [String.sub s lo (hi - lo)], so error texts and offsets
      are those of {!parse}. *)

  val parse_span : string -> int -> int -> t
  (** [parse_span s lo hi] reads [s.[lo..hi-1]] as {!parse} reads that
      text, for instance one value span answered by {!member_spans}.
      Error offsets count from the start of [s]. *)
end
