(** Serialization of typed reports: the [amblib-report/1] JSON envelope,
    CSV emission, and a canonical content digest (hand-rolled, no JSON
    dependency). *)

val schema_tag : string
(** ["amblib-report/1"]. *)

val json_string : string -> string
(** A quoted, escaped JSON string literal — for frontends composing
    larger envelopes around {!to_json} documents. *)

val json_float : float -> string
(** A float as JSON: finite values as ["%.17g"] (byte for byte
    [Printf.sprintf "%.17g"], which round-trips binary64), NaN and the
    infinities as the tagged strings ["\"nan\""], ["\"inf\""] and
    ["\"-inf\""] that {!of_json} restores. *)

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

(** Minimal JSON reader — enough to round-trip the envelopes emitted
    here; exposed for the bench harness's snapshot validator. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Number of float
    | String of string
    | List of t list
    | Object of (string * t) list

  exception Parse_error of string

  val parse : string -> t
  (** Raises {!Parse_error} on malformed input. *)

  val member : string -> t -> t option
end
