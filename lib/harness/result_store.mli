(** Append-only JSONL store of matrix-cell results, keyed by
    [(config digest, seed)].

    The store is what makes every grid run {e resumable}: each completed
    cell appends exactly one line (flushed immediately), a re-run skips
    every key already present, and because {!Matrix} appends rows in
    grid order, the merged store after any interrupt + resume is
    byte-identical to an uninterrupted from-scratch run.  A torn final
    line (process killed mid-append) is detected by its missing newline,
    dropped, and cut away in place on the next {!load}: the file is
    truncated to its last newline, so no complete row is ever absent
    from disk, not even if the load itself is killed.

    Rows are one-line [amblib-matrix-row/1] JSON objects (see
    {!Matrix}).  Each row must be a JSON text the reader accepts
    ({!Amb_report.Report_io.Json.parse}), checked in place by
    {!Amb_report.Report_io.Json.member_spans} without building a value;
    this module decodes only the four key fields ([schema], [config],
    [seed], [status]) and stores the raw line, so digest-keyed caches
    (`ambient serve`) can answer with the exact bytes that went to
    disk. *)

type t

type entry = { key : string; status : string; line : string }

val row_schema : string
(** ["amblib-matrix-row/1"]. *)

val make_key : config:string -> seed:int -> string

val entry_of_line : string -> (entry, string) result
(** Validate one row line without touching any store: the whole line
    must be one JSON value the reader accepts ([Error "bad row: "] and
    the reader's own message otherwise), and its first [schema],
    [config], [seed] and [status] members must be the row schema, a
    string, an integral number and a string. *)

val in_memory : unit -> t
(** A store with no backing file (tests, `ambient serve` without
    [--store]). *)

val load : string -> (t, string) result
(** Open (or create) a file-backed store: existing complete rows are
    indexed, a torn trailing fragment is cut away in place, and
    malformed or duplicate complete rows yield [Error] naming the file
    line (the file was not written by this harness; it is left as it
    is).  A tail that cannot be cut is an [Error] too. *)

val mem : t -> config:string -> seed:int -> bool
val find : t -> config:string -> seed:int -> string option

val find_entry : t -> config:string -> seed:int -> entry option
(** {!find}, answering with the indexed entry, so a caller reads the
    row's [status] without parsing the line again. *)

val append : t -> string -> unit
(** Append one row line (no trailing newline): validated, indexed, and —
    when file-backed — written and flushed immediately so an interrupt
    never loses a completed cell.  Raises [Invalid_argument] on a
    malformed row or duplicate key. *)

val append_entry : t -> string -> entry
(** {!append}, answering with the entry it validated and indexed. *)

val size : t -> int
val entries : t -> entry list

val contents : t -> string
(** Every stored row, newline-terminated — the exact bytes of a
    file-backed store's file. *)

val close : t -> unit
