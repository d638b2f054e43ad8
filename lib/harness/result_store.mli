(** Append-only JSONL store of matrix-cell results, keyed by
    [(config digest, seed)].

    The store is what makes every grid run {e resumable}: each completed
    cell appends exactly one line (flushed immediately), a re-run skips
    every key already present, and because {!Matrix} appends rows in
    grid order, the merged store after any interrupt + resume is
    byte-identical to an uninterrupted from-scratch run.  A torn final
    line (process killed mid-append) is detected by its missing newline,
    dropped, and truncated away on the next {!load}.

    Rows are one-line [amblib-matrix-row/1] JSON objects (see
    {!Matrix}); this module only requires the four key fields
    ([schema], [config], [seed], [status]) and stores the raw line, so
    digest-keyed caches (`ambient serve`) can answer with the exact
    bytes that went to disk. *)

type t

type entry = { key : string; status : string; line : string }

val row_schema : string
(** ["amblib-matrix-row/1"]. *)

val make_key : config:string -> seed:int -> string

val entry_of_line : string -> (entry, string) result
(** Validate one row line (schema, config, seed, status) without
    touching any store. *)

val in_memory : unit -> t
(** A store with no backing file (tests, `ambient serve` without
    [--store]). *)

val load : string -> (t, string) result
(** Open (or create) a file-backed store: existing complete rows are
    indexed, a torn trailing fragment is truncated away, and malformed
    or duplicate complete rows yield [Error] (the file was not written
    by this harness). *)

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
