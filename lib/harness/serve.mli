(** The resident batch service behind `ambient serve` ([amblib-serve/1]).

    Protocol: one JSON object per line on stdin, one JSON response per
    line on stdout.  Ops:

    {v
    {"op":"ping"}                     -> {"schema":"amblib-serve/1","op":"ping","status":"ok"}
    {"op":"stats"}                    -> store size + cumulative ran/cached/errors
    {"op":"quit"}                     -> acknowledged, then the loop ends
    {"op":"run","leaves":[4,8],...}   -> a scenario grid: every non-"op"
                                         member is a {!Scenario_spec} axis
                                         (scalars or lists), validated by
                                         [parse_kv], executed by
                                         {!Matrix.execute} against the
                                         session store, rows inlined in
                                         the response
    v}

    The store and domain pool live for the whole session, so a repeated
    [run] request answers entirely from the digest-keyed cache
    ([ran = 0]).  Any failure — unreadable, oversized or too deeply
    nested line, unknown op, malformed or oversized axis, even an
    exception inside the runner — produces a [status = "error"]
    response; the loop only exits on [quit] or end of input. *)

type t

val schema : string
(** ["amblib-serve/1"]. *)

val create : ?pool:Amb_sim.Domain_pool.t -> ?jobs:int -> store:Result_store.t -> unit -> t
(** [pool] is used for every [run] request when given; otherwise grids
    run with [jobs] (default 1, i.e. in-process). *)

val max_line_bytes : int
(** 1 MiB: a longer request line is answered with an error before it is
    parsed.  {!serve} keeps at most this many bytes plus one of a line
    and drops the rest of a longer one through its newline. *)

val handle_line : t -> string -> string * [ `Continue | `Quit ]
(** One request line to one response line — the unit tests drive this
    directly. *)

val serve : t -> in_channel -> out_channel -> unit
(** The stdin/stdout loop: responses are flushed per line.  A final
    line without a newline is still answered. *)
