(** Resident batch service behind `ambient serve` (see .mli).

    One JSON request per line in, one JSON response per line out
    ([amblib-serve/1]).  A [run] request is a scenario spec with the
    axes as object members; it goes through the same
    {!Scenario_spec.parse_kv} -> {!Matrix.execute} path as `ambient
    matrix`, against a store and domain pool that live for the whole
    session — so repeated queries answer from the digest-keyed cache
    without touching the pool.  Every failure (unreadable line, unknown
    op, bad axis value) is a [status = "error"] response, never a
    crash: the loop only ends on [quit] or end of input. *)

module Json = Amb_report.Report_io.Json

let json_string = Amb_report.Report_io.json_string

type t = {
  store : Result_store.t;
  pool : Amb_sim.Domain_pool.t option;
  jobs : int;
  mutable requests : int;  (** well-formed [run] requests served *)
  mutable ran : int;
  mutable cached : int;
  mutable errors : int;
}

let schema = "amblib-serve/1"

let create ?pool ?(jobs = 1) ~store () =
  { store; pool; jobs; requests = 0; ran = 0; cached = 0; errors = 0 }

let error_response msg =
  Printf.sprintf "{\"schema\":%s,\"status\":\"error\",\"error\":%s}" (json_string schema)
    (json_string msg)

(* Request members are spec axes; values arrive as JSON scalars or lists
   of scalars and are rendered back to the spec's comma-list syntax so
   parse_kv applies the one shared validation path. *)
let value_str = function
  | Json.String s -> Ok s
  | Json.Number v ->
    Ok
      (if Float.is_integer v && Float.abs v < 1e15 then
         string_of_int (int_of_float v)
       else Scenario_spec.float_str v)
  | Json.Bool b -> Ok (string_of_bool b)
  | _ -> Error "expected a string, number, or list of those"

let axis_value = function
  | Json.List items ->
    let rec render acc = function
      | [] -> Ok (String.concat "," (List.rev acc))
      | item :: rest -> (
        match value_str item with
        | Ok s -> render (s :: acc) rest
        | Error _ as e -> e)
    in
    render [] items
  | v -> value_str v

let spec_of_members members =
  let rec pairs acc = function
    | [] -> Ok (List.rev acc)
    | ("op", _) :: rest -> pairs acc rest
    | (key, v) :: rest -> (
      match axis_value v with
      | Ok s -> pairs ((key, s) :: acc) rest
      | Error msg -> Error (Printf.sprintf "key %s: %s" key msg))
  in
  Result.bind (pairs [] members) Scenario_spec.parse_kv

let run_head = "{\"schema\":" ^ json_string schema ^ ",\"op\":\"run\",\"status\":\"ok\""

let run_response t spec =
  let rows, stats =
    Matrix.execute ?pool:t.pool ~jobs:t.jobs ~store:t.store spec
  in
  t.requests <- t.requests + 1;
  t.ran <- t.ran + stats.Matrix.ran;
  t.cached <- t.cached + stats.Matrix.cached;
  t.errors <- t.errors + stats.Matrix.errors;
  let size = Array.fold_left (fun n (_, line, _) -> n + String.length line + 1) 128 rows in
  let b = Buffer.create size in
  let count key n =
    Buffer.add_string b key;
    Buffer.add_string b (string_of_int n)
  in
  Buffer.add_string b run_head;
  count ",\"cells\":" stats.Matrix.cells;
  count ",\"ran\":" stats.Matrix.ran;
  count ",\"cached\":" stats.Matrix.cached;
  count ",\"errors\":" stats.Matrix.errors;
  Buffer.add_string b ",\"rows\":[";
  Array.iteri
    (fun i (_, line, _) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b line)
    rows;
  Buffer.add_string b "]}";
  Buffer.contents b

let stats_response t =
  Printf.sprintf
    "{\"schema\":%s,\"op\":\"stats\",\"status\":\"ok\",\"store_rows\":%d,\"requests\":%d,\
     \"ran\":%d,\"cached\":%d,\"errors\":%d,\"jobs\":%d}"
    (json_string schema) (Result_store.size t.store) t.requests t.ran t.cached t.errors
    (match t.pool with Some _ -> t.jobs | None -> Stdlib.max 1 t.jobs)

(* A longer line is refused before it is parsed, which bounds the parse
   and what the store could echo; [serve] never holds more of a line
   than this bound plus one byte. *)
let max_line_bytes = 1 lsl 20

let over_bound bytes =
  error_response
    (Printf.sprintf "request line of %d bytes exceeds the %d-byte bound" bytes max_line_bytes)

let handle_line t line =
  if String.length line > max_line_bytes then (over_bound (String.length line), `Continue)
  else if String.trim line = "" then (error_response "empty request", `Continue)
  else
    match Json.parse line with
    | exception Json.Parse_error msg -> (error_response ("bad request: " ^ msg), `Continue)
    | Json.Object members -> (
      match Json.member "op" (Json.Object members) with
      | Some (Json.String "ping") ->
        ( Printf.sprintf "{\"schema\":%s,\"op\":\"ping\",\"status\":\"ok\"}"
            (json_string schema),
          `Continue )
      | Some (Json.String "stats") -> (stats_response t, `Continue)
      | Some (Json.String "quit") ->
        ( Printf.sprintf "{\"schema\":%s,\"op\":\"quit\",\"status\":\"ok\"}"
            (json_string schema),
          `Quit )
      | Some (Json.String "run") -> (
        match spec_of_members members with
        | Ok spec -> (
          match Matrix.check_request spec with
          | Error msg -> (error_response msg, `Continue)
          | Ok () -> (
            (* Error isolation: even a failure inside the runner (store
               corruption, pool teardown) must answer, not kill serve. *)
            match run_response t spec with
            | response -> (response, `Continue)
            | exception e -> (error_response (Printexc.to_string e), `Continue)))
        | Error msg -> (error_response ("bad spec: " ^ msg), `Continue))
      | Some (Json.String op) -> (error_response ("unknown op: " ^ op), `Continue)
      | Some _ -> (error_response "op must be a string", `Continue)
      | None -> (error_response "missing op", `Continue))
    | _ -> (error_response "request must be a JSON object", `Continue)

(* [serve]'s line reader keeps at most [max_line_bytes + 1] bytes of a
   line.  Each call answers [`Line s] ([s] without its newline; the
   last line may lack one), [`Long bytes] for a longer line, read and
   dropped through its newline, or [`Eof]. *)
let line_reader ic =
  let chunk = Bytes.create 65536 and line = Buffer.create (max_line_bytes + 1) in
  let pos = ref 0 and stop = ref 0 in
  let rec scan len =
    if !pos = !stop then begin
      pos := 0;
      stop := input ic chunk 0 (Bytes.length chunk)
    end;
    if !stop = 0 then if len = 0 then `Eof else finish len
    else begin
      let i = ref !pos in
      while !i < !stop && Bytes.get chunk !i <> '\n' do incr i done;
      let seg = !i - !pos in
      Buffer.add_subbytes line chunk !pos (Int.min seg (max_line_bytes + 1 - Buffer.length line));
      pos := Int.min (!i + 1) !stop;
      if !i < !stop then finish (len + seg) else scan (len + seg)
    end
  and finish len = if len <= max_line_bytes then `Line (Buffer.contents line) else `Long len in
  fun () ->
    Buffer.clear line;
    scan 0

let serve t ic oc =
  let next_line = line_reader ic in
  let rec loop () =
    let reply (response, verdict) =
      output_string oc response;
      output_char oc '\n';
      flush oc;
      match verdict with `Continue -> loop () | `Quit -> ()
    in
    match next_line () with
    | `Eof -> ()
    | `Long bytes -> reply (over_bound bytes, `Continue)
    | `Line line -> reply (handle_line t line)
  in
  loop ()
