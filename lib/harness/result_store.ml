(** Append-only JSONL result store keyed by [(config digest, seed)] (see
    .mli for the resumability contract).

    Every row is one line; a load validates each line through the
    {!Amb_report.Report_io.Json} reader and indexes its key.  A missing
    trailing newline marks a torn write (the process died mid-append):
    the torn tail is dropped and the file truncated back to the last
    complete row, so the next run appends exactly where the interrupted
    one left off and the merged store is byte-identical to an
    uninterrupted run. *)

module Json = Amb_report.Report_io.Json

type entry = { key : string; status : string; line : string }

type t = {
  path : string option;
  mutable rev_order : entry list;  (** newest first; {!entries} reverses *)
  mutable count : int;
  index : (string, entry) Hashtbl.t;
  mutable oc : out_channel option;
}

let row_schema = "amblib-matrix-row/1"

let make_key ~config ~seed = Printf.sprintf "%s:%d" config seed

(* One store line -> entry; rows from other schemas or missing fields
   are corruption, not data. *)
let entry_of_line line =
  match Json.parse line with
  | exception Json.Parse_error msg -> Error ("bad row: " ^ msg)
  | json -> (
    match
      ( Json.member "schema" json,
        Json.member "config" json,
        Json.member "seed" json,
        Json.member "status" json )
    with
    | Some (Json.String schema), Some (Json.String config), Some (Json.Number seed),
      Some (Json.String status)
      when schema = row_schema && Float.is_integer seed ->
      Ok { key = make_key ~config ~seed:(int_of_float seed); status; line }
    | _ -> Error "bad row: not an amblib-matrix-row/1 object"
  )

let create path =
  { path; rev_order = []; count = 0; index = Hashtbl.create 64; oc = None }

let in_memory () = create None

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let len = in_channel_length ic in
    let contents = really_input_string ic len in
    close_in ic;
    Some contents

let add_entry t entry =
  t.rev_order <- entry :: t.rev_order;
  t.count <- t.count + 1;
  Hashtbl.replace t.index entry.key entry

let load path =
  let t = create (Some path) in
  match read_file path with
  | None -> Ok t
  | Some contents ->
    let n = String.length contents in
    (* Complete rows end in '\n'; anything after the last newline is a
       torn append and is dropped (the file is truncated below). *)
    let valid_len =
      match String.rindex_opt contents '\n' with Some i -> i + 1 | None -> 0
    in
    (* [lineno] is the 1-based file line starting at [start], blank
       lines included, so an error names the line an editor shows. *)
    let rec index_lines start lineno =
      if start >= valid_len then Ok ()
      else
        let stop = String.index_from contents start '\n' in
        let line = String.sub contents start (stop - start) in
        if String.trim line = "" then index_lines (stop + 1) (lineno + 1)
        else (
          match entry_of_line line with
          | Error msg -> Error (Printf.sprintf "%s: line %d: %s" path lineno msg)
          | Ok entry ->
            if Hashtbl.mem t.index entry.key then
              Error (Printf.sprintf "%s: line %d: duplicate key %s" path lineno entry.key)
            else begin
              add_entry t entry;
              index_lines (stop + 1) (lineno + 1)
            end)
    in
    Result.map
      (fun () ->
        if valid_len < n then begin
          (* Truncate the torn tail so a resumed run's appends continue
             the byte-identical row stream. *)
          let oc = open_out_bin path in
          output_string oc (String.sub contents 0 valid_len);
          close_out oc
        end;
        t)
      (index_lines 0 1)

let mem t ~config ~seed = Hashtbl.mem t.index (make_key ~config ~seed)

let find_entry t ~config ~seed = Hashtbl.find_opt t.index (make_key ~config ~seed)

let find t ~config ~seed = Option.map (fun e -> e.line) (find_entry t ~config ~seed)

let size t = t.count

let entries t = List.rev t.rev_order

let ensure_out t =
  match (t.oc, t.path) with
  | Some oc, _ -> Some oc
  | None, None -> None
  | None, Some path ->
    let oc = open_out_gen [ Open_wronly; Open_creat; Open_append; Open_binary ] 0o644 path in
    t.oc <- Some oc;
    Some oc

let append_entry t line =
  match entry_of_line line with
  | Error msg -> invalid_arg ("Result_store.append: " ^ msg)
  | Ok entry ->
    if Hashtbl.mem t.index entry.key then
      invalid_arg ("Result_store.append: duplicate key " ^ entry.key);
    add_entry t entry;
    (match ensure_out t with
    | None -> ()
    | Some oc ->
      output_string oc line;
      output_char oc '\n';
      flush oc);
    entry

let append t line = ignore (append_entry t line : entry)

let close t =
  match t.oc with
  | None -> ()
  | Some oc ->
    close_out oc;
    t.oc <- None

let contents t =
  let b = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string b e.line;
      Buffer.add_char b '\n')
    (entries t);
  Buffer.contents b
