(** Append-only JSONL result store keyed by [(config digest, seed)] (see
    .mli for the resumability contract).

    Every row is one line.  A load checks each line in place with
    {!Amb_report.Report_io.Json.member_spans}, which accepts exactly what
    the JSON reader accepts and builds no value, decodes only the four
    key members, and copies only the rows it keeps.  A missing trailing
    newline marks a torn write (the process died mid-append): the torn
    tail is dropped and the file cut in place back to the last complete
    row, so the next run appends exactly where the interrupted one left
    off and the merged store is byte-identical to an uninterrupted run. *)

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

let make_key ~config ~seed = config ^ ":" ^ string_of_int seed

let row_keys = [| "schema"; "config"; "seed"; "status" |]

(* Key member [k] of a row whose spans [member_spans] answered; [Null]
   when absent, which no row accepts either. *)
let row_member s spans k =
  let lo = spans.(2 * k) in
  if lo < 0 then Json.Null else Json.parse_span s lo spans.((2 * k) + 1)

(* The row [s.[lo..hi-1]] -> entry; rows from other schemas or missing
   fields are corruption, not data. *)
let entry_in s lo hi =
  match Json.member_spans s lo hi row_keys with
  | exception Json.Parse_error msg -> Error ("bad row: " ^ msg)
  | spans -> (
    match
      (row_member s spans 0, row_member s spans 1, row_member s spans 2, row_member s spans 3)
    with
    | Json.String schema, Json.String config, Json.Number seed, Json.String status
      when schema = row_schema && Float.is_integer seed ->
      let line = if lo = 0 && hi = String.length s then s else String.sub s lo (hi - lo) in
      Ok { key = make_key ~config ~seed:(int_of_float seed); status; line }
    | _ -> Error "bad row: not an amblib-matrix-row/1 object")

let entry_of_line line = entry_in line 0 (String.length line)

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
  Hashtbl.add t.index entry.key entry

(* The bytes [String.trim] strips: a line of only these is blank. *)
let rec blank s i stop =
  i = stop
  || (match String.unsafe_get s i with ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false)
     && blank s (i + 1) stop

(* The first '\n' in [s.[i..n-1]], or [n].  Eight bytes at a time: a
   word holds a newline when [x = w xor 0x0a..0a] has a zero byte, which
   [(x - 0x01..01) land (lnot x) land 0x80..80] flags; a flagged word is
   then searched byte by byte, from its first byte. *)
let rec newline_from s i n =
  if i + 8 <= n then
    let x = Int64.logxor (String.get_int64_ne s i) 0x0a0a0a0a0a0a0a0aL in
    let zero_byte =
      Int64.logand (Int64.logand (Int64.sub x 0x0101010101010101L) (Int64.lognot x))
        0x8080808080808080L
    in
    if Int64.equal zero_byte 0L then newline_from s (i + 8) n else newline_byte s i n
  else newline_byte s i n

and newline_byte s i n =
  if i = n || String.unsafe_get s i = '\n' then i else newline_byte s (i + 1) n

let load path =
  match read_file path with
  | None -> Ok (create (Some path))
  | Some contents ->
    (* Complete rows end in '\n'; anything after the last newline is a
       torn append and is cut away below. *)
    let valid_len =
      match String.rindex_opt contents '\n' with Some i -> i + 1 | None -> 0
    in
    let t = create (Some path) in
    (* [lineno] is the 1-based file line starting at [start], blank
       lines included, so an error names the line an editor shows. *)
    let rec index_lines start lineno =
      if start >= valid_len then Ok ()
      else
        let stop = newline_from contents start valid_len in
        if blank contents start stop then index_lines (stop + 1) (lineno + 1)
        else
          match entry_in contents start stop with
          | Error msg -> Error (Printf.sprintf "%s: line %d: %s" path lineno msg)
          | Ok entry ->
            if Hashtbl.mem t.index entry.key then
              Error (Printf.sprintf "%s: line %d: duplicate key %s" path lineno entry.key)
            else begin
              add_entry t entry;
              index_lines (stop + 1) (lineno + 1)
            end
    in
    Result.bind (index_lines 0 1) (fun () ->
        if valid_len = String.length contents then Ok t
        else
          (* Cut the torn tail in place: every complete row stays on disk
             throughout, and a resumed run's appends continue the
             byte-identical row stream. *)
          match Unix.truncate path valid_len with
          | () -> Ok t
          | exception Unix.Unix_error (e, _, _) ->
            Error (Printf.sprintf "%s: cannot cut the torn tail: %s" path (Unix.error_message e)))

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
