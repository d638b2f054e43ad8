(* The tree-based row reader that [Result_store] replaced, kept as the
   differential oracle: each line is read into a whole [Json.t] and the
   four key members are looked up in it.  [Result_store.entry_of_line]
   and [Result_store.load] must answer what these answer, error text
   included. *)

module Json = Amb_report.Report_io.Json
module Result_store = Amb_harness.Result_store

let entry_of_line line : (Result_store.entry, string) result =
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
      when schema = Result_store.row_schema && Float.is_integer seed ->
      let key = Printf.sprintf "%s:%d" config (int_of_float seed) in
      Ok { Result_store.key; status; line }
    | _ -> Error "bad row: not an amblib-matrix-row/1 object")

(* What loading a file of [contents] named [path] gave: the entries in
   file order and the length of the prefix the file is cut back to, or
   the error text.  The file itself is not touched. *)
let load ~path contents : (Result_store.entry list * int, string) result =
  let valid_len =
    match String.rindex_opt contents '\n' with Some i -> i + 1 | None -> 0
  in
  let keys = Hashtbl.create 64 in
  let rec index_lines start lineno acc =
    if start >= valid_len then Ok (List.rev acc, valid_len)
    else
      let stop = String.index_from contents start '\n' in
      let line = String.sub contents start (stop - start) in
      if String.trim line = "" then index_lines (stop + 1) (lineno + 1) acc
      else
        match entry_of_line line with
        | Error msg -> Error (Printf.sprintf "%s: line %d: %s" path lineno msg)
        | Ok entry ->
          if Hashtbl.mem keys entry.Result_store.key then
            Error
              (Printf.sprintf "%s: line %d: duplicate key %s" path lineno entry.Result_store.key)
          else begin
            Hashtbl.replace keys entry.Result_store.key ();
            index_lines (stop + 1) (lineno + 1) (entry :: acc)
          end
  in
  index_lines 0 1 []
