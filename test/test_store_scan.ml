(* The result store's row scan against the tree-based reader it
   replaced ([Store_reference]): every row must give the same entry or
   the same error text, and every store file the same load, error text
   and repaired file. *)

module Result_store = Amb_harness.Result_store
module Json = Amb_report.Report_io.Json

let same_entry line =
  match (Result_store.entry_of_line line, Store_reference.entry_of_line line) with
  | Ok e, Ok e' -> e = e' || QCheck.Test.fail_reportf "entries differ: %s <> %s" e.key e'.key
  | Error m, Error m' -> String.equal m m' || QCheck.Test.fail_reportf "%s <> %s" m m'
  | Ok e, Error m -> QCheck.Test.fail_reportf "only the oracle refuses (%s): %s" e.key m
  | Error m, Ok e -> QCheck.Test.fail_reportf "only the scan refuses (%s): %s" e.key m

let find_from s i sub =
  let n = String.length s and k = String.length sub in
  let rec find i = if i + k > n then None else if String.sub s i k = sub then Some i else find (i + 1) in
  find i

(* [s] with its first [sub] replaced by [by]. *)
let replace_first s ~sub ~by =
  match find_from s 0 sub with
  | None -> s
  | Some i ->
    let k = String.length sub in
    String.sub s 0 i ^ by ^ String.sub s (i + k) (String.length s - i - k)

(* [piece] inserted at [i], clamped to [s]'s bounds (a mutated row may
   be short or empty). *)
let insert s i piece =
  let i = Int.max 0 (Int.min i (String.length s)) in
  String.sub s 0 i ^ piece ^ String.sub s i (String.length s - i)

(* [row] with the value of its first seed member (up to the next comma)
   replaced by [v]. *)
let with_seed row v =
  match find_from row 0 "\"seed\":" with
  | None -> row
  | Some i -> (
    let start = i + 7 in
    match String.index_from_opt row start ',' with
    | None -> row
    | Some stop -> String.sub row 0 start ^ v ^ String.sub row stop (String.length row - stop))

let nest k = String.make k '[' ^ String.make k ']'
let nest_objects k = String.concat "" (List.init k (fun _ -> "{\"a\":")) ^ "1" ^ String.make k '}'

(* One mutation of a real row: byte edits and truncations, inserted
   whitespace, repeated members, escaped keys and values, odd seeds,
   nesting around the depth bound, and non-UTF-8 bytes. *)
let mutation row =
  let open QCheck.Gen in
  let n = String.length row in
  let after_brace piece = return (insert row 1 piece) in
  let before_brace piece = return (insert row (n - 1) piece) in
  oneof
    [ Test_report_io.gen_mutated_row;
      ( list_size (int_range 1 4) (pair (int_bound n) (oneofl [ " "; "\t"; "\r"; "\n"; " \t\r " ]))
      >|= fun cuts ->
        List.fold_left (fun s (i, w) -> insert s i w) row
          (List.sort (fun (a, _) (b, _) -> compare b a) cuts) );
      oneofl
        [ "\"seed\":5,"; "\"status\":\"error\","; "\"schema\":\"other/1\","; "\"config\":\"zz\",";
          "\"seed\":\"5\","; "\"s\\u0065ed\":6,"; "\"config\\b\":\"yy\"," ]
      >>= after_brace;
      oneofl [ ",\"seed\":5"; ",\"status\":\"error\""; ",\"schema\":7"; ",\"seed\":1.5" ]
      >>= before_brace;
      oneofl
        [ ("\"seed\"", "\"s\\u0065ed\""); ("\"seed\"", "\"seed\\f\""); ("\"seed\"", "\"se\\u00e9d\"");
          ("\"config\"", "\"con\\u0066ig\""); ("\"status\"", "\"st\\/atus\"");
          ("\"status\":\"", "\"status\":\"\\u006fk"); ("\"schema\"", "\"sch\\u0065ma\"");
          ("amblib-matrix-row/1", "amblib-matrix-row\\/1"); ("amblib-matrix-row/1", "amblib-matrix-row/\\u0031");
          ("\"config\":\"", "\"config\":\"\\n\\t\\\"") ]
      >|= (fun (sub, by) -> replace_first row ~sub ~by);
      oneofl
        [ "-0"; "1e3"; "1.5"; "1e999"; "-1e999"; "\"7\""; "-1"; "+5"; "1E3"; "0.0"; "-0.0e5"; "1e-999";
          "4611686018427387904"; "9007199254740993"; "1e300"; "null"; "[1]"; "{}"; "true"; "07";
          ".5e1"; "5."; "1e"; "--1"; "1_0" ]
      >|= with_seed row;
      ( oneofl [ Json.max_depth - 2; Json.max_depth - 1; Json.max_depth ] >>= fun k ->
        oneofl [ nest k; nest_objects k ] >>= fun deep ->
        oneof [ after_brace ("\"deep\":" ^ deep ^ ","); before_brace (",\"deep\":" ^ deep) ] );
      ( list_size (int_range 1 3) (pair (int_bound n) (oneofl [ "\xff"; "\xc3"; "\x80"; "\xc3\xa9"; "\xfe\xff" ]))
      >|= fun cuts ->
        List.fold_left (fun s (i, b) -> insert s i b) row
          (List.sort (fun (a, _) (b, _) -> compare b a) cuts) ) ]

let gen_row =
  let open QCheck.Gen in
  oneofl (Array.to_list Test_report_io.store_rows) >>= fun row ->
  mutation row >>= fun once ->
  frequency [ (3, return once); (1, mutation once) ]

let prop_rows_agree =
  QCheck.Test.make ~name:"row scan equals the tree reader on mutated rows" ~count:5000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_row)
    same_entry

(* Every run of [0-9+-.eE] up to five bytes, as the seed and as the
   value of a member the store ignores: the scan's accept set is the
   reader's, and so are entries and error texts. *)
let test_every_short_lexeme () =
  let alphabet = "0123456789+-.eE" in
  let key_members = "\"schema\":\"amblib-matrix-row/1\",\"config\":\"c\"" in
  let row_with_seed v = "{" ^ key_members ^ ",\"seed\":" ^ v ^ ",\"status\":\"ok\"}" in
  let row_with_extra v = "{\"x\":" ^ v ^ "," ^ key_members ^ ",\"seed\":1,\"status\":\"ok\"}" in
  let checked = ref 0 in
  let rec lexemes prefix len =
    if len >= 0 then begin
      incr checked;
      let parses = match Json.parse prefix with _ -> true | exception Json.Parse_error _ -> false in
      let scans =
        match Json.member_spans prefix 0 (String.length prefix) [||] with
        | _ -> true
        | exception Json.Parse_error _ -> false
      in
      if parses <> scans then Alcotest.failf "%S: reader %b, scan %b" prefix parses scans;
      (try ignore (same_entry (row_with_seed prefix) && same_entry (row_with_extra prefix))
       with QCheck.Test.Test_fail (_, msgs) -> Alcotest.failf "%S: %s" prefix (String.concat "; " msgs));
      if len > 0 then String.iter (fun c -> lexemes (prefix ^ String.make 1 c) (len - 1)) alphabet
    end
  in
  lexemes "" 5;
  Alcotest.(check int) "lexemes checked" (1 + 15 + 225 + 3375 + 50625 + 759375) !checked

(* --- whole-store loads ------------------------------------------------- *)

let with_temp_dir f =
  let dir = Filename.temp_dir "amb_store_scan" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let read path = In_channel.with_open_bin path In_channel.input_all

(* [load] on a file holding [contents] against the oracle: the same
   entries in file order or the same error text; a good load leaves the
   file cut back to its last newline, a failed one leaves it as it was,
   and nothing else appears in the directory. *)
let load_agrees contents =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "store.jsonl" in
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      let loaded = Result_store.load path in
      let on_disk = read path in
      let listing = Sys.readdir dir in
      if listing <> [| "store.jsonl" |] then
        QCheck.Test.fail_reportf "directory holds %s" (String.concat " " (Array.to_list listing));
      match (loaded, Store_reference.load ~path contents) with
      | Ok t, Ok (entries, valid_len) ->
        Result_store.close t;
        Result_store.entries t = entries
        && Result_store.size t = List.length entries
        && String.equal on_disk (String.sub contents 0 valid_len)
        || QCheck.Test.fail_reportf "loads differ"
      | Error m, Error m' ->
        (String.equal m m' || QCheck.Test.fail_reportf "%s <> %s" m m')
        && (String.equal on_disk contents || QCheck.Test.fail_reportf "a failed load wrote the file")
      | Ok _, Error m -> QCheck.Test.fail_reportf "only the oracle refuses: %s" m
      | Error m, Ok _ -> QCheck.Test.fail_reportf "only the scan refuses: %s" m)

let row seed = with_seed Test_report_io.store_rows.(seed mod 2) (string_of_int seed)

let test_store_cases () =
  let rows k = String.concat "" (List.init k (fun i -> row i ^ "\n")) in
  let garbled = replace_first (row 7) ~sub:"\"config\"" ~by:"\"config" in
  List.iter
    (fun (name, contents) ->
      match load_agrees contents with
      | true -> ()
      | false -> Alcotest.failf "%s: loads differ" name
      | exception QCheck.Test.Test_fail (_, msgs) -> Alcotest.failf "%s: %s" name (String.concat "; " msgs))
    [ ("empty", "");
      ("rows", rows 4);
      ("blank lines", "\n\n" ^ row 1 ^ "\n  \n\t\r\n\012\n" ^ row 2 ^ "\n\n");
      ("trailing spaces", row 1 ^ "   \n" ^ row 2 ^ " \t\r\n");
      ("garbled middle line", rows 3 ^ garbled ^ "\n" ^ row 9 ^ "\n");
      ("duplicate key", rows 3 ^ row 1 ^ "\n");
      ("duplicate after a garbled line", rows 2 ^ garbled ^ "\n" ^ row 0 ^ "\n");
      ("torn tail", rows 3 ^ "{\"schema\":\"amblib-matr");
      ("torn tail only", "{\"schema\":\"amblib-matr");
      ("torn row", rows 2 ^ row 5);
      ("no newline at all", row 5);
      ("nested too deep", row 1 ^ "\n" ^ String.make 100_000 '[' ^ "\n");
      ("fractional seed", with_seed (row 1) "1.5" ^ "\n") ]

(* Random files from good rows, blank and space-only lines, garbled and
   repeated rows, and sometimes a torn tail. *)
let gen_store =
  let open QCheck.Gen in
  let line =
    frequency
      [ (6, map (fun s -> row s ^ "\n") (int_bound 40));
        (1, oneofl [ "\n"; "  \n"; "\t\r\n"; "\012\n" ]);
        (1, map (fun r -> String.concat " " (String.split_on_char '\n' r) ^ "\n") gen_row);
        (1, map (fun s -> row s ^ "  \n") (int_bound 40)) ]
  in
  list_size (int_bound 12) line >>= fun lines ->
  oneofl [ ""; ""; "{\"schema\":\"amblib-matr"; "{"; "   " ] >|= fun tail ->
  String.concat "" lines ^ tail

let prop_loads_agree =
  QCheck.Test.make ~name:"store load equals the tree-reader load" ~count:300
    (QCheck.make ~print:(Printf.sprintf "%S") gen_store)
    load_agrees

(* The torn-tail repair cuts the file in place: the repaired file is
   the complete-row prefix byte for byte, a second load leaves it as it
   is, and no temporary file is left beside it. *)
let test_torn_tail_repair () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "store.jsonl" in
      let prefix = row 1 ^ "\n" ^ row 2 ^ "\n" in
      Out_channel.with_open_bin path (fun oc -> output_string oc (prefix ^ "{\"schema\":\"amblib-matr"));
      let load () =
        match Result_store.load path with
        | Ok t ->
          Result_store.close t;
          Result_store.size t
        | Error m -> Alcotest.fail m
      in
      Alcotest.(check int) "rows kept" 2 (load ());
      Alcotest.(check string) "cut back to the prefix" prefix (read path);
      let before = Unix.stat path in
      Alcotest.(check int) "rows on reload" 2 (load ());
      let after = Unix.stat path in
      Alcotest.(check string) "second load leaves it" prefix (read path);
      Alcotest.(check (float 0.0)) "not rewritten" before.Unix.st_mtime after.Unix.st_mtime;
      Alcotest.(check (array string)) "no other file" [| "store.jsonl" |] (Sys.readdir dir))

let suite =
  [ QCheck_alcotest.to_alcotest prop_rows_agree;
    Alcotest.test_case "every lexeme up to five bytes" `Quick test_every_short_lexeme;
    Alcotest.test_case "store loads equal the oracle's" `Quick test_store_cases;
    QCheck_alcotest.to_alcotest prop_loads_agree;
    Alcotest.test_case "torn tail is cut in place" `Quick test_torn_tail_repair;
  ]
