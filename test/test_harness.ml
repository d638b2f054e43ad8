(* Tests for the scenario-matrix harness: spec parsing (including chaos
   inputs), grid expansion, the result store's resume contract
   (interrupt + re-run must merge byte-identical), error isolation, and
   the serve protocol. *)

open Amb_harness

(* --- Scenario_spec parsing --- *)

let test_empty_spec_is_default () =
  match Scenario_spec.parse "" with
  | Error msg -> Alcotest.fail msg
  | Ok spec ->
    Alcotest.(check int) "one cell" 1 (Scenario_spec.cell_count spec);
    Alcotest.(check (list int)) "default seed" [ 25 ] spec.Scenario_spec.seeds;
    Alcotest.(check (list int)) "default leaves" [ 30 ] spec.Scenario_spec.leaves

let test_parse_worked_example () =
  let text =
    "# comment\n\
     name = demo\n\
     leaves = 8, 16\n\
     relays = 2\n\
     hours = 12\n\
     policy = min-energy, min-hop\n\
     link = cached, mac:0.25\n\
     diurnal = office\n\
     leaf-budget-j = 0.5\n\
     fault = none, crash:3@2+fade:1-2:20@4\n\
     seeds = 1..3, 10\n"
  in
  match Scenario_spec.parse text with
  | Error msg -> Alcotest.fail msg
  | Ok spec ->
    (* 2 leaves x 2 policies x 2 links x 2 plans x 4 seeds *)
    Alcotest.(check int) "cell count" 64 (Scenario_spec.cell_count spec);
    Alcotest.(check (list int)) "range + single seed" [ 1; 2; 3; 10 ] spec.Scenario_spec.seeds;
    (match spec.Scenario_spec.fault_plans with
    | [ ("none", []); (canon, [ _; _ ]) ] ->
      Alcotest.(check string) "canonical plan text" "crash:3@2+fade:1-2:20@4" canon
    | _ -> Alcotest.fail "expected two fault plans");
    (* The canonical rendering reparses to the same spec. *)
    (match Scenario_spec.parse (String.concat "\n" (Scenario_spec.to_lines spec)) with
    | Error msg -> Alcotest.fail ("roundtrip: " ^ msg)
    | Ok spec' ->
      Alcotest.(check bool) "to_lines roundtrips" true (spec = spec'))

let expect_error name text =
  match Scenario_spec.parse text with
  | Ok _ -> Alcotest.fail (name ^ ": expected a parse error")
  | Error msg -> Alcotest.(check bool) (name ^ " names a line") true (String.length msg > 0)

let test_malformed_specs_rejected () =
  expect_error "unknown key" "leafs = 8\n";
  expect_error "bad int" "leaves = eight\n";
  expect_error "duplicate key" "leaves = 8\nleaves = 9\n";
  expect_error "bad fault" "fault = crash:zero@1\n";
  expect_error "fade self-loop" "fault = fade:2-2:20@1\n";
  expect_error "bad policy" "policy = fastest\n";
  expect_error "bad diurnal" "diurnal = moonlight\n";
  expect_error "missing equals" "leaves 8\n";
  expect_error "negative hours" "hours = -4\n";
  expect_error "over cap" "leaves = 1..400\nseeds = 1..400\n"

let test_duplicate_seeds_dedup () =
  match Scenario_spec.parse "seeds = 5, 5, 3..5, 3\n" with
  | Error msg -> Alcotest.fail msg
  | Ok spec ->
    Alcotest.(check (list int))
      "first occurrence wins" [ 5; 3; 4 ] spec.Scenario_spec.seeds;
    Alcotest.(check int) "one cell per unique seed" 3
      (Array.length (Matrix.expand spec))

let test_zero_cell_grid () =
  match Scenario_spec.parse "seeds = 9..2\n" with
  | Error msg -> Alcotest.fail msg
  | Ok spec ->
    Alcotest.(check int) "inverted range is empty" 0 (Scenario_spec.cell_count spec);
    let store = Result_store.in_memory () in
    let rows, stats = Matrix.execute ~store spec in
    Alcotest.(check int) "no rows" 0 (Array.length rows);
    Alcotest.(check int) "no cells" 0 stats.Matrix.cells

(* Parser chaos: arbitrary documents must yield Ok or Error, never an
   exception — the CLI turns Error into exit 1. *)
let prop_parse_never_raises =
  QCheck.Test.make ~name:"spec parser total on arbitrary text" ~count:300
    QCheck.(small_list (small_list printable_char))
    (fun lines ->
      let text =
        String.concat "\n" (List.map (fun cs -> String.init (List.length cs) (List.nth cs)) lines)
      in
      match Scenario_spec.parse text with Ok _ | Error _ -> true)

(* Near-miss chaos: valid keys with mangled values must all land in
   Error, not raise and not silently parse. *)
let prop_mangled_values_rejected =
  let key_gen =
    QCheck.Gen.oneofl
      [ "leaves"; "relays"; "tags"; "hours"; "policy"; "link"; "diurnal";
        "leaf-budget-j"; "fault"; "seeds" ]
  in
  let bad_value_gen =
    QCheck.Gen.oneofl
      [ "???"; "1..x"; "crash:@"; "fade:1-1:3@2"; "mac:"; "-"; "1,,2"; ".."; "@";
        "nan.5" ]
  in
  QCheck.Test.make ~name:"mangled axis values yield Error" ~count:200
    (QCheck.make QCheck.Gen.(pair key_gen bad_value_gen))
    (fun (key, value) ->
      match Scenario_spec.parse (Printf.sprintf "%s = %s\n" key value) with
      | Error _ -> true
      | Ok _ ->
        (* A few pairs are legal (e.g. name takes anything); only the
           numeric/structured axes must reject. *)
        key = "name")

(* --- Faults at the horizon's edges --- *)

let edge_spec =
  "name = edge\nleaves = 3\nrelays = 1\nhours = 1\n\
   fault = crash:1@0, crash:1@999, fade:0-1:20@0\nseeds = 1\n"

let test_faults_at_horizon_edges () =
  match Scenario_spec.parse edge_spec with
  | Error msg -> Alcotest.fail msg
  | Ok spec ->
    let store = Result_store.in_memory () in
    let rows, stats = Matrix.execute ~store spec in
    Alcotest.(check int) "three cells" 3 (Array.length rows);
    Alcotest.(check int) "t=0 and beyond-horizon faults run clean" 0 stats.Matrix.errors

(* --- Error isolation --- *)

let test_error_row_does_not_abort_batch () =
  (* crash:9@1 names a node the 3+1+sink fleet does not have; that cell
     must yield a structured error row while its siblings complete. *)
  let text =
    "name = iso\nleaves = 3\nrelays = 1\nhours = 1\nfault = none, crash:9@1\nseeds = 1\n"
  in
  let spec = Result.get_ok (Scenario_spec.parse text) in
  let store = Result_store.in_memory () in
  let rows, stats = Matrix.execute ~jobs:2 ~store spec in
  Alcotest.(check int) "both cells completed" 2 (Array.length rows);
  Alcotest.(check int) "one error" 1 stats.Matrix.errors;
  Alcotest.(check int) "both ran" 2 stats.Matrix.ran;
  let statuses =
    Array.to_list rows
    |> List.map (fun (_, line, _) ->
           (Result.get_ok (Result_store.entry_of_line line)).Result_store.status)
  in
  Alcotest.(check (list string)) "ok then error" [ "ok"; "error" ] statuses;
  (* The error row is cached like any other: a re-run recomputes nothing. *)
  let _, again = Matrix.execute ~store spec in
  Alcotest.(check int) "error row cached" 0 again.Matrix.ran;
  Alcotest.(check int) "error still reported" 1 again.Matrix.errors

(* --- Result_store resume contract --- *)

let with_temp_file f =
  let path = Filename.temp_file "amb_store" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let small_grid_spec =
  "name = resume\nleaves = 3\nrelays = 1\nhours = 1\nfault = none, crash:1@0.5\nseeds = 1..3\n"

let run_to_file spec path =
  match Result_store.load path with
  | Error msg -> Alcotest.fail msg
  | Ok store ->
    let _ = Matrix.execute ~store spec in
    Result_store.close store;
    In_channel.with_open_bin path In_channel.input_all

let test_resume_merges_byte_identical () =
  let spec = Result.get_ok (Scenario_spec.parse small_grid_spec) in
  let fresh = with_temp_file (fun path -> run_to_file spec path) in
  Alcotest.(check bool) "fresh run wrote rows" true (String.length fresh > 0);
  let lines = String.split_on_char '\n' fresh |> List.filter (fun l -> l <> "") in
  let n = List.length lines in
  Alcotest.(check int) "six cells" 6 n;
  (* Interrupt after k completed cells, for every k: the prefix is what
     an interrupted run leaves behind; re-running must append exactly
     the missing suffix. *)
  for k = 0 to n - 1 do
    let merged =
      with_temp_file (fun path ->
          let oc = open_out_bin path in
          List.iteri (fun i l -> if i < k then (output_string oc l; output_char oc '\n')) lines;
          output_string oc "{\"torn";  (* a torn append cut mid-line *)
          close_out oc;
          run_to_file spec path)
    in
    Alcotest.(check string) (Printf.sprintf "resume after %d cells" k) fresh merged
  done

let prop_resume_byte_identity =
  (* The same contract as a property: random split point, random seed
     count, with and without a torn tail. *)
  QCheck.Test.make ~name:"resume-vs-fresh byte identity" ~count:6
    QCheck.(make Gen.(triple (1 -- 4) (0 -- 4) bool))
    (fun (seeds, cut, torn) ->
      let text =
        Printf.sprintf "name = p\nleaves = 3\nrelays = 1\nhours = 1\nseeds = 1..%d\n" seeds
      in
      let spec = Result.get_ok (Scenario_spec.parse text) in
      let fresh = with_temp_file (fun path -> run_to_file spec path) in
      let lines = String.split_on_char '\n' fresh |> List.filter (fun l -> l <> "") in
      let cut = min cut (List.length lines) in
      let merged =
        with_temp_file (fun path ->
            let oc = open_out_bin path in
            List.iteri
              (fun i l -> if i < cut then (output_string oc l; output_char oc '\n'))
              lines;
            if torn then output_string oc "{\"schema\":\"amblib-matr";
            close_out oc;
            run_to_file spec path)
      in
      merged = fresh)

let test_store_rejects_corruption () =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      output_string oc "{\"schema\":\"other/1\",\"config\":\"x\",\"seed\":1,\"status\":\"ok\"}\n";
      close_out oc;
      match Result_store.load path with
      | Ok _ -> Alcotest.fail "foreign schema accepted"
      | Error msg ->
        Alcotest.(check bool) "names the line" true
          (String.length msg > 0))

let test_store_rejects_duplicate_key () =
  let store = Result_store.in_memory () in
  let row =
    "{\"schema\":\"amblib-matrix-row/1\",\"config\":\"abc\",\"seed\":7,\"status\":\"ok\"}"
  in
  Result_store.append store row;
  Alcotest.(check bool) "found" true (Result_store.mem store ~config:"abc" ~seed:7);
  match Result_store.append store row with
  | () -> Alcotest.fail "duplicate accepted"
  | exception Invalid_argument _ -> ()

(* --- Matrix determinism --- *)

let test_matrix_rows_jobs_independent () =
  let spec = Result.get_ok (Scenario_spec.parse small_grid_spec) in
  let run jobs =
    let store = Result_store.in_memory () in
    let _ = Matrix.execute ~jobs ~store spec in
    Result_store.contents store
  in
  let sequential = run 1 in
  Alcotest.(check string) "jobs=4 bitwise equal" sequential (run 4)

(* --- Serve protocol --- *)

let serve_session () = Serve.create ~store:(Result_store.in_memory ()) ()

let member name json = Amb_report.Report_io.Json.member name json

let int_member name line =
  match member name (Amb_report.Report_io.Json.parse line) with
  | Some (Amb_report.Report_io.Json.Number v) -> int_of_float v
  | _ -> Alcotest.fail (Printf.sprintf "missing %s in %s" name line)

let string_member name line =
  match member name (Amb_report.Report_io.Json.parse line) with
  | Some (Amb_report.Report_io.Json.String s) -> s
  | _ -> Alcotest.fail (Printf.sprintf "missing %s in %s" name line)

let test_serve_caches_repeat_requests () =
  let t = serve_session () in
  let request =
    "{\"op\":\"run\",\"name\":\"s\",\"leaves\":3,\"relays\":1,\"hours\":1,\"seeds\":[1,2]}"
  in
  let first, verdict = Serve.handle_line t request in
  Alcotest.(check bool) "continues" true (verdict = `Continue);
  Alcotest.(check string) "ok" "ok" (string_member "status" first);
  Alcotest.(check int) "first pass runs" 2 (int_member "ran" first);
  let second, _ = Serve.handle_line t request in
  Alcotest.(check int) "repeat is all cache" 0 (int_member "ran" second);
  Alcotest.(check int) "served from store" 2 (int_member "cached" second)

let test_serve_survives_bad_input () =
  let t = serve_session () in
  let expect_error input =
    let response, verdict = Serve.handle_line t input in
    Alcotest.(check bool) (input ^ " continues") true (verdict = `Continue);
    Alcotest.(check string) (input ^ " errors") "error" (string_member "status" response)
  in
  expect_error "not json";
  expect_error "[1,2]";
  expect_error "{\"op\":\"unknown\"}";
  expect_error "{\"op\":42}";
  expect_error "{\"leaves\":3}";
  expect_error "{\"op\":\"run\",\"leaves\":\"many\"}";
  expect_error "{\"op\":\"run\",\"fault\":\"crash:x@y\"}";
  (* A well-formed request for an unbounded run is answered at once: its
     one cell costs 5e9 node-hours, over [Matrix.max_cost_node_hours],
     and comes back as an error row instead of a run that never ends. *)
  let huge = "{\"op\":\"run\",\"leaves\":3,\"relays\":1,\"hours\":1e9}" in
  let response, verdict = Serve.handle_line t huge in
  Alcotest.(check bool) "unbounded run continues" true (verdict = `Continue);
  Alcotest.(check int) "unbounded run: one cell" 1 (int_member "cells" response);
  Alcotest.(check int) "unbounded run: an error row" 1 (int_member "errors" response);
  (* After all that abuse the session still answers. *)
  let pong, verdict = Serve.handle_line t "{\"op\":\"ping\"}" in
  Alcotest.(check string) "ping ok" "ok" (string_member "status" pong);
  Alcotest.(check bool) "still alive" true (verdict = `Continue);
  let _, quit = Serve.handle_line t "{\"op\":\"quit\"}" in
  Alcotest.(check bool) "quit stops" true (quit = `Quit)

let test_serve_isolates_error_cells () =
  let t = serve_session () in
  let request =
    "{\"op\":\"run\",\"leaves\":3,\"relays\":1,\"hours\":1,\
     \"fault\":[\"none\",\"crash:9@1\"],\"seeds\":1}"
  in
  let response, verdict = Serve.handle_line t request in
  Alcotest.(check bool) "continues" true (verdict = `Continue);
  Alcotest.(check string) "request succeeds" "ok" (string_member "status" response);
  Alcotest.(check int) "error row counted" 1 (int_member "errors" response);
  Alcotest.(check int) "both cells answered" 2 (int_member "cells" response)

let suite =
  [ ("empty spec is the default grid", `Quick, test_empty_spec_is_default);
    ("worked example parses and roundtrips", `Quick, test_parse_worked_example);
    ("malformed specs rejected", `Quick, test_malformed_specs_rejected);
    ("duplicate seeds dedup to one cell", `Quick, test_duplicate_seeds_dedup);
    ("inverted range is a legal zero-cell grid", `Quick, test_zero_cell_grid);
    QCheck_alcotest.to_alcotest prop_parse_never_raises;
    QCheck_alcotest.to_alcotest prop_mangled_values_rejected;
    ("faults at t=0 and beyond the horizon", `Quick, test_faults_at_horizon_edges);
    ("error row isolates a poisoned cell", `Quick, test_error_row_does_not_abort_batch);
    ("resume merges byte-identical", `Slow, test_resume_merges_byte_identical);
    QCheck_alcotest.to_alcotest prop_resume_byte_identity;
    ("store rejects foreign rows", `Quick, test_store_rejects_corruption);
    ("store rejects duplicate keys", `Quick, test_store_rejects_duplicate_key);
    ("matrix rows jobs-independent", `Quick, test_matrix_rows_jobs_independent);
    ("serve answers repeats from cache", `Quick, test_serve_caches_repeat_requests);
    ("serve survives hostile input", `Quick, test_serve_survives_bad_input);
    ("serve isolates error cells", `Quick, test_serve_isolates_error_cells);
  ]
