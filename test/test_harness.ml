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
  expect_error "over cap" "leaves = 1..400\nseeds = 1..400\n";
  expect_error "oversized name" ("name = " ^ String.make 257 'n' ^ "\n");
  expect_error "oversized fault item" ("fault = none, crash:1@" ^ String.make 300 '1' ^ "\n");
  expect_error "oversized seed item" ("seeds = " ^ String.make 257 '1' ^ "\n");
  (* The bound is inclusive and counts the trimmed item. *)
  match Scenario_spec.parse ("name = " ^ String.make 256 'n' ^ "   \n") with
  | Ok spec -> Alcotest.(check int) "256-byte name" 256 (String.length spec.Scenario_spec.name)
  | Error msg -> Alcotest.fail msg

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

(* A garbled row after blank lines is reported at its own file line
   (not at one past the rows loaded so far), and a failed load writes
   nothing: not even the torn tail a good load would truncate. *)
let test_store_error_names_file_line () =
  with_temp_file (fun path ->
      let row seed =
        Printf.sprintf
          "{\"schema\":\"amblib-matrix-row/1\",\"config\":\"abc\",\"seed\":%d,\"status\":\"ok\"}\n"
          seed
      in
      let garbled = "{\"schema\":\"amblib-matrix-row/1\",\"conf\n" in
      (* lines: 1-2 blank, 3 a row, 4 blank, 5 a row, 6 blanks only,
         7 garbled, 8-9 rows, then a torn tail *)
      let contents =
        "\n\n" ^ row 1 ^ "\n" ^ row 2 ^ "  \n" ^ garbled ^ row 3 ^ row 4 ^ "{\"torn"
      in
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      (match Result_store.load path with
      | Ok _ -> Alcotest.fail "garbled row accepted"
      | Error msg ->
        let expected = Printf.sprintf "%s: line 7: " path in
        Alcotest.(check string) "names file line 7" expected
          (String.sub msg 0 (Stdlib.min (String.length msg) (String.length expected))));
      Alcotest.(check string) "file untouched" contents
        (In_channel.with_open_bin path In_channel.input_all))

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

(* [append_entry] and [find_entry] answer with the entry the store
   validated, so [Matrix.execute] reads a row's status without parsing
   the line a second time. *)
let test_store_hands_back_entries () =
  let store = Result_store.in_memory () in
  let row status =
    Printf.sprintf
      "{\"schema\":\"amblib-matrix-row/1\",\"config\":\"c-%s\",\"seed\":3,\"status\":\"%s\"}"
      status status
  in
  List.iter
    (fun status ->
      let line = row status in
      let e = Result_store.append_entry store line in
      Alcotest.(check string) "appended status" status e.Result_store.status;
      Alcotest.(check string) "appended line" line e.Result_store.line;
      match Result_store.find_entry store ~config:("c-" ^ status) ~seed:3 with
      | Some f -> Alcotest.(check bool) "found the same entry" true (f = e)
      | None -> Alcotest.fail "appended entry not found")
    [ "ok"; "error" ];
  Alcotest.(check bool) "absent key" true
    (Result_store.find_entry store ~config:"c-ok" ~seed:4 = None)

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
  (* Hostile sizes: 10^6 nested brackets (the char-by-char reader took
     1.6 s on them, and time grew faster than the depth), a line one byte
     over the bound, and a name the store would have echoed verbatim. *)
  let expect_error_saying message input =
    let response, verdict = Serve.handle_line t input in
    Alcotest.(check bool) (message ^ ": continues") true (verdict = `Continue);
    Alcotest.(check string) (message ^ ": status") "error" (string_member "status" response);
    Alcotest.(check string) "error text" message (string_member "error" response)
  in
  expect_error_saying "bad request: nesting deeper than 512 at offset 512"
    (String.make 1_000_000 '[');
  let ping_of_length k = "{\"op\":\"ping\",\"pad\":\"" ^ String.make (k - 22) ' ' ^ "\"}" in
  Alcotest.(check string) "a line at the bound is read" "ok"
    (string_member "status" (fst (Serve.handle_line t (ping_of_length Serve.max_line_bytes))));
  expect_error_saying
    (Printf.sprintf "request line of %d bytes exceeds the %d-byte bound"
       (Serve.max_line_bytes + 1) Serve.max_line_bytes)
    (ping_of_length (Serve.max_line_bytes + 1));
  expect_error_saying "bad spec: name: a value of 300 bytes exceeds the 256-byte bound"
    ("{\"op\":\"run\",\"name\":\"" ^ String.make 300 'n' ^ "\"}");
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

(* The stdin loop never holds an over-long line: a 3 MiB line (from a
   file, as from a pipe) is answered with the over-bound error while the
   session allocates about the reader's 1 MiB buffer, not the line; the
   next request is read from just past its newline, and a last line
   without a newline is still answered. *)
let test_serve_reads_bounded_lines () =
  let t = serve_session () in
  let long = 3 * 1024 * 1024 in
  let input = Filename.temp_file "serve" ".in" and output = Filename.temp_file "serve" ".out" in
  Out_channel.with_open_bin input (fun oc ->
      output_string oc ("{\"op\":\"ping\",\"pad\":\"" ^ String.make (long - 22) ' ' ^ "\"}\n");
      output_string oc "{\"op\":\"ping\"}\n{\"op\":\"stats\"}");
  let allocated = Gc.allocated_bytes () in
  In_channel.with_open_bin input (fun ic ->
      Out_channel.with_open_bin output (fun oc -> Serve.serve t ic oc));
  let allocated = Gc.allocated_bytes () -. allocated in
  let lines = In_channel.with_open_bin output In_channel.input_all in
  Sys.remove input;
  Sys.remove output;
  match String.split_on_char '\n' lines with
  | [ refused; pong; stats; "" ] ->
    Alcotest.(check string) "over-long line refused"
      (Printf.sprintf "request line of %d bytes exceeds the %d-byte bound" long
         Serve.max_line_bytes)
      (string_member "error" refused);
    Alcotest.(check string) "next line read whole" "ping" (string_member "op" pong);
    Alcotest.(check string) "ping ok" "ok" (string_member "status" pong);
    Alcotest.(check string) "unterminated last line answered" "stats" (string_member "op" stats);
    Alcotest.(check bool)
      (Printf.sprintf "allocated %.0f bytes, under 2 MiB" allocated)
      true
      (allocated < 2.0 *. 1024.0 *. 1024.0)
  | _ ->
    let head = String.sub lines 0 (Int.min 200 (String.length lines)) in
    Alcotest.fail ("expected three responses, got: " ^ head)

(* One request of 40 000 cells, each within the per-cell bound, sums to
   ~4.7e9 node-hours: it is refused as a whole before any cell runs, and
   the session goes on. *)
let test_serve_refuses_costly_grid () =
  let t = serve_session () in
  let range lo hi = String.concat "," (List.init (hi - lo + 1) (fun i -> string_of_int (lo + i))) in
  let request =
    Printf.sprintf "{\"op\":\"run\",\"leaves\":[%s],\"hours\":[%s]}" (range 3 202)
      (range 1000 1199)
  in
  let response, verdict = Serve.handle_line t request in
  Alcotest.(check bool) "continues" true (verdict = `Continue);
  Alcotest.(check string) "refused" "error" (string_member "status" response);
  let error = string_member "error" response in
  Alcotest.(check bool) ("names the cost, the cells and the bound: " ^ error) true
    (String.starts_with ~prefix:"grid costs 4." error
    && String.ends_with
         ~suffix:
           (Printf.sprintf "e+09 node-hours over 40000 cells; the bound is %g per request"
              Matrix.max_request_node_hours)
         error);
  let stats = fst (Serve.handle_line t "{\"op\":\"stats\"}") in
  Alcotest.(check int) "nothing ran" 0 (int_member "ran" stats);
  let pong, _ = Serve.handle_line t "{\"op\":\"ping\"}" in
  Alcotest.(check string) "ping ok" "ok" (string_member "status" pong)

(* --- Row emission against the Printf oracle --- *)

(* [Row_reference] holds the Printf-based emitters [Matrix] replaced.
   Random cells and outcomes cover every field: names and messages with
   quotes, backslashes and control bytes, negative and extreme ints,
   and floats of any bit pattern (non-finite ones included). *)
let base_outcome =
  lazy
    (let open Amb_system in
     let fleet = Fleet.make ~leaves:3 ~relays:1 ~seed:1 () in
     Cosim.run (Cosim.config ~fleet ~horizon:(Amb_units.Time_span.hours 1.0) ()) ~seed:1)

let gen_row_case =
  let open QCheck.Gen in
  let text =
    oneof
      [ string_size ~gen:printable (int_bound 12);
        string_size ~gen:char (int_bound 8);
        oneofl [ ""; "say \"hi\""; "back\\slash"; "tab\tnew\nline"; "\x01\x1f\x7f" ] ]
  in
  let any_int =
    oneof [ int; int_range (-10) 100_000; oneofl [ min_int; max_int; 0; -1 ] ]
  in
  let any_float =
    oneof
      [ map Int64.float_of_bits ui64;
        float_range (-1e6) 1e6;
        oneofl [ 0.0; -0.0; 0.5; 1e-7; 1e17; Float.nan; Float.infinity; Float.neg_infinity ] ]
  in
  let link =
    oneof
      [ return Scenario_spec.Off; return Scenario_spec.Cached;
        map (fun w -> Scenario_spec.Mac w) any_float ]
  in
  let policy = oneofl Amb_net.Routing.[ Min_hop; Min_energy; Max_lifetime ] in
  let cell =
    text >>= fun name ->
    any_int >>= fun leaves ->
    any_int >>= fun relays ->
    any_int >>= fun tags ->
    any_float >>= fun hours ->
    policy >>= fun policy ->
    link >>= fun link ->
    text >>= fun diurnal ->
    any_float >>= fun budget_j ->
    text >>= fun plan ->
    any_int >>= fun seed ->
    return
      { Matrix.name; leaves; relays; tags; hours; policy; link; diurnal; budget_j; plan;
        faults = []; seed }
  in
  let outcome =
    any_int >>= fun generated ->
    any_int >>= fun delivered ->
    any_int >>= fun dropped ->
    any_float >>= fun delivery_ratio ->
    opt any_float >>= fun death_h ->
    any_int >>= fun dead_at_end ->
    any_float >>= fun spent ->
    any_float >>= fun harvested ->
    any_float >>= fun availability ->
    any_float >>= fun mean_coverage ->
    any_int >>= fun rebuilds ->
    any_int >>= fun events ->
    return (fun (o : Amb_system.Cosim.outcome) ->
        { o with
          generated; delivered; dropped; delivery_ratio;
          first_death = Option.map Amb_units.Time_span.hours death_h;
          dead_at_end;
          energy_spent = Amb_units.Energy.joules spent;
          energy_harvested = Amb_units.Energy.joules harvested;
          availability; mean_coverage; rebuilds; events })
  in
  quad cell outcome text text

let prop_rows_match_printf =
  QCheck.Test.make ~name:"rows equal the Printf emitters" ~count:3000
    (QCheck.make
       ~print:(fun (c, _, msg, digest) ->
         Row_reference.row_of_error c msg ^ " / " ^ digest)
       gen_row_case)
    (fun (c, outcome_of, msg, report_digest) ->
      let o = outcome_of (Lazy.force base_outcome) in
      Matrix.row_of_error c msg = Row_reference.row_of_error c msg
      && Matrix.row_of_outcome c o ~report_digest
         = Row_reference.row_of_outcome c o ~report_digest)

(* Real cells, run whole, error cells included: [Matrix.run_cell]
   writes the row the oracle writes from the same outcome and a report
   titled by the oracle's [report_title]. *)
let test_run_cell_matches_printf () =
  let spec =
    Result.get_ok
      (Scenario_spec.parse
         "name = rows\nleaves = 3\nrelays = 1\nhours = 1.5\nlink = cached, mac:0.25\n\
          fault = none, crash:1@0.5, crash:9@1\nseeds = 1..2\n")
  in
  Array.iter
    (fun c -> Alcotest.(check string) "row" (Row_reference.run_cell c) (Matrix.run_cell c))
    (Matrix.expand spec)

(* --- Keys of values %g cannot tell apart --- *)

(* Each axis value [v] and [v] moved in its 7th significant digit are
   distinct cells: two config digests, and a serve session runs both. *)
let test_close_values_are_distinct_cells () =
  let request m = "{\"op\":\"run\",\"name\":\"keys\",\"leaves\":3,\"relays\":1," ^ m ^ "}" in
  let at_1h m = "\"hours\":1," ^ m in
  let pairs =
    [ ("hours", "\"hours\":1", "\"hours\":1.0000001");
      ("hours", "\"hours\":1.5", "\"hours\":1.500001");
      ("leaf-budget-j", at_1h "\"leaf-budget-j\":0.5", at_1h "\"leaf-budget-j\":0.50000001");
      ("crash instant", at_1h "\"fault\":\"crash:1@0.5\"", at_1h "\"fault\":\"crash:1@0.50000001\"");
      ("fade dB", at_1h "\"fault\":\"fade:2-1:20@0.5\"", at_1h "\"fault\":\"fade:2-1:20.000001@0.5\"");
      ("bscale scale", at_1h "\"fault\":\"bscale:2:0.5\"", at_1h "\"fault\":\"bscale:2:0.50000001\"");
      ("mac wake-up", at_1h "\"link\":\"mac:0.25\"", at_1h "\"link\":\"mac:0.25000001\"") ]
  in
  List.iter
    (fun (what, a, b) ->
      let t = serve_session () in
      let ra = fst (Serve.handle_line t (request a)) and rb = fst (Serve.handle_line t (request b)) in
      Alcotest.(check int) (what ^ ": first runs") 1 (int_member "ran" ra);
      Alcotest.(check int) (what ^ ": second runs") 1 (int_member "ran" rb);
      let config r =
        match member "rows" (Amb_report.Report_io.Json.parse r) with
        | Some (Amb_report.Report_io.Json.List [ row ]) -> (
          match member "config" row with
          | Some (Amb_report.Report_io.Json.String c) -> c
          | _ -> Alcotest.fail "row without config")
        | _ -> Alcotest.fail ("expected one row: " ^ r)
      in
      if config ra = config rb then Alcotest.failf "%s: one config digest for both" what)
    pairs;
  (* The spec-file path: a store holding only the hours = 1 row does not
     answer hours = 1.0000001. *)
  let store = Result_store.in_memory () in
  let parse text = Result.get_ok (Scenario_spec.parse text) in
  let _ = Matrix.execute ~store (parse "leaves = 3\nrelays = 1\nhours = 1\n") in
  let _, stats = Matrix.execute ~store (parse "leaves = 3\nrelays = 1\nhours = 1.0000001\n") in
  Alcotest.(check int) "hours = 1.0000001 is not cached" 1 stats.Matrix.ran

(* Values %g reads back keep their %g bytes, so existing keys and rows
   stay put: the grid of examples/matrix_smoke.spec, its first cell's
   row and the crash plan's key pinned. *)
let test_smoke_cell_pinned () =
  let spec =
    Result.get_ok
      (Scenario_spec.parse
         "name = smoke\nleaves = 4\nrelays = 1\nhours = 2\nfault = none, crash:1@1\nseeds = 1..2\n")
  in
  let cells = Matrix.expand spec in
  Alcotest.(check string) "config digest" "a4bdf0d98a721cabc4e8dce066146a51"
    (Matrix.config_digest cells.(0));
  Alcotest.(check string) "crash plan's config digest" "000ea2e57cb7d5594143d0a190a2ee5b"
    (Matrix.config_digest cells.(2));
  Alcotest.(check string) "row"
    "{\"schema\":\"amblib-matrix-row/1\",\"config\":\"a4bdf0d98a721cabc4e8dce066146a51\",\
     \"seed\":1,\"cell\":{\"name\":\"smoke\",\"leaves\":4,\"relays\":1,\"tags\":0,\"hours\":2,\
     \"policy\":\"min-energy\",\"link\":\"cached\",\"diurnal\":\"office\",\"budget_j\":0.5,\
     \"faults\":\"none\"},\"status\":\"ok\",\"metrics\":{\"generated\":960,\"delivered\":960,\
     \"dropped\":0,\"delivery_ratio\":1,\"first_death_h\":null,\"dead_at_end\":0,\
     \"energy_spent_j\":3614.6461072687166,\"energy_harvested_j\":3.0600000000000072,\
     \"availability\":1,\"mean_coverage\":1,\"rebuilds\":1,\"events\":972},\
     \"report_digest\":\"2c8ffac9a4f6b1e36cec3cf9692e413d\"}"
    (Matrix.run_cell cells.(0))

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
    ("store hands back entries", `Quick, test_store_hands_back_entries);
    ("store errors name the file line", `Quick, test_store_error_names_file_line);
    ("matrix rows jobs-independent", `Quick, test_matrix_rows_jobs_independent);
    ("serve answers repeats from cache", `Quick, test_serve_caches_repeat_requests);
    ("serve survives hostile input", `Quick, test_serve_survives_bad_input);
    ("serve reads bounded lines", `Quick, test_serve_reads_bounded_lines);
    ("serve refuses a costly grid", `Quick, test_serve_refuses_costly_grid);
    ("serve isolates error cells", `Quick, test_serve_isolates_error_cells);
    QCheck_alcotest.to_alcotest prop_rows_match_printf;
    ("run_cell rows equal the Printf emitters", `Quick, test_run_cell_matches_printf);
    ("close values are distinct cells", `Quick, test_close_values_are_distinct_cells);
    ("smoke cell keys are pinned", `Quick, test_smoke_cell_pinned);
  ]
