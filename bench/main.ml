(* Benchmark / reproduction harness.

   Three jobs in one executable:

   1. Regenerate every reconstructed table/figure (E1..E27 + ablations)
      and print the rows — the artifact EXPERIMENTS.md records.
   2. Time each experiment builder with Bechamel (one Test.make per
      table/figure, as a grouped suite) so regressions in the underlying
      models show up as timing anomalies.
   3. Emit a machine-readable perf snapshot: per-experiment ns/run and a
      content digest of each typed report, plus wall-clock for the whole
      suite at jobs=1 and jobs=N, so the multicore execution layer's
      trajectory is tracked in version control (BENCH_results.json).
      --check-json rebuilds every experiment and compares digests, so a
      stale snapshot also catches model drift, not just schema rot.

   Usage:
     bench/main.exe                      print all reports, then run timings
     bench/main.exe --run E7             print one report
     bench/main.exe --reports-only       skip the Bechamel pass
     bench/main.exe --jobs 4             parallelise report building (also AMB_JOBS)
     bench/main.exe --json FILE          write the JSON perf snapshot
       (an existing FILE seeds the longest-first suite schedule; at
        --jobs >= 4 a suite speedup below 1.2x exits non-zero)
     bench/main.exe --quick --json FILE  same, ~4x smaller timing budget
     bench/main.exe --compare OLD NEW    per-experiment ns/run deltas between
                                         two snapshots; >1.5x slowdown exits 1
     bench/main.exe --time E16 5         wall-clock best-of-N for one builder
                                         (quote the best on noisy machines)
     bench/main.exe --fleet-scale N      build one N-node fleet at jobs=1 and
                                         at jobs=<--jobs>, require the CSR
                                         arrays bitwise identical, co-simulate
                                         at jobs=1 then jobs=<--jobs>, require
                                         the outcomes bitwise identical
                                         (speedup reported, not gated)
     bench/main.exe --gc-stats           RNG allocation gate (1M batched draws
                                         must stay under a hard minor-word
                                         budget) + minor words/run per experiment
     bench/main.exe --check-json FILE    parse and validate a snapshot
     bench/main.exe --roundtrip-report F parse a report envelope and re-serialize it
     bench/main.exe --roundtrip-case-study ID
                                         build one case study (A-D) and round-trip
                                         every report through Report_io
     bench/main.exe --list               list experiment ids *)

open Bechamel
open Toolkit

let print_reports ~jobs which =
  match which with
  | Some id -> (
    match Amb_core.Experiments.find id with
    | Some (eid, desc, build) ->
      Printf.printf "=== %s — %s ===\n%s\n" eid desc (Amb_core.Report.to_string (build ()))
    | None ->
      Printf.eprintf "unknown experiment id %s\n" id;
      exit 1)
  | None ->
    List.iter
      (fun (id, desc, report) ->
        Printf.printf "=== %s — %s ===\n%s\n" id desc (Amb_core.Report.to_string report))
      (Amb_core.Experiments.run_all ~jobs ())

let bechamel_suite () =
  let test_of (id, _, build) =
    Test.make ~name:id (Staged.stage (fun () -> ignore (build ())))
  in
  Test.make_grouped ~name:"experiments" (List.map test_of Amb_core.Experiments.all)

let run_timings () =
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] (bechamel_suite ()) in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        let estimate =
          match Analyze.OLS.estimates result with Some (e :: _) -> e | _ -> Float.nan
        in
        let r2 = match Analyze.OLS.r_square result with Some r -> r | None -> Float.nan in
        (name, estimate, r2) :: acc)
      results []
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  print_endline "=== Bechamel timings (ns per experiment build, OLS on monotonic clock) ===";
  Printf.printf "%-28s %14s %8s\n" "experiment" "ns/run" "r^2";
  List.iter
    (fun (name, ns, r2) -> Printf.printf "%-28s %14.0f %8.3f\n" name ns r2)
    rows

(* ------------------------------------------------------------------ *)
(* Snapshot JSON: {!Amb_core.Report_io.Json}'s reader, plus a printer. *)

module Json = struct
  include Amb_core.Report_io.Json

  (* Printer for read-modify-write updates of a snapshot (the --fleet
     section merge).  Ints round-trip as ints; non-finite numbers as
     null; objects and object lists are pretty-printed two-space
     indented, everything else inline. *)
  let escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let rec write b ~indent = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Number v ->
      (* Integral values print as exact decimals first — counts like
         "edges": 1591640 must come out as integers, never %.6g's
         1.59164e+06 — then json_number's %.6g wherever it round-trips
         (so re-printing a parsed snapshot is byte-stable), exact %.17g
         for the rest. *)
      Buffer.add_string b
        (if not (Float.is_finite v) then "null"
         else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
         else
           let s = Printf.sprintf "%.6g" v in
           if float_of_string s = v then s
           else Printf.sprintf "%.17g" v)
    | String s -> Buffer.add_char b '"'; Buffer.add_string b (escape s); Buffer.add_char b '"'
    | List [] -> Buffer.add_string b "[]"
    | List items when List.exists (function Object _ -> true | _ -> false) items ->
      let pad = String.make indent ' ' in
      Buffer.add_string b "[\n";
      List.iteri
        (fun i v ->
          Buffer.add_string b pad;
          Buffer.add_string b "  ";
          (* Flat records as list items (the experiment entries) stay on
             one line, matching the snapshot writer's own layout. *)
          (match v with
          | Object ((_ :: _) as kvs)
            when List.for_all (function _, (List _ | Object _) -> false | _ -> true) kvs ->
            Buffer.add_string b "{ ";
            List.iteri
              (fun j (k, w) ->
                if j > 0 then Buffer.add_string b ", ";
                Buffer.add_char b '"';
                Buffer.add_string b (escape k);
                Buffer.add_string b "\": ";
                write b ~indent w)
              kvs;
            Buffer.add_string b " }"
          | v -> write b ~indent:(indent + 2) v);
          Buffer.add_string b (if i = List.length items - 1 then "\n" else ",\n"))
        items;
      Buffer.add_string b pad;
      Buffer.add_char b ']'
    | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          write b ~indent v)
        items;
      Buffer.add_char b ']'
    | Object [] -> Buffer.add_string b "{}"
    | Object kvs ->
      let pad = String.make indent ' ' in
      Buffer.add_string b "{\n";
      List.iteri
        (fun i (k, v) ->
          Buffer.add_string b pad;
          Buffer.add_string b "  \"";
          Buffer.add_string b (escape k);
          Buffer.add_string b "\": ";
          write b ~indent:(indent + 2) v;
          Buffer.add_string b (if i = List.length kvs - 1 then "\n" else ",\n"))
        kvs;
      Buffer.add_string b pad;
      Buffer.add_char b '}'

  let to_string json =
    let b = Buffer.create 4096 in
    write b ~indent:0 json;
    Buffer.add_char b '\n';
    Buffer.contents b
end

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let len = in_channel_length ic in
    let contents = really_input_string ic len in
    close_in ic;
    Some contents

(* ------------------------------------------------------------------ *)
(* JSON perf snapshot                                                  *)

let wall_clock = Unix.gettimeofday

(* --quick shrinks the measurement budget ~4x for smoke runs (make
   bench-quick): noisier ns/run, same schema and digests. *)
let quick = ref false

(* ns/run for one builder: repeat until the budget (~80 ms, or ~20 ms
   under --quick) or the run cap, whichever first, and report the mean.
   Coarser than Bechamel but dependency-free and fast enough to time all
   30 builders in a few seconds. *)
let time_builder build =
  let max_runs, budget_s = if !quick then (20, 0.02) else (200, 0.08) in
  ignore (build ());  (* warm-up *)
  let start = wall_clock () in
  let rec go runs elapsed =
    if runs >= max_runs || elapsed >= budget_s then (runs, elapsed)
    else begin
      ignore (build ());
      go (runs + 1) (wall_clock () -. start)
    end
  in
  let runs, elapsed = go 0 0.0 in
  if runs = 0 then Float.nan else elapsed *. 1e9 /. Float.of_int runs

(* Per-experiment ns/run from a previous snapshot, to seed the suite
   scheduler's longest-expected-first order. *)
let load_expected path =
  match read_file path with
  | None -> None
  | Some contents -> (
    match Json.parse contents with
    | exception Json.Parse_error _ -> None
    | json -> (
      match Json.member "experiments" json with
      | Some (Json.List entries) ->
        let table =
          List.filter_map
            (fun e ->
              match (Json.member "id" e, Json.member "ns_per_run" e) with
              | Some (Json.String id), Some (Json.Number ns) -> Some (id, ns)
              | _ -> None)
            entries
        in
        Some (fun id -> List.assoc_opt id table)
      | _ -> None))

let time_suite ?expected ~jobs () =
  let start = wall_clock () in
  ignore (Amb_core.Experiments.run_all ~jobs ?expected ());
  wall_clock () -. start

let json_number b v =
  if not (Float.is_finite v) then Buffer.add_string b "null"
  else Buffer.add_string b (Printf.sprintf "%.6g" v)

(* ------------------------------------------------------------------ *)
(* GC pressure: minor-heap words allocated per experiment build, and a
   hard allocation gate on the batched RNG kernels. *)

(* Minor words allocated by one build (after a warm-up build, so
   one-time setup work does not pollute the measurement). *)
let minor_words_per_run build =
  ignore (build ());
  let before = Gc.minor_words () in
  ignore (build ());
  Gc.minor_words () -. before

(* Hard gate: 1M draws through each batched RNG kernel must stay within
   [raw_draw_budget_words] minor words.  The fills are allocation-free
   by construction (the buffer is reused), so the budget only leaves
   room for measurement noise — a future change that re-boxes the draw
   path (per-draw [Int64] chains, boxed float returns in a fill) blows
   the budget by orders of magnitude and fails CI. *)
let raw_draw_budget_words = 10_000.0

let gc_gate () =
  let draws = 1_000_000 in
  let block = 4096 in
  let buf = Float.Array.create block in
  let run_fills fill =
    let remaining = ref draws in
    while !remaining > 0 do
      let len = Stdlib.min block !remaining in
      fill ~len buf;
      remaining := !remaining - len
    done
  in
  let kernels =
    [
      ("fill_floats", fun rng -> run_fills (fun ~len a -> Amb_sim.Rng.fill_floats rng ~len a));
      ( "fill_exponential",
        fun rng -> run_fills (fun ~len a -> Amb_sim.Rng.fill_exponential rng ~mean:1.0 ~len a) );
      ( "fill_gaussian",
        fun rng ->
          run_fills (fun ~len a -> Amb_sim.Rng.fill_gaussian rng ~mu:0.0 ~sigma:1.0 ~len a) );
    ]
  in
  let failed = ref false in
  Printf.printf "=== RNG allocation gate (%d draws per kernel, budget %.0f minor words) ===\n"
    draws raw_draw_budget_words;
  List.iter
    (fun (name, kernel) ->
      let rng = Amb_sim.Rng.create 0xD1CE in
      kernel rng;  (* warm-up *)
      let before = Gc.minor_words () in
      kernel rng;
      let words = Gc.minor_words () -. before in
      let ok = words <= raw_draw_budget_words in
      if not ok then failed := true;
      Printf.printf "%-18s %12.0f minor words  %s\n" name words
        (if ok then "ok" else "<< OVER BUDGET"))
    kernels;
  !failed

let gc_stats () =
  let failed = gc_gate () in
  Printf.printf "=== minor words per experiment build ===\n";
  Printf.printf "%-6s %16s\n" "id" "minor words/run";
  List.iter
    (fun (id, _, build) -> Printf.printf "%-6s %16.0f\n" id (minor_words_per_run build))
    Amb_core.Experiments.all;
  if failed then begin
    Printf.eprintf "RNG allocation gate failed: a batched kernel exceeded %.0f minor words\n"
      raw_draw_budget_words;
    exit 1
  end

let write_json path ~jobs =
  (* A previous snapshot at the same path seeds the scheduler. *)
  let expected = load_expected path in
  Printf.eprintf "timing %d experiment builders (jobs=1)...\n%!"
    (List.length Amb_core.Experiments.all);
  let per_experiment =
    List.map
      (fun (id, _, build) ->
        let report = build () in
        (id, time_builder build, Amb_core.Report_io.digest report,
         List.length report.Amb_core.Report.rows, minor_words_per_run build))
      Amb_core.Experiments.all
  in
  Printf.eprintf "timing sharded builds at jobs=%d...\n%!" jobs;
  let jobs_n_wall =
    List.map
      (fun (id, _, _) ->
        let start = wall_clock () in
        ignore (Amb_core.Experiments.build_sharded ~jobs id);
        (id, wall_clock () -. start))
      Amb_core.Experiments.all
  in
  Printf.eprintf "timing full suite at jobs=1 and jobs=%d...\n%!" jobs;
  let wall_1 = time_suite ~jobs:1 () in
  let wall_n = time_suite ?expected ~jobs () in
  let speedup = if wall_n > 0.0 then wall_1 /. wall_n else Float.nan in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema\": \"amblib-bench/1\",\n";
  Buffer.add_string b (Printf.sprintf "  \"jobs\": %d,\n" jobs);
  Buffer.add_string b "  \"experiments\": [\n";
  List.iteri
    (fun i (id, ns, digest, rows, minor_words) ->
      Buffer.add_string b (Printf.sprintf "    { \"id\": %S, \"ns_per_run\": " id);
      json_number b ns;
      Buffer.add_string b (Printf.sprintf ", \"digest\": %S, \"rows\": %d" digest rows);
      Buffer.add_string b
        (Printf.sprintf ", \"shards\": %d, \"wall_s_jobs_n\": " (Amb_core.Experiments.shard_count id));
      json_number b (Option.value (List.assoc_opt id jobs_n_wall) ~default:Float.nan);
      Buffer.add_string b ", \"minor_words_per_run\": ";
      json_number b minor_words;
      Buffer.add_string b (if i = List.length per_experiment - 1 then " }\n" else " },\n"))
    per_experiment;
  Buffer.add_string b "  ],\n  \"suite\": {\n    \"wall_s_jobs1\": ";
  json_number b wall_1;
  Buffer.add_string b ",\n    \"wall_s_jobs_n\": ";
  json_number b wall_n;
  Buffer.add_string b ",\n    \"speedup\": ";
  json_number b speedup;
  Buffer.add_string b "\n  }\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "wrote %s (suite: %.2f s at jobs=1, %.2f s at jobs=%d, %.2fx)\n" path wall_1
    wall_n jobs speedup;
  (* Scaling gate: with enough cores, a parallel suite that fails to
     clear 1.2x means the scheduler or sharding regressed. *)
  if jobs >= 4 && Float.is_finite speedup && speedup < 1.2 then begin
    Printf.eprintf "%s: suite speedup %.2fx at jobs=%d is below the 1.2x scaling gate\n" path
      speedup jobs;
    exit 1
  end

(* Repeated wall-clock timing of one builder; the best-of-N is what to
   quote on noisy machines. *)
let time_one id runs =
  match Amb_core.Experiments.find id with
  | None ->
    Printf.eprintf "unknown experiment id %s\n" id;
    exit 1
  | Some (eid, _, build) ->
    ignore (build ());  (* warm-up *)
    let best = ref Float.infinity in
    for r = 1 to runs do
      let t0 = wall_clock () in
      ignore (build ());
      let dt = wall_clock () -. t0 in
      if dt < !best then best := dt;
      Printf.printf "%s run %d: %.4f s\n%!" eid r dt
    done;
    Printf.printf "%s best of %d: %.4f s\n" eid runs !best

(* ------------------------------------------------------------------ *)
(* Snapshot comparison: per-experiment ns/run deltas between two
   snapshots; >1.5x slowdowns fail the run. *)

let compare_snapshots old_path new_path =
  let load path =
    match read_file path with
    | None ->
      Printf.eprintf "%s: cannot read\n" path;
      exit 1
    | Some contents -> (
      match Json.parse contents with
      | exception Json.Parse_error msg ->
        Printf.eprintf "%s: parse error: %s\n" path msg;
        exit 1
      | json -> json)
  in
  let old_json = load old_path and new_json = load new_path in
  let ns_table json =
    match Json.member "experiments" json with
    | Some (Json.List entries) ->
      List.filter_map
        (fun e ->
          match (Json.member "id" e, Json.member "ns_per_run" e) with
          | Some (Json.String id), Some (Json.Number ns) -> Some (id, ns)
          | _ -> None)
        entries
    | _ -> []
  in
  let old_ns = ns_table old_json and new_ns = ns_table new_json in
  let threshold = 1.5 in
  Printf.printf "=== bench compare: %s -> %s ===\n" old_path new_path;
  Printf.printf "%-6s %14s %14s %8s\n" "id" "old ns/run" "new ns/run" "ratio";
  let regressions = ref [] in
  List.iter
    (fun (id, old_v) ->
      match List.assoc_opt id new_ns with
      | None -> Printf.printf "%-6s %14.0f %14s %8s\n" id old_v "-" "gone"
      | Some new_v ->
        let ratio = if old_v > 0.0 then new_v /. old_v else Float.nan in
        Printf.printf "%-6s %14.0f %14.0f %7.2fx%s\n" id old_v new_v ratio
          (if ratio > threshold then "  << SLOWDOWN" else "");
        if ratio > threshold then regressions := id :: !regressions)
    old_ns;
  List.iter
    (fun (id, new_v) ->
      if not (List.mem_assoc id old_ns) then
        Printf.printf "%-6s %14s %14.0f %8s\n" id "-" new_v "new")
    new_ns;
  let suite_field json key =
    match Json.member "suite" json with
    | Some suite -> (
      match Json.member key suite with Some (Json.Number v) -> Some v | _ -> None)
    | None -> None
  in
  (match (suite_field old_json "speedup", suite_field new_json "speedup") with
  | Some a, Some b -> Printf.printf "suite speedup: %.2fx -> %.2fx\n" a b
  | _ -> ());
  match !regressions with
  | [] -> Printf.printf "no per-experiment slowdown beyond %.1fx\n" threshold
  | ids ->
    Printf.eprintf "%d experiment(s) slowed down more than %.1fx: %s\n" (List.length ids)
      threshold
      (String.concat ", " (List.rev ids));
    exit 1

let check_json path =
  let fail msg =
    Printf.eprintf "%s: %s\n" path msg;
    exit 1
  in
  let contents =
    match open_in_bin path with
    | exception Sys_error msg ->
      (* Sys_error messages already lead with the path. *)
      Printf.eprintf "%s\n" msg;
      exit 1
    | ic ->
      let len = in_channel_length ic in
      let contents = really_input_string ic len in
      close_in ic;
      contents
  in
  let json = try Json.parse contents with Json.Parse_error msg -> fail ("parse error: " ^ msg) in
  (match Json.member "schema" json with
  | Some (Json.String "amblib-bench/1") -> ()
  | _ -> fail "missing or unexpected \"schema\"");
  (match Json.member "experiments" json with
  | Some (Json.List (_ :: _ as entries)) ->
    (* Structural pass, then the drift gate: rebuild each experiment and
       compare its typed-content digest to the snapshot's. *)
    let drift = ref 0 in
    List.iter
      (fun e ->
        let id =
          match (Json.member "id" e, Json.member "ns_per_run" e) with
          | Some (Json.String id), Some (Json.Number _ | Json.Null) -> id
          | _ -> fail "malformed experiment entry"
        in
        match Json.member "digest" e with
        | Some (Json.String recorded) -> (
          match Amb_core.Experiments.find id with
          | None -> fail (Printf.sprintf "snapshot names unknown experiment %s" id)
          | Some (_, _, build) ->
            let current = Amb_core.Report_io.digest (build ()) in
            if current <> recorded then begin
              Printf.eprintf "%s: %s digest mismatch (snapshot %s, current %s) — model drift\n"
                path id recorded current;
              incr drift
            end)
        | Some _ -> fail (Printf.sprintf "experiment %s: \"digest\" must be a string" id)
        | None -> fail (Printf.sprintf "experiment %s: missing \"digest\"" id))
      entries;
    if !drift > 0 then begin
      Printf.eprintf "%s: %d experiment(s) drifted; regenerate with --json\n" path !drift;
      exit 1
    end
  | _ -> fail "missing or empty \"experiments\"");
  (match Json.member "suite" json with
  | Some (Json.Object _ as suite) -> (
    match (Json.member "wall_s_jobs1" suite, Json.member "wall_s_jobs_n" suite) with
    | Some (Json.Number _), Some (Json.Number _) -> ()
    | _ -> fail "suite missing \"wall_s_jobs1\"/\"wall_s_jobs_n\"")
  | _ -> fail "missing \"suite\"");
  Printf.printf "%s: valid amblib-bench/1 snapshot, all experiment digests match\n" path

(* Round-trip gate for report JSON produced by other tools (the `ambient
   system --format json` output in `make check`): parse it back through
   the typed pipeline and re-serialize; digest equality proves the
   emitted document is a faithful amblib-report/1 envelope. *)
let roundtrip_report path =
  let contents =
    match open_in_bin path with
    | exception Sys_error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1
    | ic ->
      let len = in_channel_length ic in
      let contents = really_input_string ic len in
      close_in ic;
      contents
  in
  match Amb_core.Report_io.of_json contents with
  | Error msg ->
    Printf.eprintf "%s: not a valid report envelope: %s\n" path msg;
    exit 1
  | Ok report ->
    let reparsed = Amb_core.Report_io.of_json (Amb_core.Report_io.to_json report) in
    (match reparsed with
    | Ok again when Amb_core.Report_io.digest again = Amb_core.Report_io.digest report ->
      Printf.printf "%s: round-trips through Report_io (%d rows, digest %s)\n" path
        (List.length report.Amb_core.Report.rows)
        (Amb_core.Report_io.digest report)
    | Ok _ ->
      Printf.eprintf "%s: digest changed across re-serialization\n" path;
      exit 1
    | Error msg ->
      Printf.eprintf "%s: re-serialized document failed to parse: %s\n" path msg;
      exit 1)

(* Same gate for a whole case study: every report the study builds must
   survive serialize -> parse -> re-serialize with its content digest
   intact (CS-D exercises the four-class / backscatter tables this way
   in `make check`). *)
let roundtrip_case_study id =
  match Amb_core.Case_study.find id with
  | None ->
    Printf.eprintf "unknown case study '%s' (use A, B, C or D)\n" id;
    exit 1
  | Some cs ->
    List.iter
      (fun (eid, report) ->
        let json = Amb_core.Report_io.to_json report in
        match Amb_core.Report_io.of_json json with
        | Ok again when Amb_core.Report_io.digest again = Amb_core.Report_io.digest report -> ()
        | Ok _ ->
          Printf.eprintf "CS-%s %s: digest changed across the JSON round-trip\n"
            cs.Amb_core.Case_study.id eid;
          exit 1
        | Error msg ->
          Printf.eprintf "CS-%s %s: emitted JSON failed to parse: %s\n"
            cs.Amb_core.Case_study.id eid msg;
          exit 1)
      (Amb_core.Case_study.reports_with_ids cs);
    Printf.printf "CS-%s: %d reports round-trip through Report_io with stable digests\n"
      cs.Amb_core.Case_study.id
      (List.length cs.Amb_core.Case_study.experiment_ids)

(* ------------------------------------------------------------------ *)
(* City-scale fleet gate: build an n-node Fleet.city, co-simulate one
   hour of 600 s leaf reporting, and record throughput plus peak heap.
   The hard gates catch the two city-scale failure modes this path
   exists to prevent: falling off the O(n + edges) memory model (an
   accidental n^2 structure blows the peak-words ceiling immediately)
   and losing the amortized-O(1) event queue (events/sec collapses). *)

let fleet_report_period_s = 600.0
let fleet_horizon_s = 3600.0

(* Floors/ceilings for the gated configuration (>= 10^5 nodes).  The
   events/sec floor assumes Cosim's forwarding kernel (SoA fleet
   ledger + precomputed hop tariffs + indexed report events) — the
   reference machine clears ~2x the floor, and a per-object walk sits
   ~3x below it, so any regression in the kernel trips the gate
   immediately.  The ledger ceiling pins the ledger's
   struct-of-arrays footprint: 9 float columns + 2 bitsets is ~9.3
   words/node, so 12 leaves headroom without letting a boxed column
   sneak in. *)
let fleet_events_per_s_floor = 150_000.0
let fleet_peak_words_per_node = 1_500.0
let fleet_ledger_words_per_node = 12.0
let fleet_gate_nodes = 100_000

(* The throughput floor is calibrated at [fleet_gate_nodes].  Per-report
   cost grows with route depth — O(sqrt n) hops at constant target
   degree, since the field's side scales with sqrt n while relay
   density is fixed — and past the calibration point the working set
   (CSR rows, ledger, positions) also falls out of cache, so larger
   gated points get the floor scaled by sqrt(gate/n) with a further 2x
   out-of-cache allowance: a 10^6-node run must clear
   150k / sqrt(10) / 2 ~ 24k events/s (measured: ~38k).  Memory gates
   are per-node and stay flat. *)
let fleet_floor_for nodes =
  if nodes <= fleet_gate_nodes then fleet_events_per_s_floor
  else
    fleet_events_per_s_floor
    *. Float.sqrt (Float.of_int fleet_gate_nodes /. Float.of_int nodes)
    /. 2.0

(* Read-modify-write one top-level section of the snapshot, preserving
   every other key (the bechamel timings, the fleet or matrix section
   the other subcommand owns). *)
let merge_section ~key path section_json =
  let base =
    match read_file path with
    | None -> [ ("schema", Json.String "amblib-bench/1") ]
    | Some contents -> (
      match Json.parse contents with
      | exception Json.Parse_error _ -> [ ("schema", Json.String "amblib-bench/1") ]
      | Json.Object kvs -> List.filter (fun (k, _) -> k <> key) kvs
      | _ -> [ ("schema", Json.String "amblib-bench/1") ])
  in
  let oc = open_out path in
  output_string oc (Json.to_string (Json.Object (base @ [ (key, section_json) ])));
  close_out oc

let merge_fleet_section path fleet_json = merge_section ~key:"fleet" path fleet_json

(* One measured (build, run) cycle at a node count.  The co-simulation
   runs through [run_with_router] so a jobs > 1 invocation can hand the
   run a domain pool for its accounting ticks (outcomes are
   bitwise identical at every pool size — the oracle tests hold Cosim
   to that). *)
type fleet_point = {
  fp_nodes : int;
  fp_edges : int;
  fp_build_s : float;
  fp_run_s : float;
  fp_events : int;
  fp_events_per_s : float;
  fp_peak_words : float;
  fp_generated : int;
  fp_delivered : int;
  fp_coverage : float;
  fp_ledger_words_per_node : float;
  (* build phases (Fleet.build_timing) *)
  fp_layout_s : float;
  fp_topology_s : float;
  fp_csr_s : float;
  (* run phases (Cosim.phase_times) *)
  fp_forward_s : float;
  fp_forward_ns_per_report : float;  (* forward_s per generated report; reported, not gated *)
  fp_account_s : float;
  fp_rebuild_s : float;
  fp_repairs : int;
  fp_full_rebuilds : int;
  fp_reattached : int;
  fp_outcome : Amb_system.Cosim.outcome;  (* retained for --fleet-scale compare *)
}

(* Build and simulation split so --fleet-scale can build one fleet and
   simulate it at two pool sizes. *)
let build_city_fleet ~jobs ~nodes =
  let open Amb_units in
  let timing = Amb_system.Fleet.build_timing ~clock:wall_clock in
  let t0 = wall_clock () in
  let leaf =
    Amb_system.Fleet.microwatt_leaf
      ~report_period:(Time_span.seconds fleet_report_period_s) ()
  in
  let fleet = Amb_system.Fleet.city ~leaf ~jobs ~timing ~nodes ~seed:42 () in
  let build_s = wall_clock () -. t0 in
  let edges =
    let offsets, _ = Amb_net.Routing.rows fleet.Amb_system.Fleet.router in
    offsets.(Array.length offsets - 1)
  in
  Printf.printf
    "built in %.2f s (%d directed in-range edges; layout %.2f s, topology %.2f s, csr %.2f s)\n%!"
    build_s edges timing.Amb_system.Fleet.layout_s timing.Amb_system.Fleet.topology_s
    timing.Amb_system.Fleet.csr_s;
  (fleet, edges, build_s, timing)

let simulate_city_fleet ~jobs fleet =
  let open Amb_units in
  let cfg =
    Amb_system.Cosim.config ~fleet ~horizon:(Time_span.seconds fleet_horizon_s) ()
  in
  let router = fleet.Amb_system.Fleet.router in
  let phase = Amb_system.Cosim.phase_times ~clock:wall_clock in
  let t1 = wall_clock () in
  let outcome =
    if jobs > 1 then
      Amb_sim.Domain_pool.with_pool ~jobs (fun pool ->
          Amb_system.Cosim.run_with_router ~pool ~phase ~router cfg ~seed:7)
    else Amb_system.Cosim.run_with_router ~phase ~router cfg ~seed:7
  in
  let run_s = wall_clock () -. t1 in
  (outcome, run_s, phase)

let run_fleet_point ~jobs ~nodes =
  Printf.printf "=== city fleet: %d nodes, %.0f s report period, %.0f s horizon (jobs=%d) ===\n%!"
    nodes fleet_report_period_s fleet_horizon_s jobs;
  let fleet, edges, build_s, timing = build_city_fleet ~jobs ~nodes in
  let outcome, run_s, phase = simulate_city_fleet ~jobs fleet in
  let peak_words = Float.of_int (Gc.quick_stat ()).Gc.top_heap_words in
  let events_per_s =
    if run_s > 0.0 then Float.of_int outcome.Amb_system.Cosim.events /. run_s else Float.nan
  in
  (* The footprint of the run's own ledger, read off the outcome — this
     is what the words/node gate holds down. *)
  let ledger_words_per_node =
    Float.of_int (Amb_system.Fleet_ledger.words outcome.Amb_system.Cosim.agents)
    /. Float.of_int nodes
  in
  Printf.printf
    "ran %d events in %.2f s (%.0f events/s); %d/%d reports delivered, coverage %.3f\n"
    outcome.Amb_system.Cosim.events run_s events_per_s outcome.Amb_system.Cosim.delivered
    outcome.Amb_system.Cosim.generated outcome.Amb_system.Cosim.mean_coverage;
  let forward_ns_per_report =
    phase.Amb_system.Cosim.forward_s *. 1e9
    /. Float.of_int (Stdlib.max 1 outcome.Amb_system.Cosim.generated)
  in
  Printf.printf
    "run phases: forward %.2f s, account %.2f s, rebuild %.2f s; forward_ns_per_report %.0f\n"
    phase.Amb_system.Cosim.forward_s phase.Amb_system.Cosim.account_s
    phase.Amb_system.Cosim.rebuild_s forward_ns_per_report;
  Printf.printf "route tree: %d local repairs re-attaching %d nodes, %d full rebuilds\n"
    phase.Amb_system.Cosim.repairs phase.Amb_system.Cosim.reattached
    phase.Amb_system.Cosim.full_rebuilds;
  Printf.printf "peak heap %.0f words (%.0f words/node); ledger %.2f words/node\n%!" peak_words
    (peak_words /. Float.of_int nodes)
    ledger_words_per_node;
  {
    fp_nodes = nodes;
    fp_edges = edges;
    fp_build_s = build_s;
    fp_run_s = run_s;
    fp_events = outcome.Amb_system.Cosim.events;
    fp_events_per_s = events_per_s;
    fp_peak_words = peak_words;
    fp_generated = outcome.Amb_system.Cosim.generated;
    fp_delivered = outcome.Amb_system.Cosim.delivered;
    fp_coverage = outcome.Amb_system.Cosim.mean_coverage;
    fp_ledger_words_per_node = ledger_words_per_node;
    fp_layout_s = timing.Amb_system.Fleet.layout_s;
    fp_topology_s = timing.Amb_system.Fleet.topology_s;
    fp_csr_s = timing.Amb_system.Fleet.csr_s;
    fp_forward_s = phase.Amb_system.Cosim.forward_s;
    fp_forward_ns_per_report = forward_ns_per_report;
    fp_account_s = phase.Amb_system.Cosim.account_s;
    fp_rebuild_s = phase.Amb_system.Cosim.rebuild_s;
    fp_repairs = phase.Amb_system.Cosim.repairs;
    fp_full_rebuilds = phase.Amb_system.Cosim.full_rebuilds;
    fp_reattached = phase.Amb_system.Cosim.reattached;
    fp_outcome = outcome;
  }

(* A --fleet run sweeps every requested node count (smallest first so
   the peak-heap reading of the largest, gated point is not inflated by
   a bigger earlier run), merges the largest point into the snapshot's
   flat "fleet" keys — plus the jobs it used and the per-N "scaling"
   trajectory — and applies the hard gates to every point at or above
   [fleet_gate_nodes]. *)
let run_fleet ~jobs ~nodes_list ~json_path =
  let nodes_list = List.sort_uniq compare nodes_list in
  let points = List.map (fun nodes -> run_fleet_point ~jobs ~nodes) nodes_list in
  let top = List.nth points (List.length points - 1) in
  (match json_path with
  | None -> ()
  | Some path ->
    merge_fleet_section path
      (Json.Object
         [ ("nodes", Json.Number (Float.of_int top.fp_nodes));
           ("jobs", Json.Number (Float.of_int jobs));
           ("edges", Json.Number (Float.of_int top.fp_edges));
           ("report_period_s", Json.Number fleet_report_period_s);
           ("horizon_s", Json.Number fleet_horizon_s);
           ("build_s", Json.Number top.fp_build_s);
           ( "build_phases",
             Json.Object
               [ ("layout_s", Json.Number top.fp_layout_s);
                 ("topology_s", Json.Number top.fp_topology_s);
                 ("csr_s", Json.Number top.fp_csr_s);
               ] );
           ("run_s", Json.Number top.fp_run_s);
           ( "run_phases",
             Json.Object
               [ ("forward_s", Json.Number top.fp_forward_s);
                 ("account_s", Json.Number top.fp_account_s);
                 ("rebuild_s", Json.Number top.fp_rebuild_s);
               ] );
           ("forward_ns_per_report", Json.Number top.fp_forward_ns_per_report);
           ( "route_tree",
             Json.Object
               [ ("repairs", Json.Number (Float.of_int top.fp_repairs));
                 ("full_rebuilds", Json.Number (Float.of_int top.fp_full_rebuilds));
                 ("reattached", Json.Number (Float.of_int top.fp_reattached));
               ] );
           ("events", Json.Number (Float.of_int top.fp_events));
           ("events_per_s", Json.Number top.fp_events_per_s);
           ("peak_heap_words", Json.Number top.fp_peak_words);
           ("ledger_words_per_node", Json.Number top.fp_ledger_words_per_node);
           ("generated", Json.Number (Float.of_int top.fp_generated));
           ("delivered", Json.Number (Float.of_int top.fp_delivered));
           ("mean_coverage", Json.Number top.fp_coverage);
           ( "scaling",
             Json.List
               (List.map
                  (fun p ->
                    Json.Object
                      [ ("nodes", Json.Number (Float.of_int p.fp_nodes));
                        ("build_s", Json.Number p.fp_build_s);
                        ("run_s", Json.Number p.fp_run_s);
                        ("events", Json.Number (Float.of_int p.fp_events));
                        ("events_per_s", Json.Number p.fp_events_per_s);
                      ])
                  points) );
         ]);
    Printf.printf "merged \"fleet\" section into %s\n" path);
  List.iter
    (fun p ->
      if p.fp_nodes >= fleet_gate_nodes then begin
        let ceiling = fleet_peak_words_per_node *. Float.of_int p.fp_nodes in
        let floor = fleet_floor_for p.fp_nodes in
        let failed = ref false in
        if p.fp_events_per_s < floor then begin
          Printf.eprintf "fleet gate: %.0f events/s at %d nodes is below the %.0f floor\n"
            p.fp_events_per_s p.fp_nodes floor;
          failed := true
        end;
        if p.fp_peak_words > ceiling then begin
          Printf.eprintf
            "fleet gate: peak heap %.0f words exceeds the %.0f ceiling (%.0f/node)\n"
            p.fp_peak_words ceiling fleet_peak_words_per_node;
          failed := true
        end;
        if p.fp_ledger_words_per_node > fleet_ledger_words_per_node then begin
          Printf.eprintf "fleet gate: ledger %.2f words/node exceeds the %.1f ceiling\n"
            p.fp_ledger_words_per_node fleet_ledger_words_per_node;
          failed := true
        end;
        if !failed then exit 1;
        Printf.printf
          "fleet gate passed at %d nodes: %.0f events/s >= %.0f floor, peak %.0f <= %.0f \
           words/node, ledger %.2f <= %.1f words/node\n"
          p.fp_nodes p.fp_events_per_s floor
          (p.fp_peak_words /. Float.of_int p.fp_nodes)
          fleet_peak_words_per_node p.fp_ledger_words_per_node fleet_ledger_words_per_node
      end)
    points

(* ------------------------------------------------------------------ *)
(* Two-point identity gate (--fleet-scale): build one fleet at jobs=N,
   hold its CSR arrays to a jobs=1 build's bit for bit, co-simulate it
   twice — jobs=1 then jobs=N — and hold the pooled run to the
   sequential one bit for bit.  The identity checks and the sequential
   events/s floor are the gates; the run-phase speedup is reported, not
   gated: the pool carries only the accounting ticks, a fraction of a
   percent of the run phase, so the ratio reads host noise. *)

(* Every outcome field, NaN-safe bitwise on the floats; returns the
   names of the fields that diverge. *)
let outcome_mismatches (a : Amb_system.Cosim.outcome) (b : Amb_system.Cosim.outcome) =
  let open Amb_system.Cosim in
  let bits = Int64.bits_of_float in
  let feq x y = bits x = bits y in
  let span_opt_eq x y =
    match (x, y) with
    | None, None -> true
    | Some x, Some y -> feq (Amb_units.Time_span.to_seconds x) (Amb_units.Time_span.to_seconds y)
    | _ -> false
  in
  let deaths_eq =
    List.length a.deaths = List.length b.deaths
    && List.for_all2
         (fun (i, t) (j, u) ->
           i = j && feq (Amb_units.Time_span.to_seconds t) (Amb_units.Time_span.to_seconds u))
         a.deaths b.deaths
  in
  let agents_eq =
    let module L = Amb_system.Fleet_ledger in
    let x = a.agents and y = b.agents in
    L.length x = L.length y
    && begin
         let ok = ref true in
         for i = 0 to L.length x - 1 do
           if
             not
               (L.alive x i = L.alive y i
               && L.crashed x i = L.crashed y i
               && feq (L.reserve_j x i) (L.reserve_j y i)
               && feq (L.consumed_j x i) (L.consumed_j y i)
               && feq (L.harvested_j x i) (L.harvested_j y i)
               && feq (L.last_account_s x i) (L.last_account_s y i)
               && feq (L.died_at_s x i) (L.died_at_s y i))
           then ok := false
         done;
         !ok
       end
  in
  let checks =
    [ ("generated", a.generated = b.generated);
      ("delivered", a.delivered = b.delivered);
      ("dropped", a.dropped = b.dropped);
      ("events", a.events = b.events);
      ("rebuilds", a.rebuilds = b.rebuilds);
      ("dead_at_end", a.dead_at_end = b.dead_at_end);
      ("delivery_ratio", feq a.delivery_ratio b.delivery_ratio);
      ("availability", feq a.availability b.availability);
      ("mean_coverage", feq a.mean_coverage b.mean_coverage);
      ( "energy_spent",
        feq (Amb_units.Energy.to_joules a.energy_spent) (Amb_units.Energy.to_joules b.energy_spent) );
      ( "energy_harvested",
        feq
          (Amb_units.Energy.to_joules a.energy_harvested)
          (Amb_units.Energy.to_joules b.energy_harvested) );
      ("first_death", span_opt_eq a.first_death b.first_death);
      ("deaths", deaths_eq);
      ("agents", agents_eq);
    ]
  in
  List.filter_map (fun (name, ok) -> if ok then None else Some name) checks

(* The names of the CSR arrays that differ between two routers, the
   joules compared bit for bit. *)
let csr_mismatches (a : Amb_net.Routing.t) (b : Amb_net.Routing.t) =
  let open Amb_net.Routing in
  let x = a.cache and y = b.cache in
  let same_bits u v =
    Array.length u = Array.length v
    && Array.for_all2 (fun p q -> Int64.equal (Int64.bits_of_float p) (Int64.bits_of_float q)) u v
  in
  List.filter_map
    (fun (name, ok) -> if ok then None else Some name)
    [ ("offsets", x.offsets = y.offsets); ("neighbors", x.neighbors = y.neighbors);
      ("edge_tx_j", same_bits x.edge_tx_j y.edge_tx_j) ]

let run_fleet_scale ~jobs ~nodes ~json_path =
  Printf.printf
    "=== fleet scale: %d nodes, one build, jobs 1 vs %d (%.0f s period, %.0f s horizon) ===\n%!"
    nodes jobs fleet_report_period_s fleet_horizon_s;
  Printf.printf "jobs=%d: %!" jobs;
  let fleet, _edges, _build_s, _timing = build_city_fleet ~jobs ~nodes in
  (* The build itself must not depend on the pool either: the same city
     at jobs=1 must give the same CSR arrays. *)
  (Printf.printf "jobs=1: %!";
   let sequential, _, _, _ = build_city_fleet ~jobs:1 ~nodes in
   match
     csr_mismatches sequential.Amb_system.Fleet.router fleet.Amb_system.Fleet.router
   with
   | [] -> Printf.printf "CSR build bitwise identical across pool sizes\n%!"
   | arrays ->
     Printf.eprintf "fleet-scale gate: jobs=%d CSR build diverges from jobs=1 on: %s\n" jobs
       (String.concat ", " arrays);
     exit 1);
  let o1, run1_s, _ = simulate_city_fleet ~jobs:1 fleet in
  let eps1 = if run1_s > 0.0 then Float.of_int o1.Amb_system.Cosim.events /. run1_s else Float.nan in
  Printf.printf "jobs=1: %d events in %.2f s (%.0f events/s)\n%!" o1.Amb_system.Cosim.events
    run1_s eps1;
  let on, runn_s, phasen = simulate_city_fleet ~jobs fleet in
  let epsn = if runn_s > 0.0 then Float.of_int on.Amb_system.Cosim.events /. runn_s else Float.nan in
  Printf.printf "jobs=%d: %d events in %.2f s (%.0f events/s; forward %.2f s)\n%!" jobs
    on.Amb_system.Cosim.events runn_s epsn phasen.Amb_system.Cosim.forward_s;
  (match outcome_mismatches o1 on with
  | [] -> Printf.printf "outcomes bitwise identical across pool sizes\n%!"
  | fields ->
    Printf.eprintf "fleet-scale gate: jobs=%d outcome diverges from jobs=1 on: %s\n" jobs
      (String.concat ", " fields);
    exit 1);
  let speedup = if runn_s > 0.0 then run1_s /. runn_s else Float.nan in
  Printf.printf "run-phase speedup: %.2fx\n%!" speedup;
  (match json_path with
  | None -> ()
  | Some path ->
    merge_section ~key:"fleet_scale" path
      (Json.Object
         [ ("nodes", Json.Number (Float.of_int nodes));
           ("jobs", Json.Number (Float.of_int jobs));
           ("run_s_jobs1", Json.Number run1_s);
           ("run_s_jobs_n", Json.Number runn_s);
           ("events", Json.Number (Float.of_int o1.Amb_system.Cosim.events));
           ("events_per_s_jobs1", Json.Number eps1);
           ("events_per_s_jobs_n", Json.Number epsn);
           ("speedup", Json.Number speedup);
           ("forward_s_jobs_n", Json.Number phasen.Amb_system.Cosim.forward_s);
           ("identical", Json.Bool true);
         ]);
    Printf.printf "merged \"fleet_scale\" section into %s\n" path);
  if nodes >= fleet_gate_nodes && eps1 < fleet_floor_for nodes then begin
    Printf.eprintf "fleet-scale gate: %.0f events/s sequential at %d nodes is below the %.0f floor\n"
      eps1 nodes (fleet_floor_for nodes);
    exit 1
  end;
  Printf.printf "fleet-scale gate passed at %d nodes (bitwise identity, %.0f events/s sequential)\n"
    nodes eps1

(* ------------------------------------------------------------------ *)
(* Matrix-harness gate: expand a fixed multi-axis grid, run it twice
   against one store, and record cells/sec, the second-pass cache-hit
   rate and peak heap.  The hard gates catch the harness's two failure
   modes: losing the digest-keyed cache (any second-pass miss means the
   config digest or row keying drifted) and a throughput collapse in
   the expand -> schedule -> row pipeline. *)

(* 2 fleet shapes x 2 policies x 2 fault plans x 3 seeds = 24 cells. *)
let matrix_bench_spec =
  "name = bench\nleaves = 6, 10\nrelays = 1\nhours = 4\n\
   policy = min-energy, min-hop\nfault = none, crash:1@2\nseeds = 1..3\n"

(* The reference machine measures ~600 cells/s on this grid; the floor
   sits ~30x below that, so it trips on order-of-magnitude regressions
   in the pipeline, not on slower CI machines. *)
let matrix_cells_per_s_floor = 20.0

let run_matrix ~jobs ~json_path =
  let spec =
    match Amb_harness.Scenario_spec.parse matrix_bench_spec with
    | Ok spec -> spec
    | Error msg ->
      Printf.eprintf "matrix bench spec: %s\n" msg;
      exit 1
  in
  let cells = Amb_harness.Scenario_spec.cell_count spec in
  Printf.printf "=== matrix: %d cells, two passes over one store (jobs=%d) ===\n%!" cells jobs;
  let store = Amb_harness.Result_store.in_memory () in
  let t0 = wall_clock () in
  let _, first = Amb_harness.Matrix.execute ~jobs ~store spec in
  let first_s = wall_clock () -. t0 in
  let t1 = wall_clock () in
  let _, second = Amb_harness.Matrix.execute ~jobs ~store spec in
  let second_s = wall_clock () -. t1 in
  let peak_words = Float.of_int (Gc.quick_stat ()).Gc.top_heap_words in
  let cells_per_s =
    if first_s > 0.0 then Float.of_int first.Amb_harness.Matrix.ran /. first_s
    else Float.nan
  in
  let hit_rate =
    if cells = 0 then 0.0
    else Float.of_int second.Amb_harness.Matrix.cached /. Float.of_int cells
  in
  Printf.printf "first pass: %d ran in %.2f s (%.1f cells/s), %d errors\n"
    first.Amb_harness.Matrix.ran first_s cells_per_s first.Amb_harness.Matrix.errors;
  Printf.printf "second pass: %d cached, %d ran in %.3f s (hit rate %.3f)\n"
    second.Amb_harness.Matrix.cached second.Amb_harness.Matrix.ran second_s hit_rate;
  Printf.printf "peak heap %.0f words\n%!" peak_words;
  (match json_path with
  | None -> ()
  | Some path ->
    merge_section ~key:"matrix" path
      (Json.Object
         [ ("cells", Json.Number (Float.of_int cells));
           ("jobs", Json.Number (Float.of_int jobs));
           ("first_pass_s", Json.Number first_s);
           ("cells_per_s", Json.Number cells_per_s);
           ("second_pass_s", Json.Number second_s);
           ("cache_hit_rate", Json.Number hit_rate);
           ("errors", Json.Number (Float.of_int first.Amb_harness.Matrix.errors));
           ("peak_heap_words", Json.Number peak_words);
         ]);
    Printf.printf "merged \"matrix\" section into %s\n" path);
  let failed = ref false in
  if hit_rate < 1.0 then begin
    Printf.eprintf "matrix gate: second-pass hit rate %.3f < 1.0 (%d cells recomputed)\n"
      hit_rate second.Amb_harness.Matrix.ran;
    failed := true
  end;
  if first.Amb_harness.Matrix.errors > 0 then begin
    Printf.eprintf "matrix gate: %d error rows in a clean grid\n"
      first.Amb_harness.Matrix.errors;
    failed := true
  end;
  if cells_per_s < matrix_cells_per_s_floor then begin
    Printf.eprintf "matrix gate: %.2f cells/s is below the %.2f floor\n" cells_per_s
      matrix_cells_per_s_floor;
    failed := true
  end;
  if !failed then exit 1;
  Printf.printf "matrix gate passed (hit rate 1.0, floor %.2f cells/s, 0 errors)\n"
    matrix_cells_per_s_floor

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  (* --jobs N anywhere on the command line; AMB_JOBS as the fallback. *)
  let rec extract_jobs = function
    | "--jobs" :: v :: _ -> (
      match int_of_string_opt v with
      | Some n when n >= 1 -> Some n
      | _ ->
        Printf.eprintf "--jobs expects a positive integer, got %s\n" v;
        exit 1)
    | _ :: rest -> extract_jobs rest
    | [] -> None
  in
  let jobs =
    match extract_jobs args with Some n -> n | None -> Amb_sim.Domain_pool.default_jobs ()
  in
  if List.mem "--quick" args then quick := true;
  let rec strip_jobs = function
    | "--jobs" :: _ :: rest -> strip_jobs rest
    | "--quick" :: rest -> strip_jobs rest
    | x :: rest -> x :: strip_jobs rest
    | [] -> []
  in
  match strip_jobs args with
  | _ :: "--list" :: _ ->
    List.iter
      (fun (id, desc, _) -> Printf.printf "%-4s %s\n" id desc)
      Amb_core.Experiments.all
  | _ :: "--run" :: id :: _ -> print_reports ~jobs:1 (Some id)
  | _ :: "--reports-only" :: _ -> print_reports ~jobs None
  | _ :: "--json" :: path :: _ -> write_json path ~jobs
  | _ :: "--compare" :: old_path :: new_path :: _ -> compare_snapshots old_path new_path
  | _ :: "--time" :: id :: runs :: _ -> (
    match int_of_string_opt runs with
    | Some n when n >= 1 -> time_one id n
    | _ ->
      Printf.eprintf "--time expects a positive run count, got %s\n" runs;
      exit 1)
  | _ :: "--time" :: id :: [] -> time_one id 5
  | _ :: "--fleet" :: counts :: rest -> (
    (* A single count or a comma-separated sweep: --fleet 10000,50000,100000 *)
    let parsed =
      List.map int_of_string_opt (String.split_on_char ',' counts)
    in
    let nodes_list =
      List.filter_map (function Some n when n >= 4 -> Some n | _ -> None) parsed
    in
    match nodes_list with
    | _ :: _ when List.length nodes_list = List.length parsed ->
      let json_path = match rest with "--json" :: path :: _ -> Some path | _ -> None in
      run_fleet ~jobs ~nodes_list ~json_path
    | _ ->
      Printf.eprintf "--fleet expects node counts >= 4 (comma-separated for a sweep), got %s\n"
        counts;
      exit 1)
  | _ :: "--fleet-scale" :: count :: rest -> (
    match int_of_string_opt count with
    | Some nodes when nodes >= 4 ->
      let json_path = match rest with "--json" :: path :: _ -> Some path | _ -> None in
      run_fleet_scale ~jobs ~nodes ~json_path
    | _ ->
      Printf.eprintf "--fleet-scale expects a node count >= 4, got %s\n" count;
      exit 1)
  | _ :: "--matrix" :: rest ->
    let json_path = match rest with "--json" :: path :: _ -> Some path | _ -> None in
    run_matrix ~jobs ~json_path
  | _ :: "--gc-stats" :: _ -> gc_stats ()
  | _ :: "--check-json" :: path :: _ -> check_json path
  | _ :: "--roundtrip-report" :: path :: _ -> roundtrip_report path
  | _ :: "--roundtrip-case-study" :: id :: _ -> roundtrip_case_study id
  | _ :: arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
    Printf.eprintf
      "unknown option %s (try --list, --run ID, --reports-only, --jobs N, --quick, --json FILE, \
       --compare OLD NEW, --time ID N, --fleet N[,N...] [--json FILE], --fleet-scale N \
       [--json FILE], --matrix [--json FILE], --gc-stats, --check-json FILE, \
       --roundtrip-report FILE, --roundtrip-case-study ID)\n"
      arg;
    exit 1
  | _ ->
    print_reports ~jobs None;
    run_timings ()
