(* One benchmark workload in one fresh process.

   Usage: bench.exe WORKLOAD --seed N [--trace] [--spans FILE] [--dir DIR]
          bench.exe percentiles < SAMPLES

   Prints one JSON line: the set-up times and the measured-phase host
   seconds, VmHWM at the end of the measured phase, the latency of each
   operation, the correctness verdict with the operations attempted and
   failed and, with --trace, the per-layer metrics taken from spans
   recorded around the calls into each layer.  The spans themselves go
   to --spans FILE.  [percentiles] summarises latency samples pooled
   over several runs. *)

open Amb_units
module Fleet = Amb_system.Fleet
module Cosim = Amb_system.Cosim
module Fault_plan = Amb_system.Fault_plan
module Fleet_ledger = Amb_system.Fleet_ledger
module Routing = Amb_net.Routing
module Domain_pool = Amb_sim.Domain_pool
module Result_store = Amb_harness.Result_store
module Serve = Amb_harness.Serve
module Matrix = Amb_harness.Matrix
module Scenario_spec = Amb_harness.Scenario_spec
module Json = Amb_report.Report_io.Json

let now = Unix.gettimeofday

type opts = {
  workload : string;
  seed : int;
  trace : bool;
  spans_file : string option;
  dir : string;
}

(* ------------------------------------------------------------------ *)
(* Result line                                                         *)

let jnum v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let jobj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields) ^ "}"

let jarr vs = "[" ^ String.concat "," (List.map jnum (Array.to_list vs)) ^ "]"

type result = {
  setups_s : float array;  (** every timed set-up of the run *)
  walls_s : float array;  (** measured-phase host seconds, one per measured phase *)
  peak_rss_mb : float;  (** VmHWM at the end of the measured phase *)
  latencies_s : float array;  (** one per operation timed in the measured phase *)
  attempted : int;
  failed : int;  (** operations whose output was wrong *)
  problems : string list;  (** every failed check, per operation or global *)
  layers : (string * float) list;
}

let gc_layers () =
  let st = Gc.quick_stat () in
  [
    ("Gc.top_heap_mb", Float.of_int st.Gc.top_heap_words *. 8.0 /. 1048576.0);
    ("Gc.minor_words", st.Gc.minor_words);
    ("Gc.major_collections", Float.of_int st.Gc.major_collections);
  ]

let print_result o r =
  List.iter (fun p -> prerr_endline ("check failed: " ^ p)) r.problems;
  print_endline
    (jobj
       [
         ("workload", Printf.sprintf "%S" o.workload);
         ("seed", string_of_int o.seed);
         ("traced", string_of_bool o.trace);
         ("setups_s", jarr r.setups_s);
         ("walls_s", jarr r.walls_s);
         ("peak_rss_mb", jnum r.peak_rss_mb);
         ("latencies_ms", jarr (Array.map (fun s -> s *. 1e3) r.latencies_s));
         ("attempted", string_of_int r.attempted);
         ("failed", string_of_int r.failed);
         ("correct", string_of_bool (r.problems = []));
         ("layers", jobj (List.map (fun (k, v) -> (k, jnum v)) r.layers));
       ])

(* [bench.exe percentiles]: nearest-rank p50 and p99 of the numbers on
   standard input, one per line, with the sample counts. *)
let print_percentiles () =
  let samples =
    In_channel.input_all stdin |> String.split_on_char '\n' |> List.map String.trim
    |> List.filter (( <> ) "") |> List.map float_of_string |> Array.of_list
  in
  let s = Pstats.summarize samples in
  print_endline
    (jobj
       [
         ("p50", jnum s.Pstats.p50);
         ("p99", jnum s.Pstats.p99);
         ("samples", string_of_int s.Pstats.n);
         ("above_p99", string_of_int s.Pstats.above_p99);
       ])

(* Span bookkeeping shared by both workloads: per-name self
   times, and a failed check for every parent whose children and
   residual do not add up to it. *)
let finish_spans o spans =
  let tree = Spans.tree spans in
  (match o.spans_file with
  | Some path -> Out_channel.with_open_bin path (fun oc -> output_string oc (Spans.to_jsonl tree))
  | None -> ());
  let problems =
    List.map
      (fun (name, dur, sum) ->
        Printf.sprintf "span %s lasts %.9f s but its subtree self times sum to %.9f s" name dur sum)
      (Spans.unbalanced tree)
  in
  (Spans.self_by_name tree, problems)

let self_of selfs name = Option.value ~default:0.0 (List.assoc_opt name selfs)

(* ------------------------------------------------------------------ *)
(* City workload                                                       *)

type city = {
  nodes : int;
  tags : int;
  leaf_period_s : float;
  horizon_s : float;
  crashes : int;  (** relay crashes spread over the horizon *)
  weak_leaves : int;  (** leaves whose battery is scaled down *)
}

let city_faults_j1 =
  { nodes = 8_000; tags = 320; leaf_period_s = 300.0; horizon_s = 3600.0; crashes = 20;
    weak_leaves = 320 }

(* Domains of the pooled replay that must reproduce the measured run. *)
let pooled_jobs = 2

(* Whole-city operations timed per untraced run, after [city_warmup]
   untimed ones: a process's first operation runs on a cold heap and
   reads up to 1.6 times the later ones. *)
let city_ops = 2
let city_warmup = 1

(* District requests: small cities of five sizes, on both sides of the
   512-node grid threshold and below the others, each built and
   simulated over the same hour under a scaled-down fault plan.
   [districts_per_city] of them, six of each size, precede each
   whole-city operation.  So about 3 % of all operations are whole-city
   ones and p99 lands inside that class with many samples above it,
   instead of on the slowest of a few dozen identical operations, and
   the median lands inside the middle size class instead of between
   two of them. *)
let district_sizes = [| 100; 200; 300; 450; 650 |]
let districts_per_city = 30

let district c k =
  let nodes = district_sizes.(k mod Array.length district_sizes) in
  { c with nodes; tags = nodes / 25; crashes = 1; weak_leaves = nodes / 25 }

(* The fault plan: [crashes] relays die at evenly spaced instants over
   the horizon, and [weak_leaves] leaves start with batteries scaled
   evenly between 1e-6 and 1e-5 of their capacity, so that their deaths
   fall inside it.  Both are picked at evenly spaced ranks of their
   tier, and the plan is the same for every seed (the seed still places
   the leaves and phases the reports): with seeded instants and nodes
   the pooled replay's peak heap swung between 130 and 520 MB by seed. *)
let fault_plan c fleet =
  let spread k n = (Float.of_int k +. 0.5) /. Float.of_int n in
  let evenly k tier =
    let pool = Fleet.tier_nodes fleet tier in
    Array.init (Stdlib.min k (Array.length pool)) (fun i ->
        pool.(Float.to_int (spread i k *. Float.of_int (Array.length pool))))
  in
  let crashes =
    Array.mapi
      (fun k node ->
        Fault_plan.Node_crash { node; at = Time_span.seconds (c.horizon_s *. spread k c.crashes) })
      (evenly c.crashes Fleet.Relay)
  in
  let weak =
    Array.mapi
      (fun k node ->
        Fault_plan.Battery_scale { node; scale = 1e-6 *. (1.0 +. (9.0 *. spread k c.weak_leaves)) })
      (evenly c.weak_leaves Fleet.Sensor_leaf)
  in
  Array.to_list crashes @ Array.to_list weak

(* Exact digest of everything a run reports except the agent array:
   floats are rendered in hexadecimal so equal digests mean equal bits. *)
let outcome_digest (o : Cosim.outcome) =
  let b = Buffer.create 4096 in
  let f x = Buffer.add_string b (Printf.sprintf "%h;" x) in
  let i x = Buffer.add_string b (Printf.sprintf "%d;" x) in
  i o.Cosim.generated;
  i o.Cosim.delivered;
  i o.Cosim.dropped;
  f o.Cosim.delivery_ratio;
  (match o.Cosim.first_death with Some t -> f (Time_span.to_seconds t) | None -> i (-1));
  List.iter
    (fun (node, t) ->
      i node;
      f (Time_span.to_seconds t))
    o.Cosim.deaths;
  i o.Cosim.dead_at_end;
  f (Energy.to_joules o.Cosim.energy_spent);
  f (Energy.to_joules o.Cosim.energy_harvested);
  f o.Cosim.availability;
  f o.Cosim.mean_coverage;
  i o.Cosim.rebuilds;
  i o.Cosim.events;
  Digest.to_hex (Digest.string (Buffer.contents b))

let with_pool jobs f =
  let pool = Domain_pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) (fun () -> f pool)

(* A closed loop of city operations with one client.  An operation
   builds a fleet and simulates it without a pool, the sequential path;
   its latency is the build plus the run.  A whole-city operation
   follows every [districts_per_city] district operations; set-up and
   measured-phase times are the whole-city builds and runs.  An
   untraced run starts with [city_warmup] untimed rounds (a quarter of
   the districts and one whole city), then times [city_ops] rounds; a
   traced run traces one whole-city operation and makes no district
   ones.  The seed fixes the whole city, so every whole-city operation
   must give the first one's outcome.  After the measured phase,
   outside timing, the last whole city is simulated once more on a
   [pooled_jobs]-domain pool, the parallel report replay, which must
   reproduce it bit for bit. *)
let run_city (o : opts) (c : city) =
  let spans = Spans.create ~clock:now in
  let leaf = Fleet.microwatt_leaf ~report_period:(Time_span.seconds c.leaf_period_s) () in
  let build_hook = Spans.hook ~now in
  let timing = Fleet.build_timing ~clock:(Spans.hook_clock build_hook) in
  Spans.watch build_hook
    [
      ("Fleet.layout", fun () -> timing.Fleet.layout_s);
      ("Fleet.topology", fun () -> timing.Fleet.topology_s);
      ("Routing.csr", fun () -> timing.Fleet.csr_s);
    ];
  let run_hook = Spans.hook ~now in
  let phase = Cosim.phase_times ~clock:(Spans.hook_clock run_hook) in
  Spans.watch run_hook
    [
      ("Cosim.forward", fun () -> phase.Cosim.forward_s);
      ("Cosim.account", fun () -> phase.Cosim.account_s);
      ("Cosim.rebuild", fun () -> phase.Cosim.rebuild_s);
    ];
  let build ~traced (c : city) seed () =
    Fleet.city ~leaf ~tags:c.tags ~jobs:1 ?timing:(if traced then Some timing else None)
      ~nodes:c.nodes ~seed ()
  in
  let configure (c : city) fleet =
    Cosim.config ~fleet ~horizon:(Time_span.seconds c.horizon_s) ~faults:(fault_plan c fleet) ()
  in
  let simulate ~traced fleet cfg seed =
    Cosim.run_with_router ?phase:(if traced then Some phase else None)
      ~router:fleet.Fleet.router cfg ~seed
  in
  let traced name hook f =
    Spans.with_span spans name (fun id ->
        let v = f () in
        List.iter
          (fun (name, start, stop) -> ignore (Spans.record spans ~parent:id name ~start ~stop))
          (Spans.hook_intervals hook);
        v)
  in
  let problems = ref [] and attempted = ref 0 and failed = ref 0 in
  (* One operation: build and simulate, then check; returns the build
     and run seconds, the fleet, its configuration, the outcome and
     whether the checks failed. *)
  let operation ~traced:tr ?(same_as = None) (c : city) seed =
    let t0 = now () in
    let fleet =
      if tr then traced "Fleet.city" build_hook (build ~traced:true c seed)
      else build ~traced:false c seed ()
    in
    let setup_s = now () -. t0 in
    let cfg = configure c fleet in
    let t0 = now () in
    let outcome =
      if tr then
        traced "Cosim.run_with_router" run_hook (fun () -> simulate ~traced:true fleet cfg seed)
      else simulate ~traced:false fleet cfg seed
    in
    let wall_s = now () -. t0 in
    let g = outcome.Cosim.generated and d = outcome.Cosim.delivered in
    let x = outcome.Cosim.dropped in
    let op_problems =
      (if d < 0 || x < 0 || d + x > g then
         [ Printf.sprintf "delivered %d + dropped %d exceeds generated %d" d x g ]
       else [])
      @ (if outcome.Cosim.events <= 0 then [ "the run executed no events" ] else [])
      @
      match same_as with
      | Some digest when outcome_digest outcome <> digest ->
        [ "a repeated run of the same fleet gave another outcome" ]
      | _ -> []
    in
    incr attempted;
    if op_problems <> [] then incr failed;
    problems := List.rev_append op_problems !problems;
    (setup_s, wall_s, fleet, cfg, outcome, op_problems <> [])
  in
  let next_district = ref 0 in
  let ops = if o.trace then 1 else city_ops in
  let per_city = if o.trace then 0 else districts_per_city in
  let setups_s = Array.make ops 0.0 and walls_s = Array.make ops 0.0 in
  let latencies = ref [] in
  let first = ref None and last = ref None in
  for k = -city_warmup to ops - 1 do
    last := None;
    let timed = k >= 0 in
    for _ = 1 to if timed then per_city else per_city / 4 do
      let j = !next_district in
      incr next_district;
      let seed = o.seed + 1 + j in
      let setup_s, wall_s, _, _, _, _ = operation ~traced:false (district c j) seed in
      if timed then latencies := (setup_s +. wall_s) :: !latencies
    done;
    let setup_s, wall_s, fleet, cfg, outcome, op_failed =
      operation ~traced:(o.trace && timed) ~same_as:!first c o.seed
    in
    if timed then begin
      setups_s.(k) <- setup_s;
      walls_s.(k) <- wall_s;
      latencies := (setup_s +. wall_s) :: !latencies
    end;
    if !first = None then first := Some (outcome_digest outcome);
    last := Some (fleet, cfg, outcome, op_failed)
  done;
  let peak_rss_mb = Vmhwm.read_mb () in
  let fleet, cfg, outcome, last_failed = Option.get !last in
  let pooled, pooled_wall_s =
    with_pool pooled_jobs (fun pool ->
        let t0 = now () in
        let pooled = Cosim.run_with_router ~pool ~router:fleet.Fleet.router cfg ~seed:o.seed in
        (pooled, now () -. t0))
  in
  if outcome_digest pooled <> outcome_digest outcome then begin
    if not last_failed then incr failed;
    problems :=
      Printf.sprintf "the jobs=%d outcome differs from the jobs=1 outcome" pooled_jobs
      :: !problems
  end;
  let layers, span_problems =
    if not o.trace then ([], [])
    else
      let selfs, span_problems = finish_spans o spans in
      let n = Fleet.node_count fleet in
      let edges =
        match Routing.adjacency fleet.Fleet.router with
        | Some (offsets, _) -> offsets.(Array.length offsets - 1)
        | None -> 0
      in
      let ledger = Fleet_ledger.of_agents outcome.Cosim.agents in
      ( [
          ("Fleet.layout_s", self_of selfs "Fleet.layout");
          ("Fleet.topology_s", self_of selfs "Fleet.topology");
          ("Routing.csr_s", self_of selfs "Routing.csr");
          ("Fleet.residual_s", self_of selfs "Fleet.city");
          ("Routing.edges", Float.of_int edges);
          ("Cosim.forward_s", self_of selfs "Cosim.forward");
          ("Cosim.account_s", self_of selfs "Cosim.account");
          ("Cosim.rebuild_s", self_of selfs "Cosim.rebuild");
          ("Cosim.unattributed_s", self_of selfs "Cosim.run_with_router");
          ("Cosim.pooled_wall_s", pooled_wall_s);
          ("Engine.events", Float.of_int outcome.Cosim.events);
          ("Cosim.ns_per_event", walls_s.(0) *. 1e9 /. Float.of_int (Stdlib.max 1 outcome.Cosim.events));
          ("Cosim.rebuilds", Float.of_int outcome.Cosim.rebuilds);
          ("Cosim.deaths", Float.of_int (List.length outcome.Cosim.deaths));
          ("Cosim.dropped", Float.of_int outcome.Cosim.dropped);
          ("Fleet_ledger.words_per_node",
            Float.of_int (Fleet_ledger.words ledger) /. Float.of_int n);
        ]
        @ gc_layers (),
        span_problems )
  in
  {
    setups_s;
    walls_s;
    peak_rss_mb;
    latencies_s = Array.of_list (List.rev !latencies);
    attempted = !attempted;
    failed = !failed;
    problems = List.rev_append !problems span_problems;
    layers;
  }

(* ------------------------------------------------------------------ *)
(* Serve sweep                                                         *)

let stream_length = 1500
let store_loads = 30

(* The fields of a [run]/[stats] answer the checks look at. *)
type answer = {
  status : string;
  cells : int;
  ran : int;
  cached : int;
  errors : int;
  store_rows : int;
  rows : string;  (** the bytes between the brackets of ["rows":[...]] *)
}

let no_answer = { status = "?"; cells = -1; ran = -1; cached = -1; errors = -1; store_rows = -1; rows = "" }

let answer_of_response resp =
  match Json.parse resp with
  | exception Json.Parse_error _ -> no_answer
  | j ->
    let int key =
      match Json.member key j with Some (Json.Number v) -> Float.to_int v | _ -> -1
    in
    let rows =
      let marker = "\"rows\":[" in
      let m = String.length marker and n = String.length resp in
      let rec find i =
        if i + m > n then ""
        else if String.sub resp i m = marker then String.sub resp (i + m) (n - i - m - 2)
        else find (i + 1)
      in
      find 0
    in
    {
      status = (match Json.member "status" j with Some (Json.String s) -> s | _ -> "?");
      cells = int "cells";
      ran = int "ran";
      cached = int "cached";
      errors = int "errors";
      store_rows = int "store_rows";
      rows;
    }

(* Serve's rendering of a request member into spec-axis text. *)
let rec axis_text = function
  | Json.String s -> Some s
  | Json.Number v ->
    Some
      (if Float.is_integer v && Float.abs v < 1e15 then string_of_int (Float.to_int v)
       else Scenario_spec.float_str v)
  | Json.Bool b -> Some (string_of_bool b)
  | Json.List items ->
    let texts = List.filter_map axis_text items in
    if List.length texts = List.length items then Some (String.concat "," texts) else None
  | _ -> None

let status_of_row line =
  match Result_store.entry_of_line line with Ok e -> e.Result_store.status | Error _ -> "error"

(* A [run] request taken through the public calls that
   [Serve.handle_line] and [Matrix.execute] make at jobs = 1, with a
   span around each; [None] when the request is not a renderable [run]
   object, which the caller hands to [Serve.handle_line] itself.  This
   mirror exists only in traced runs, which check it afterwards against
   [Serve.handle_line] itself (see [check_mirror]). *)
let traced_run spans ~parent store line =
  match Json.parse line with
  | exception Json.Parse_error _ -> None
  | Json.Object members when Json.member "op" (Json.Object members) = Some (Json.String "run")
    -> (
    let pairs =
      List.filter_map
        (fun (k, v) -> if k = "op" then None else Some (k, axis_text v))
        members
    in
    if List.exists (fun (_, v) -> v = None) pairs then None
    else
      let pairs = List.map (fun (k, v) -> (k, Option.get v)) pairs in
      match
        Spans.with_span spans ~parent "Scenario_spec.parse_kv" (fun _ ->
            Scenario_spec.parse_kv pairs)
      with
      | Error _ -> Some { no_answer with status = "error" }
      | Ok spec ->
        let cells = Spans.with_span spans ~parent "Matrix.expand" (fun _ -> Matrix.expand spec) in
        let found =
          Array.map
            (fun c ->
              let config = Matrix.config_digest c in
              Spans.with_span spans ~parent "Result_store.find" (fun _ ->
                  Result_store.find store ~config ~seed:c.Matrix.seed))
            cells
        in
        let rows =
          Array.mapi
            (fun i c ->
              match found.(i) with
              | Some line -> line
              | None ->
                let row =
                  Spans.with_span spans ~parent "Matrix.run_cell" (fun _ -> Matrix.run_cell c)
                in
                Spans.with_span spans ~parent "Result_store.append" (fun _ ->
                    Result_store.append store row);
                row)
            cells
        in
        let cached = Array.fold_left (fun k f -> if f = None then k else k + 1) 0 found in
        let errors =
          Array.fold_left (fun k r -> if status_of_row r = "error" then k + 1 else k) 0 rows
        in
        Some
          {
            status = "ok";
            cells = Array.length cells;
            ran = Array.length cells - cached;
            cached;
            errors;
            store_rows = -1;
            rows = String.concat "," (Array.to_list rows);
          })
  | _ -> None

(* Answers the traced run's mirror gave must be the ones
   [Serve.handle_line] gives: replay the stream, outside timing, through
   a fresh session over a copy of the store as it was before the
   stream, and compare every mirrored answer field by field.  Returns
   the stream indices where they disagree. *)
let check_mirror ~store_copy reqs answers mirrored =
  let st = match Result_store.load store_copy with Ok st -> st | Error e -> failwith e in
  let srv = Serve.create ~store:st () in
  let disagree = ref [] in
  Array.iteri
    (fun i (r : Requests.request) ->
      let a = answer_of_response (fst (Serve.handle_line srv r.Requests.line)) in
      let m = answers.(i) in
      if mirrored.(i)
         && (a.status <> m.status
            || (a.status = "ok"
               && (a.cells, a.ran, a.cached, a.errors, a.rows)
                  <> (m.cells, m.ran, m.cached, m.errors, m.rows)))
      then disagree := i :: !disagree)
    reqs;
  Result_store.close st;
  List.rev !disagree

let run_serve (o : opts) =
  let stream = Requests.generate ~seed:o.seed ~count:stream_length in
  let path = Filename.concat o.dir (Printf.sprintf "serve-%d-%d.jsonl" o.seed (Unix.getpid ())) in
  let load () =
    match Result_store.load path with Ok st -> st | Error e -> failwith ("store: " ^ e)
  in
  let store_copy = path ^ ".copy" in
  Fun.protect ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ path; store_copy ])
  @@ fun () ->
  (* Pre-seed the store outside timing; remember each grid's rows. *)
  let preseed_rows = Hashtbl.create 256 in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (let st = load () in
   let srv = Serve.create ~store:st () in
   List.iter
     (fun line ->
       let a = answer_of_response (fst (Serve.handle_line srv line)) in
       if a.status <> "ok" then problem "pre-seed request failed: %s" line;
       Hashtbl.replace preseed_rows line a.rows)
     stream.Requests.preseed;
   Result_store.close st);
  if o.trace then
    Out_channel.with_open_bin store_copy (fun oc ->
        output_string oc (In_channel.with_open_bin path In_channel.input_all));
  let spans = Spans.create ~clock:now in
  (* Set-up: open the pre-seeded store and a session, [store_loads]
     times; the last one serves the stream. *)
  let setups = Array.make store_loads 0.0 in
  let session = ref None in
  for k = 0 to store_loads - 1 do
    Option.iter (fun (st, _) -> Result_store.close st) !session;
    let t0 = now () in
    let st =
      if o.trace then Spans.with_span spans "Result_store.load" (fun _ -> load ()) else load ()
    in
    let srv =
      if o.trace then Spans.with_span spans "Serve.create" (fun _ -> Serve.create ~store:st ())
      else Serve.create ~store:st ()
    in
    setups.(k) <- now () -. t0;
    session := Some (st, srv)
  done;
  let store, srv = Option.get !session in
  let loaded_rows = Result_store.size store in
  let reqs = stream.Requests.requests in
  let n = Array.length reqs in
  let latencies = Array.make n 0.0 in
  let answers = Array.make n no_answer in
  let responses = Array.make n "" in
  let mirrored = Array.make n false in
  let serve_one parent i =
    let line = reqs.(i).Requests.line in
    match if o.trace then traced_run spans ~parent store line else None with
    | Some a ->
      answers.(i) <- a;
      mirrored.(i) <- true
    | None ->
      let resp =
        if o.trace then
          Spans.with_span spans ~parent "Serve.handle_line" (fun _ -> fst (Serve.handle_line srv line))
        else fst (Serve.handle_line srv line)
      in
      responses.(i) <- resp
  in
  let t0 = now () in
  if o.trace then
    Spans.with_span spans "stream" (fun stream_id ->
        for i = 0 to n - 1 do
          let s = now () in
          Spans.with_span spans ~parent:stream_id "request" (fun id -> serve_one id i);
          latencies.(i) <- now () -. s
        done)
  else
    for i = 0 to n - 1 do
      let s = now () in
      serve_one 0 i;
      latencies.(i) <- now () -. s
    done;
  let wall_s = now () -. t0 in
  let peak_rss_mb = Vmhwm.read_mb () in
  (* Checks, outside timing. *)
  Array.iteri (fun i r -> if r <> "" then answers.(i) <- answer_of_response r) responses;
  let store_rows = ref loaded_rows in
  let ran = ref 0 and hits = ref 0 and cells_total = ref 0 and error_rows = ref 0 in
  let failed = ref 0 in
  Array.iteri
    (fun i (r : Requests.request) ->
      let a = answers.(i) in
      let fail what =
        incr failed;
        problem "request %d (%s): %s" i what r.Requests.line
      in
      match r.Requests.kind with
      | Requests.Fresh { cells; errors; preseeded } ->
        let expect_ran = if preseeded then 0 else cells in
        if a.status <> "ok" || a.cells <> cells || a.ran <> expect_ran
           || a.cached <> cells - expect_ran || a.errors <> errors
        then fail "fresh grid answered with the wrong counts"
        else if preseeded && Some a.rows <> Hashtbl.find_opt preseed_rows r.Requests.line then
          fail "pre-seeded rows differ from the stored ones";
        store_rows := !store_rows + expect_ran;
        ran := !ran + a.ran;
        hits := !hits + a.cached;
        cells_total := !cells_total + a.cells;
        error_rows := !error_rows + Stdlib.max 0 a.errors
      | Requests.Repeat first ->
        let f = answers.(first) in
        if a.status <> "ok" || a.ran <> 0 || a.cached <> a.cells || a.rows <> f.rows then
          fail "repeat not answered from the cache with identical rows";
        hits := !hits + a.cached;
        cells_total := !cells_total + a.cells;
        error_rows := !error_rows + Stdlib.max 0 a.errors
      | Requests.Malformed -> if a.status <> "error" then fail "malformed request not refused"
      | Requests.Stats ->
        if a.status <> "ok" || (a.store_rows >= 0 && a.store_rows <> !store_rows) then
          fail "stats answer disagrees with the store")
    reqs;
  if Result_store.size store <> !store_rows then
    problem "store holds %d rows, expected %d" (Result_store.size store) !store_rows;
  Result_store.close store;
  if o.trace then
    List.iter
      (fun i -> problem "request %d: the traced mirror and Serve.handle_line disagree" i)
      (check_mirror ~store_copy reqs answers mirrored);
  let layers, span_problems =
    if not o.trace then ([], [])
    else
      let selfs, span_problems = finish_spans o spans in
      ( [
          ("Result_store.load_s", self_of selfs "Result_store.load" /. Float.of_int store_loads);
          ("Result_store.rows", Float.of_int loaded_rows);
          ("Scenario_spec.parse_s", self_of selfs "Scenario_spec.parse_kv");
          ("Matrix.expand_s", self_of selfs "Matrix.expand");
          ("Result_store.find_s", self_of selfs "Result_store.find");
          ("Result_store.append_s", self_of selfs "Result_store.append");
          ("Matrix.run_cell_s", self_of selfs "Matrix.run_cell");
          ("Matrix.cells_ran", Float.of_int !ran);
          ("Matrix.error_rows", Float.of_int !error_rows);
          ("Serve.cache_hit_ratio", Float.of_int !hits /. Float.of_int (Stdlib.max 1 !cells_total));
          ("Serve.handle_line_s", self_of selfs "Serve.handle_line");
          ("Serve.residual_s", self_of selfs "request");
        ]
        @ gc_layers (),
        span_problems )
  in
  {
    setups_s = setups;
    walls_s = [| wall_s |];
    peak_rss_mb;
    latencies_s = latencies;
    attempted = n;
    failed = !failed;
    problems = List.rev_append !problems span_problems;
    layers;
  }

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: bench.exe (city-faults-j1|serve-sweep) --seed N [--trace] [--spans FILE] \
     [--dir DIR]\n       bench.exe percentiles < SAMPLES";
  exit 2

let parse_args () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec go o = function
    | [] -> o
    | "--seed" :: v :: rest -> (
      match int_of_string_opt v with Some s -> go { o with seed = s } rest | None -> usage ())
    | "--trace" :: rest -> go { o with trace = true } rest
    | "--spans" :: v :: rest -> go { o with spans_file = Some v } rest
    | "--dir" :: v :: rest -> go { o with dir = v } rest
    | _ -> usage ()
  in
  match args with
  | workload :: rest ->
    go { workload; seed = 1; trace = false; spans_file = None; dir = "." } rest
  | [] -> usage ()

let () =
  let o = parse_args () in
  let r =
    match o.workload with
    | "percentiles" ->
      print_percentiles ();
      exit 0
    | "city-faults-j1" -> run_city o city_faults_j1
    | "serve-sweep" -> run_serve o
    | _ -> usage ()
  in
  print_result o r
