(* Tests of the benchmark's own arithmetic and inputs: latency
   percentiles, span self times and residuals, VmHWM parsing, and the
   serve-sweep request generator. *)

let close = Alcotest.float 1e-12

(* ---- percentiles ---- *)

let test_percentile_nearest_rank () =
  let sorted = Array.init 100 (fun i -> Float.of_int (i + 1)) in
  Alcotest.check close "p50 of 1..100" 50.0 (Pstats.percentile sorted 50.0);
  Alcotest.check close "p99 of 1..100" 99.0 (Pstats.percentile sorted 99.0);
  Alcotest.check close "p100 is the max" 100.0 (Pstats.percentile sorted 100.0);
  Alcotest.check close "p1 is the min" 1.0 (Pstats.percentile sorted 1.0);
  Alcotest.check close "single sample" 7.0 (Pstats.percentile [| 7.0 |] 99.0);
  Alcotest.check close "p50 of two is the lower" 1.0 (Pstats.percentile [| 1.0; 2.0 |] 50.0)

let test_percentile_rejects () =
  Alcotest.check_raises "no samples" (Invalid_argument "Pstats.percentile: no samples")
    (fun () -> ignore (Pstats.percentile [||] 50.0));
  Alcotest.check_raises "p = 0" (Invalid_argument "Pstats.percentile: p outside (0, 100]")
    (fun () -> ignore (Pstats.percentile [| 1.0 |] 0.0))

let test_summary_counts () =
  (* 1000 distinct samples in scrambled order: p99 is the 990th, with
     exactly ten samples above it. *)
  let samples = Array.init 1000 (fun i -> Float.of_int ((i * 7919) mod 1000)) in
  let s = Pstats.summarize samples in
  Alcotest.(check int) "sample count" 1000 s.Pstats.n;
  Alcotest.check close "p50" 499.0 s.Pstats.p50;
  Alcotest.check close "p99" 989.0 s.Pstats.p99;
  Alcotest.(check int) "samples above p99" 10 s.Pstats.above_p99;
  Alcotest.check close "input left unsorted" 0.0 samples.(0);
  Alcotest.check close "input left unsorted" 919.0 samples.(1);
  (* Ties at the percentile are not above it. *)
  let tied = Pstats.summarize (Array.append (Array.make 985 1.0) (Array.make 15 2.0)) in
  Alcotest.check close "tied p99" 2.0 tied.Pstats.p99;
  Alcotest.(check int) "nothing above a tied max" 0 tied.Pstats.above_p99

(* ---- spans ---- *)

(* A clock that returns the given instants in order. *)
let scripted times =
  let q = ref times in
  fun () ->
    match !q with
    | t :: rest ->
      q := rest;
      t
    | [] -> failwith "scripted clock exhausted"

let find_span tree name = List.find (fun s -> s.Spans.name = name) tree.Spans.all

let test_self_time_and_residual () =
  (* root [0,10] with children a [1,4] and b [5,9]; a has child c [2,3]. *)
  let t = Spans.create ~clock:(scripted [ 0.0; 1.0; 2.0; 3.0; 4.0; 5.0; 9.0; 10.0 ]) in
  Spans.with_span t "root" (fun root ->
      Spans.with_span t ~parent:root "a" (fun a -> Spans.with_span t ~parent:a "c" (fun _ -> ()));
      Spans.with_span t ~parent:root "b" (fun _ -> ()));
  let tree = Spans.tree t in
  let self name = Spans.self_time tree (find_span tree name) in
  Alcotest.check close "root residual = 10 - 3 - 4" 3.0 (self "root");
  Alcotest.check close "a self = 3 - 1" 2.0 (self "a");
  Alcotest.check close "b self" 4.0 (self "b");
  Alcotest.check close "c self" 1.0 (self "c");
  Alcotest.check close "subtree self times add up to the root" 10.0
    (Spans.subtree_self tree (find_span tree "root"));
  Alcotest.(check int) "balanced" 0 (List.length (Spans.unbalanced tree));
  Alcotest.(check (list (pair string close)))
    "self by name, first-seen order"
    [ ("root", 3.0); ("a", 2.0); ("c", 1.0); ("b", 4.0) ]
    (Spans.self_by_name tree)

let test_overlap_is_unbalanced () =
  (* Two children overlapping on [3,4]: the union covers 5 s, so the
     residual is 5, but the children's own self times sum to 6. *)
  let t = Spans.create ~clock:(fun () -> 0.0) in
  let root = Spans.record t "root" ~start:0.0 ~stop:10.0 in
  ignore (Spans.record t ~parent:root "x" ~start:1.0 ~stop:4.0);
  ignore (Spans.record t ~parent:root "y" ~start:3.0 ~stop:6.0);
  let tree = Spans.tree t in
  Alcotest.check close "residual uses the union" 5.0
    (Spans.self_time tree (find_span tree "root"));
  match Spans.unbalanced tree with
  | [ (name, dur, sum) ] ->
    Alcotest.(check string) "the overlapping parent" "root" name;
    Alcotest.check close "duration" 10.0 dur;
    Alcotest.check close "sum" 11.0 sum
  | l -> Alcotest.failf "expected one unbalanced span, got %d" (List.length l)

let test_covered_clips () =
  Alcotest.check close "clipped to the parent" 1.5
    (Spans.covered ~lo:1.0 ~hi:3.0 [ (0.0, 2.0); (2.5, 9.0) ]);
  Alcotest.check close "nested intervals count once" 4.0
    (Spans.covered ~lo:0.0 ~hi:10.0 [ (1.0, 5.0); (2.0, 3.0) ])

let test_hook_recovers_intervals () =
  (* The two clock-read patterns the program uses: start/stop pairs
     (Cosim.phase_times) and a chain of stamps (Fleet.build_timing). *)
  let a = ref 0.0 and b = ref 0.0 in
  let h = Spans.hook ~now:(scripted [ 1.0; 3.0; 4.0; 4.5; 7.0; 10.0 ]) in
  Spans.watch h [ ("a", fun () -> !a); ("b", fun () -> !b) ];
  let clock = Spans.hook_clock h in
  (* pair: a over [1,3] *)
  let t0 = clock () in
  a := !a +. (clock () -. t0);
  (* pair: b over [4,4.5] *)
  let t0 = clock () in
  b := !b +. (clock () -. t0);
  (* chain: a over [7,10], stamp reused as the next start *)
  let s = clock () in
  let now = clock () in
  a := !a +. (now -. s);
  Alcotest.(check (list (triple string close close)))
    "intervals"
    [ ("a", 1.0, 3.0); ("b", 4.0, 4.5); ("a", 7.0, 10.0) ]
    (Spans.hook_intervals h)

(* ---- VmHWM ---- *)

let status =
  "Name:\tbench.exe\nVmPeak:\t  612340 kB\nVmHWM:\t  296068 kB\nVmRSS:\t  295000 kB\n"

let test_vmhwm_parse () =
  Alcotest.(check (option int)) "VmHWM line" (Some 296068) (Vmhwm.parse_kb status);
  Alcotest.(check (option int)) "missing" None (Vmhwm.parse_kb "VmRSS:\t 1 kB\n");
  Alcotest.(check (option int)) "no unit" None (Vmhwm.parse_kb "VmHWM:\t 12\n");
  Alcotest.(check (option int)) "not a number" None (Vmhwm.parse_kb "VmHWM:\t x kB\n");
  Alcotest.(check (option int)) "prefix is not enough" None (Vmhwm.parse_kb "VmHWMX:\t 5 kB\n")

let test_vmhwm_self () =
  let mb = Vmhwm.read_mb () in
  Alcotest.(check bool) "this process has a positive peak RSS" true (mb > 0.0)

(* ---- request stream ---- *)

let lines s = Array.to_list (Array.map (fun r -> r.Requests.line) s.Requests.requests)

let test_stream_deterministic () =
  let a = Requests.generate ~seed:7 ~count:400 and b = Requests.generate ~seed:7 ~count:400 in
  Alcotest.(check (list string)) "same seed, same bytes" (lines a) (lines b);
  Alcotest.(check (list string)) "same pre-seed" a.Requests.preseed b.Requests.preseed;
  let c = Requests.generate ~seed:8 ~count:400 in
  Alcotest.(check bool) "another seed, another stream" false (lines a = lines c)

let test_stream_shape () =
  let s = Requests.generate ~seed:3 ~count:2000 in
  let count p = Array.fold_left (fun k r -> if p r.Requests.kind then k + 1 else k) 0 s.Requests.requests in
  let fresh = count (function Requests.Fresh _ -> true | _ -> false) in
  let repeats = count (function Requests.Repeat _ -> true | _ -> false) in
  let odd = count (function Requests.Malformed | Requests.Stats -> true | _ -> false) in
  let share k = Float.of_int k /. 2000.0 in
  Alcotest.(check bool) "about 70 % fresh" true (Float.abs (share fresh -. 0.70) < 0.04);
  Alcotest.(check bool) "about 25 % repeats" true (Float.abs (share repeats -. 0.25) < 0.04);
  Alcotest.(check bool) "a few malformed or stats" true (odd > 0 && share odd < 0.1);
  (match s.Requests.requests.(0).Requests.kind with
  | Requests.Fresh _ -> ()
  | _ -> Alcotest.fail "the stream must open with a fresh grid");
  Array.iteri
    (fun i r ->
      match r.Requests.kind with
      | Requests.Repeat first ->
        Alcotest.(check bool) "repeats look back" true (first < i);
        Alcotest.(check string) "repeats resend the bytes" s.Requests.requests.(first).Requests.line
          r.Requests.line
      | Requests.Fresh { cells; errors; preseeded } ->
        Alcotest.(check bool) "1 to 4 cells" true (cells >= 1 && cells <= 4);
        Alcotest.(check bool) "errors within cells" true (errors >= 0 && errors <= cells);
        Alcotest.(check bool) "pre-seed list holds pre-seeded grids" preseeded
          (List.mem r.Requests.line s.Requests.preseed)
      | _ -> ())
    s.Requests.requests;
  let fresh_lines =
    List.filter_map
      (fun r -> match r.Requests.kind with Requests.Fresh _ -> Some r.Requests.line | _ -> None)
      (Array.to_list s.Requests.requests)
  in
  Alcotest.(check int) "fresh grids are distinct" (List.length fresh_lines)
    (List.length (List.sort_uniq compare fresh_lines))

let () =
  Alcotest.run "perfbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "nearest rank" `Quick test_percentile_nearest_rank;
          Alcotest.test_case "rejects" `Quick test_percentile_rejects;
          Alcotest.test_case "summary counts" `Quick test_summary_counts;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time and residual" `Quick test_self_time_and_residual;
          Alcotest.test_case "overlap is unbalanced" `Quick test_overlap_is_unbalanced;
          Alcotest.test_case "coverage clips" `Quick test_covered_clips;
          Alcotest.test_case "hook intervals" `Quick test_hook_recovers_intervals;
        ] );
      ( "vmhwm",
        [
          Alcotest.test_case "parse" `Quick test_vmhwm_parse;
          Alcotest.test_case "own process" `Quick test_vmhwm_self;
        ] );
      ( "requests",
        [
          Alcotest.test_case "deterministic" `Quick test_stream_deterministic;
          Alcotest.test_case "shape" `Quick test_stream_shape;
        ] );
    ]
