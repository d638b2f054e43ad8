(* Unit tests for Amb_sim: event queue, engine, RNG, distributions,
   statistics, trace. *)

open Amb_units
open Amb_sim

let check_float = Alcotest.(check (float 1e-9))

(* --- Event_queue --- *)

let test_queue_ordering () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:3.0 "c";
  Event_queue.push q ~time:1.0 "a";
  Event_queue.push q ~time:2.0 "b";
  let order = List.map snd (Event_queue.drain q) in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] order

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:1.0 "first";
  Event_queue.push q ~time:1.0 "second";
  Event_queue.push q ~time:1.0 "third";
  let order = List.map snd (Event_queue.drain q) in
  Alcotest.(check (list string)) "insertion order on ties" [ "first"; "second"; "third" ] order

let test_queue_peek_pop () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "empty peek" true (Event_queue.peek q = None);
  Event_queue.push q ~time:5.0 42;
  (match Event_queue.peek q with
  | Some (t, v) ->
    check_float "peek time" 5.0 t;
    Alcotest.(check int) "peek value" 42 v
  | None -> Alcotest.fail "expected entry");
  Alcotest.(check int) "length" 1 (Event_queue.length q);
  ignore (Event_queue.pop q);
  Alcotest.(check bool) "empty after pop" true (Event_queue.is_empty q)

let test_queue_large_heap () =
  let q = Event_queue.create () in
  let rng = Rng.create 123 in
  for _ = 1 to 1000 do
    Event_queue.push q ~time:(Rng.float rng) ()
  done;
  let times = List.map fst (Event_queue.drain q) in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a <= b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "1000 events sorted" true (sorted times);
  Alcotest.(check int) "all drained" 1000 (List.length times)

let test_queue_nan_rejected () =
  let q = Event_queue.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Event_queue.push: NaN time") (fun () ->
      Event_queue.push q ~time:Float.nan ())

(* --- Engine --- *)

let test_engine_runs_in_order () =
  let engine = Engine.create () in
  let log = ref [] in
  Engine.schedule engine ~delay:(Time_span.seconds 2.0) (fun _ -> log := "b" :: !log);
  Engine.schedule engine ~delay:(Time_span.seconds 1.0) (fun _ -> log := "a" :: !log);
  let final = Engine.run engine in
  Alcotest.(check (list string)) "order" [ "a"; "b" ] (List.rev !log);
  check_float "final time" 2.0 (Time_span.to_seconds final);
  Alcotest.(check int) "count" 2 (Engine.event_count engine)

let test_engine_until () =
  let engine = Engine.create () in
  let fired = ref 0 in
  Engine.schedule engine ~delay:(Time_span.seconds 1.0) (fun _ -> incr fired);
  Engine.schedule engine ~delay:(Time_span.seconds 10.0) (fun _ -> incr fired);
  let final = Engine.run ~until:(Time_span.seconds 5.0) engine in
  Alcotest.(check int) "only first fired" 1 !fired;
  check_float "clock at horizon" 5.0 (Time_span.to_seconds final)

let test_engine_until_clamps_clock_keeps_future () =
  (* Regression: the horizon clamp used to be a no-op expression, leaving
     the clock at the last executed event instead of [until]. *)
  let engine = Engine.create () in
  let fired = ref [] in
  Engine.schedule engine ~delay:(Time_span.seconds 2.0) (fun _ -> fired := 2.0 :: !fired);
  Engine.schedule engine ~delay:(Time_span.seconds 8.0) (fun _ -> fired := 8.0 :: !fired);
  Engine.schedule engine ~delay:(Time_span.seconds 9.0) (fun _ -> fired := 9.0 :: !fired);
  let paused = Engine.run ~until:(Time_span.seconds 5.0) engine in
  check_float "clock exactly at horizon" 5.0 (Time_span.to_seconds paused);
  check_float "now agrees" 5.0 (Time_span.to_seconds (Engine.now engine));
  Alcotest.(check int) "future events intact" 2 (Engine.pending engine);
  Alcotest.(check (list (float 1e-9))) "only past events ran" [ 2.0 ] (List.rev !fired);
  (* Resuming must pick the pending events back up at their original
     times. *)
  let final = Engine.run engine in
  Alcotest.(check (list (float 1e-9))) "resume fires the rest" [ 2.0; 8.0; 9.0 ]
    (List.rev !fired);
  check_float "final time" 9.0 (Time_span.to_seconds final)

let test_engine_until_idle_tail () =
  (* Horizon beyond the last event: clock still lands exactly on it. *)
  let engine = Engine.create () in
  Engine.schedule engine ~delay:(Time_span.seconds 1.0) (fun _ -> ());
  let final = Engine.run ~until:(Time_span.seconds 4.0) engine in
  check_float "clock at horizon with empty queue" 4.0 (Time_span.to_seconds final);
  Alcotest.(check int) "nothing pending" 0 (Engine.pending engine)

let test_engine_nested_scheduling () =
  let engine = Engine.create () in
  let hits = ref [] in
  Engine.schedule engine ~delay:(Time_span.seconds 1.0) (fun e ->
      hits := Time_span.to_seconds (Engine.now e) :: !hits;
      Engine.schedule e ~delay:(Time_span.seconds 1.5) (fun e ->
          hits := Time_span.to_seconds (Engine.now e) :: !hits));
  ignore (Engine.run engine);
  Alcotest.(check (list (float 1e-9))) "nested times" [ 1.0; 2.5 ] (List.rev !hits)

let test_engine_stop () =
  let engine = Engine.create () in
  let fired = ref 0 in
  Engine.schedule engine ~delay:(Time_span.seconds 1.0) (fun e ->
      incr fired;
      Engine.stop e);
  Engine.schedule engine ~delay:(Time_span.seconds 2.0) (fun _ -> incr fired);
  ignore (Engine.run engine);
  Alcotest.(check int) "stopped after first" 1 !fired

let test_engine_every () =
  let engine = Engine.create () in
  let ticks = ref 0 in
  Engine.every engine ~period:(Time_span.seconds 1.0) (fun _ ->
      incr ticks;
      !ticks < 5);
  ignore (Engine.run engine);
  Alcotest.(check int) "five ticks then stop" 5 !ticks

let test_engine_past_rejected () =
  let engine = Engine.create () in
  Engine.schedule engine ~delay:(Time_span.seconds 5.0) (fun e ->
      Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: time in the past")
        (fun () -> Engine.schedule_at e (Time_span.seconds 1.0) (fun _ -> ())));
  ignore (Engine.run engine)

(* --- Engine periodic rings and their drain --- *)

(* A ring engine must replay the exact chronology of the same streams
   run as self-re-arming closures on the heap: same (time, idx) pairs
   in the same order, same interleaving with closure events, same
   executed count and final clock.  Six periods over 24 streams (four
   streams per ring), phases on a whole-second grid so reports tie
   across rings.  [closures] adds one-shot closure events, one of them
   tied with a report, so a drain must also stop at heap events.  The
   drain timer, fed the event count as its clock, sees each drain's
   length: at least one must fire more than one event. *)
let drain_check ~closures =
  let streams = 24 in
  let period k = 5.0 +. (0.25 *. Float.of_int (k mod 6)) in
  let phase k = Float.of_int (k mod 4) in
  let horizon = 120.0 in
  let drains = ref 0 and longest = ref 0 in
  let run mode =
    let engine = Engine.create () in
    let seen = ref [] in
    let record t idx = seen := (t, idx) :: !seen in
    (match mode with
    | `Closures ->
      for k = 0 to streams - 1 do
        let rec tick e =
          record (Engine.now_s e) k;
          Engine.schedule_s e ~delay_s:(period k) tick
        in
        Engine.schedule_s engine ~delay_s:(phase k) tick
      done
    | `Rings ->
      let timer =
        ( (fun () -> Float.of_int (Engine.event_count engine)),
          fun d ->
            incr drains;
            longest := Stdlib.max !longest (int_of_float d) )
      in
      Engine.periodic_channel ~timer engine ~periods:(Array.init streams period) (fun idx ->
          record (Engine.now_s engine) idx;
          true);
      for k = 0 to streams - 1 do
        Engine.arm_s engine ~idx:k ~delay_s:(phase k)
      done);
    if closures then begin
      Engine.schedule_at_s engine 7.3 (fun e -> record (Engine.now_s e) 1003);
      Engine.schedule_at_s engine 33.0 (fun e -> record (Engine.now_s e) 1004);
      Engine.schedule_at_s engine 18.25 (fun e -> record (Engine.now_s e) (-1));
      (* Stream 0 reports at 0, 5, 10, ...: a tie, fired after it. *)
      Engine.schedule_at_s engine 10.0 (fun e -> record (Engine.now_s e) (-2))
    end;
    let final = Engine.run_s ~until_s:horizon engine in
    (List.rev !seen, Engine.event_count engine, final)
  in
  let plain, count_p, final_p = run `Closures in
  let got, count_g, final_g = run `Rings in
  Alcotest.(check int) "same executed count" count_p count_g;
  Alcotest.(check (float 0.0)) "same final time" final_p final_g;
  Alcotest.(check int) "same chronology length" (List.length plain) (List.length got);
  List.iter2
    (fun (tp, ip) (tg, ig) ->
      Alcotest.(check int) "same idx" ip ig;
      if not (Int64.equal (Int64.bits_of_float tp) (Int64.bits_of_float tg)) then
        Alcotest.failf "fire time diverged at idx %d: %h <> %h" ip tp tg)
    plain got;
  if !drains = 0 then Alcotest.fail "no ring was drained";
  if !longest < 2 then Alcotest.fail "no drain fired more than one event"

let test_engine_drain_heap () = drain_check ~closures:true
let test_engine_drain_rings () = drain_check ~closures:false

(* The drain contract, held to closures: the same streams on the
   periodic channel and as self-re-arming [schedule_s] closures must
   give the same fire order, trace bytes, returned clocks, executed
   count and pending count.  Up to four rings (periods drawn from five
   values, so equal and unequal ones), phases on a half-second grid
   (ties within and across rings), some streams dormant at the start.
   Each fire looks up an action: nothing, schedule a one-shot child
   closure (a zero delay ties with the report), [arm_s] a dormant
   stream one period out, or [stop] the run, which the test resumes to
   the horizon.  A stream ends (its handler returns [false]) after a
   drawn number of fires. *)
let prop_drain_equals_closures =
  QCheck.Test.make ~name:"fused drain equals self-re-arming closures" ~count:150
    (QCheck.int_bound 9999) (fun seed ->
      let rng = Rng.create (4100 + seed) in
      let pick k = Rng.int rng k in
      let choices = [| 1.0; 1.5; 2.0; 3.0; 4.5 |] in
      let m = 1 + pick 4 in
      let streams = 1 + pick 40 in
      let periods = Array.init streams (fun _ -> choices.(pick m + pick 2)) in
      let phases =
        Array.map (fun p -> 0.5 *. Float.of_int (pick (int_of_float (2.0 *. p)))) periods
      in
      let armed = Array.init streams (fun _ -> pick 4 <> 0) in
      let ends = Array.init streams (fun _ -> if pick 3 = 0 then 1 + pick 20 else 0) in
      let actions =
        Array.init streams (fun _ ->
            Array.init 8 (fun _ ->
                match pick 20 with
                | 0 | 1 | 2 -> `Child (0.5 *. Float.of_int (pick 4))
                | 3 | 4 | 5 -> `Arm (pick streams)
                | 6 -> `Stop
                | _ -> `Nothing))
      in
      let first_until = 0.5 *. Float.of_int (pick 40) in
      let horizon = 30.0 in
      let run mode =
        let trace = Trace.create ~capacity:100_000 () in
        let e = Engine.create ~trace () in
        let log = Buffer.create 4096 in
        let fires = Array.make streams 0 and live = Array.copy armed in
        let arm = ref (fun (_ : int) -> ()) in
        let handler idx =
          let k = fires.(idx) in
          fires.(idx) <- k + 1;
          Buffer.add_string log (Printf.sprintf "r%d@%h;" idx (Engine.now_s e));
          (match actions.(idx).(k mod 8) with
          | `Child d ->
            Engine.schedule_s ~label:"child" e ~delay_s:d (fun e ->
                Buffer.add_string log (Printf.sprintf "k%d@%h;" idx (Engine.now_s e)))
          | `Arm j ->
            if not live.(j) then begin
              live.(j) <- true;
              !arm j
            end
          | `Stop -> Engine.stop e
          | `Nothing -> ());
          let again = ends.(idx) = 0 || k + 1 < ends.(idx) in
          if not again then live.(idx) <- false;
          again
        in
        (match mode with
        | `Closures ->
          let label idx = "report:" ^ Int.to_string idx in
          let rec tick idx e =
            if handler idx then
              Engine.schedule_s ~label:(label idx) e ~delay_s:periods.(idx) (tick idx)
          in
          arm := (fun j -> Engine.schedule_s ~label:(label j) e ~delay_s:periods.(j) (tick j));
          Array.iteri
            (fun idx on ->
              if on then Engine.schedule_s ~label:(label idx) e ~delay_s:phases.(idx) (tick idx))
            armed
        | `Rings ->
          Engine.periodic_channel ~label:"report" e ~periods handler;
          arm := (fun j -> Engine.arm_s e ~idx:j ~delay_s:periods.(j));
          Array.iteri (fun idx on -> if on then Engine.arm_s e ~idx ~delay_s:phases.(idx)) armed);
        let clocks = ref [ Engine.run_s ~until_s:first_until e ] in
        let resumes = ref 0 in
        while List.hd !clocks < horizon && Engine.pending e > 0 && !resumes < 10_000 do
          incr resumes;
          clocks := Engine.run_s ~until_s:horizon e :: !clocks
        done;
        let traced =
          List.map
            (fun (x : Trace.entry) -> Printf.sprintf "%h %s" x.time x.label)
            (Trace.to_list trace)
        in
        (Buffer.contents log, traced, !clocks, Engine.event_count e, Engine.pending e)
      in
      run `Rings = run `Closures)

(* The fixed-period contract is checked, not assumed: once a ring has
   been sorted (the run started), an append earlier than its tail
   raises instead of silently re-sorting. *)
let test_ring_out_of_order_append () =
  let engine = Engine.create () in
  Engine.periodic_channel engine ~periods:[| 10.0; 10.0; 10.0 |] (fun idx ->
      if idx = 0 then
        Alcotest.check_raises "append before the tail"
          (Invalid_argument "Engine: periodic re-arm earlier than its ring's tail") (fun () ->
            Engine.arm_s engine ~idx:2 ~delay_s:1.0);
      false);
  Engine.arm_s engine ~idx:1 ~delay_s:9.0;
  Engine.arm_s engine ~idx:0 ~delay_s:2.0;
  ignore (Engine.run_s ~until_s:5.0 engine : float);
  (* One report pending; the ring holds three. *)
  Engine.arm_s engine ~idx:1 ~delay_s:6.0;
  Engine.arm_s engine ~idx:1 ~delay_s:6.0;
  Alcotest.check_raises "ring full" (Invalid_argument "Engine: periodic ring full") (fun () ->
      Engine.arm_s engine ~idx:1 ~delay_s:6.0);
  Alcotest.check_raises "not a stream" (Invalid_argument "Engine: not a periodic stream")
    (fun () -> Engine.arm_s engine ~idx:3 ~delay_s:1.0)

(* Rings are sorted as a run starts, so a channel installed from a
   callback while the run is going is refused; one installed after
   [stop], before the next run, is sorted by that run and fires in
   time order, not arm order. *)
let test_channel_install_mid_run () =
  let engine = Engine.create () in
  let fired = ref [] in
  let install () =
    Engine.periodic_channel engine ~periods:[| 10.0; 10.0 |] (fun idx ->
        fired := (idx, Engine.now_s engine) :: !fired;
        false);
    Engine.arm_s engine ~idx:0 ~delay_s:5.0;
    Engine.arm_s engine ~idx:1 ~delay_s:2.0
  in
  Engine.schedule_s engine ~delay_s:1.0 (fun e ->
      Alcotest.check_raises "installed mid-run"
        (Invalid_argument "Engine.periodic_channel: installed while running") install;
      Engine.stop e);
  ignore (Engine.run_s engine : float);
  Alcotest.(check (float 0.0)) "stopped at the callback" 1.0 (Engine.now_s engine);
  install ();
  ignore (Engine.run_s engine : float);
  Alcotest.(check (list (pair int (float 0.0))))
    "fires in time order" [ (1, 3.0); (0, 6.0) ] (List.rev !fired)

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check_float "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_uniform_range () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.uniform rng 2.0 5.0 in
    Alcotest.(check bool) "in range" true (v >= 2.0 && v < 5.0)
  done

let test_rng_exponential_mean () =
  let rng = Rng.create 13 in
  let w = Stat.welford () in
  for _ = 1 to 20_000 do
    Stat.add w (Rng.exponential rng ~mean:3.0)
  done;
  Alcotest.(check bool) "mean near 3" true (Float.abs (Stat.mean w -. 3.0) < 0.1)

let test_rng_gaussian_moments () =
  let rng = Rng.create 17 in
  let w = Stat.welford () in
  for _ = 1 to 20_000 do
    Stat.add w (Rng.gaussian rng ~mu:10.0 ~sigma:2.0)
  done;
  Alcotest.(check bool) "mean near 10" true (Float.abs (Stat.mean w -. 10.0) < 0.1);
  Alcotest.(check bool) "stddev near 2" true (Float.abs (Stat.stddev w -. 2.0) < 0.1)

let test_rng_bernoulli_rate () =
  let rng = Rng.create 19 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  Alcotest.(check bool) "rate near 0.3" true (Float.abs (Float.of_int !hits /. 1e4 -. 0.3) < 0.02)

let test_rng_int_bounds () =
  let rng = Rng.create 23 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "0..6" true (v >= 0 && v < 7)
  done

(* Straightforward Int64 transcription of the published C splitmix64 —
   the oracle the native-int implementation must reproduce bit-exactly. *)
let splitmix64_oracle seed =
  let state = ref (Int64.of_int seed) in
  fun () ->
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

let test_rng_reference_vectors () =
  (* First outputs for seed 0, as published with the reference C code. *)
  let published =
    [| 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL;
       0xF88BB8A8724C81ECL; 0x1B39896A51A8749BL; 0x53CB9F0C747EA2EAL;
       0x2C829ABE1F4532E1L; 0xC584133AC916AB3CL |]
  in
  let rng = Rng.create 0 in
  Array.iteri
    (fun i expect ->
      Alcotest.(check int64) (Printf.sprintf "published output %d" i) expect (Rng.next_int64 rng))
    published;
  (* First 1000 outputs across several seeds vs the Int64 oracle. *)
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let oracle = splitmix64_oracle seed in
      for i = 1 to 1000 do
        Alcotest.(check int64)
          (Printf.sprintf "seed %d output %d" seed i)
          (oracle ()) (Rng.next_int64 rng)
      done)
    [ 0; 1; 42; -1; max_int; min_int ]

let test_rng_int_pinned () =
  (* Regression pin for the masked non-negative reduction in [Rng.int]:
     the exact draw sequence the digests depend on.  If this changes,
     every seeded experiment changes with it. *)
  let expected = [| 3; 64; 76; 23; 40; 46; 51; 76; 31; 92; 37; 72; 71; 77; 58; 65 |] in
  let rng = Rng.create 2025 in
  Array.iteri
    (fun i expect ->
      Alcotest.(check int) (Printf.sprintf "draw %d" i) expect (Rng.int rng 97))
    expected;
  (* The masked reduction is never negative for any bound, including
     bounds that do not divide 2^62. *)
  let rng = Rng.create 77 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng ((1 lsl 62) - 1) in
    Alcotest.(check bool) "non-negative" true (v >= 0)
  done

let test_rng_choose_array_equiv () =
  (* [choose_array] consumes one [int] draw and indexes uniformly —
     checked against an inline [List.nth] oracle on the same stream
     (the contract the removed list-based [choose] used to state). *)
  let elems = [ 10; 20; 30; 40; 50; 60; 70 ] in
  let arr = Array.of_list elems in
  let a = Rng.create 99 and b = Rng.create 99 in
  for i = 1 to 1000 do
    Alcotest.(check int)
      (Printf.sprintf "pick %d" i)
      (List.nth elems (Rng.int a (List.length elems)))
      (Rng.choose_array b arr)
  done

let test_rng_split_independent () =
  let parent = Rng.create 29 in
  let child = Rng.split parent in
  let a = Rng.float parent and b = Rng.float child in
  Alcotest.(check bool) "streams differ" true (a <> b)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 31 in
  let arr = Array.init 20 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort Stdlib.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 (fun i -> i)) sorted

(* --- Distribution --- *)

let test_distribution_means () =
  check_float "constant" 5.0 (Distribution.mean (Distribution.constant 5.0));
  check_float "uniform" 3.5 (Distribution.mean (Distribution.uniform 2.0 5.0));
  check_float "exponential" 2.0 (Distribution.mean (Distribution.exponential 2.0));
  check_float "bimodal" 2.8
    (Distribution.mean (Distribution.bimodal ~p_first:0.4 ~first:1.0 ~second:4.0))

let test_distribution_sampling_matches_mean () =
  let rng = Rng.create 37 in
  let d = Distribution.uniform 0.0 10.0 in
  let w = Stat.welford () in
  for _ = 1 to 20_000 do
    Stat.add w (Distribution.sample rng d)
  done;
  Alcotest.(check bool) "sample mean" true (Float.abs (Stat.mean w -. 5.0) < 0.1)

(* --- Stat --- *)

let test_welford () =
  let w = Stat.welford () in
  List.iter (Stat.add w) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_float "mean" 5.0 (Stat.mean w);
  Alcotest.(check (float 1e-9)) "sample variance" (32.0 /. 7.0) (Stat.variance w);
  Alcotest.(check int) "count" 8 (Stat.count w)

let test_time_weighted () =
  let tw = Stat.time_weighted () in
  Stat.update tw ~time:0.0 ~value:1.0;
  Stat.update tw ~time:10.0 ~value:3.0;
  Stat.close tw ~time:20.0;
  (* 1.0 for 10 s then 3.0 for 10 s -> average 2.0. *)
  check_float "time average" 2.0 (Stat.time_average tw);
  check_float "integral" 40.0 (Stat.integral tw)

let test_time_weighted_backwards () =
  let tw = Stat.time_weighted () in
  Stat.update tw ~time:5.0 ~value:1.0;
  Alcotest.check_raises "backwards" (Invalid_argument "Stat.update: time went backwards")
    (fun () -> Stat.update tw ~time:4.0 ~value:2.0)

let test_histogram () =
  let h = Stat.histogram ~lo:0.0 ~hi:10.0 ~bins:10 in
  List.iter (Stat.observe h) [ 0.5; 1.5; 1.6; 9.9; 15.0; -3.0 ];
  Alcotest.(check int) "bin 0 gets 0.5 and the underflow" 2 (Stat.bin_count h 0);
  Alcotest.(check int) "bin 1" 2 (Stat.bin_count h 1);
  Alcotest.(check int) "last bin gets 9.9 and overflow" 2 (Stat.bin_count h 9);
  Alcotest.(check int) "total" 6 (Stat.total_count h);
  check_float "fraction" (2.0 /. 6.0) (Stat.bin_fraction h 1)

let test_histogram_quantile () =
  let h = Stat.histogram ~lo:0.0 ~hi:100.0 ~bins:100 in
  for i = 1 to 100 do
    Stat.observe h (Float.of_int i -. 0.5)
  done;
  let median = Stat.quantile_estimate h 0.5 in
  Alcotest.(check bool) "median near 50" true (Float.abs (median -. 50.0) < 2.0)

(* --- Trace --- *)

let test_trace_bounded () =
  let t = Trace.create ~capacity:3 () in
  List.iteri (fun i label -> Trace.record t ~time:(Float.of_int i) label)
    [ "a"; "b"; "c"; "d"; "e" ];
  Alcotest.(check int) "capacity respected" 3 (Trace.length t);
  Alcotest.(check int) "recorded all" 5 (Trace.recorded t);
  Alcotest.(check int) "dropped oldest" 2 (Trace.dropped t);
  Alcotest.(check (list string)) "keeps newest" [ "c"; "d"; "e" ] (Trace.labels t)

let test_trace_count_matching () =
  let t = Trace.create () in
  Trace.record t ~time:0.0 "tx:1";
  Trace.record t ~time:1.0 "rx:1";
  Trace.record t ~time:2.0 "tx:2";
  Alcotest.(check int) "prefix count" 2 (Trace.count_matching t "tx:")

let suite =
  [ ("queue ordering", `Quick, test_queue_ordering);
    ("queue FIFO ties", `Quick, test_queue_fifo_ties);
    ("queue peek/pop", `Quick, test_queue_peek_pop);
    ("queue 1000 events", `Quick, test_queue_large_heap);
    ("queue rejects NaN", `Quick, test_queue_nan_rejected);
    ("engine order", `Quick, test_engine_runs_in_order);
    ("engine until", `Quick, test_engine_until);
    ("engine nested", `Quick, test_engine_nested_scheduling);
    ("engine stop", `Quick, test_engine_stop);
    ("engine every", `Quick, test_engine_every);
    ("engine rejects past", `Quick, test_engine_past_rejected);
    ("engine ring drain (heap)", `Quick, test_engine_drain_heap);
    ("engine ring drain (rings)", `Quick, test_engine_drain_rings);
    QCheck_alcotest.to_alcotest prop_drain_equals_closures;
    ("ring rejects out-of-order append", `Quick, test_ring_out_of_order_append);
    ("channel install refused mid-run", `Quick, test_channel_install_mid_run);
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng uniform range", `Quick, test_rng_uniform_range);
    ("rng exponential mean", `Quick, test_rng_exponential_mean);
    ("rng gaussian moments", `Quick, test_rng_gaussian_moments);
    ("rng bernoulli rate", `Quick, test_rng_bernoulli_rate);
    ("rng int bounds", `Quick, test_rng_int_bounds);
    ("rng reference vectors", `Quick, test_rng_reference_vectors);
    ("rng int pinned sequence", `Quick, test_rng_int_pinned);
    ("rng choose_array equivalence", `Quick, test_rng_choose_array_equiv);
    ("rng split", `Quick, test_rng_split_independent);
    ("rng shuffle", `Quick, test_rng_shuffle_permutation);
    ("distribution means", `Quick, test_distribution_means);
    ("distribution sampling", `Quick, test_distribution_sampling_matches_mean);
    ("welford", `Quick, test_welford);
    ("time-weighted average", `Quick, test_time_weighted);
    ("time-weighted backwards", `Quick, test_time_weighted_backwards);
    ("histogram", `Quick, test_histogram);
    ("histogram quantile", `Quick, test_histogram_quantile);
    ("trace bounded", `Quick, test_trace_bounded);
    ("trace count matching", `Quick, test_trace_count_matching);
  ]
