(* Tests for the multicore execution layer: the domain pool itself, the
   unboxed Dijkstra heap, heapify construction, and the determinism
   guarantees of the parallel experiment suite and the sharded
   variability Monte Carlo. *)

(* --- Domain_pool --- *)

let test_map_list_matches_sequential () =
  let xs = List.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  Alcotest.(check (list int))
    "map_list order and values" (List.map f xs)
    (Amb_sim.Domain_pool.map_list ~jobs:4 f xs)

let test_map_array_chunked_matches_sequential () =
  let arr = Array.init 257 (fun i -> Float.of_int i /. 3.0) in
  let f x = Float.sin x in
  Alcotest.(check (array (float 0.0)))
    "chunked map order and values" (Array.map f arr)
    (Amb_sim.Domain_pool.map_array_chunked ~jobs:3 ~chunk:10 f arr)

let test_pool_run_gathers_in_order () =
  Amb_sim.Domain_pool.with_pool ~jobs:4 (fun pool ->
      (* Uneven task durations: later tasks finish first, yet the gather
         must stay in submission order. *)
      let tasks =
        Array.init 32 (fun i () ->
            let spin = (32 - i) * 1000 in
            let acc = ref 0 in
            for k = 1 to spin do acc := !acc + k done;
            ignore !acc;
            i)
      in
      let results = Amb_sim.Domain_pool.run pool tasks in
      Alcotest.(check (array int)) "submission order" (Array.init 32 Fun.id) results)

let test_pool_reusable_across_batches () =
  Amb_sim.Domain_pool.with_pool ~jobs:3 (fun pool ->
      for round = 1 to 5 do
        let results = Amb_sim.Domain_pool.run pool (Array.init 7 (fun i () -> i * round)) in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          (Array.init 7 (fun i -> i * round))
          results
      done)

let test_pool_propagates_exception () =
  let raised =
    try
      Amb_sim.Domain_pool.with_pool ~jobs:2 (fun pool ->
          ignore
            (Amb_sim.Domain_pool.run pool
               (Array.init 8 (fun i () -> if i = 5 then failwith "task 5 failed" else i)));
          false)
    with Failure msg -> msg = "task 5 failed"
  in
  Alcotest.(check bool) "first failing task's exception re-raised" true raised

let test_pool_survives_exception () =
  (* A raising task must not wedge the workers: the batch settles, the
     exception surfaces, and the same pool keeps serving later batches. *)
  Amb_sim.Domain_pool.with_pool ~jobs:3 (fun pool ->
      for round = 1 to 3 do
        let blew_up =
          try
            ignore
              (Amb_sim.Domain_pool.run pool
                 (Array.init 12 (fun i () -> if i = round * 2 then failwith "boom" else i)));
            false
          with Failure msg -> msg = "boom"
        in
        Alcotest.(check bool) (Printf.sprintf "round %d raised" round) true blew_up;
        let results = Amb_sim.Domain_pool.run pool (Array.init 12 (fun i () -> i + round)) in
        Alcotest.(check (array int))
          (Printf.sprintf "clean batch after failing batch %d" round)
          (Array.init 12 (fun i -> i + round))
          results
      done)

let test_pool_exception_deterministic () =
  (* Several raising tasks: the surfaced exception is the first in
     submission order, independent of which domain hit which task. *)
  let run_once () =
    try
      Amb_sim.Domain_pool.with_pool ~jobs:4 (fun pool ->
          ignore
            (Amb_sim.Domain_pool.run pool
               (Array.init 16 (fun i () ->
                    if i mod 5 = 3 then failwith (Printf.sprintf "task %d" i)
                    else begin
                      (* Skew durations so domain interleavings differ. *)
                      let acc = ref 0 in
                      for k = 1 to (16 - i) * 500 do acc := !acc + k done;
                      !acc
                    end)));
          "no exception")
    with Failure msg -> msg
  in
  let first = run_once () in
  Alcotest.(check string) "first failing index surfaces" "task 3" first;
  for _ = 1 to 5 do
    Alcotest.(check string) "same exception every run" first (run_once ())
  done

let test_map_list_usable_after_exception () =
  (* map_list builds a transient pool per call; a raising call must leave
     nothing behind that poisons the next one. *)
  let escaped =
    try
      ignore
        (Amb_sim.Domain_pool.map_list ~jobs:2
           (fun x -> if x = 3 then raise Exit else x)
           [ 0; 1; 2; 3; 4 ]);
      false
    with Exit -> true
  in
  Alcotest.(check bool) "exception escapes map_list" true escaped;
  Alcotest.(check (list int))
    "subsequent map_list unaffected" [ 0; 2; 4; 6 ]
    (Amb_sim.Domain_pool.map_list ~jobs:2 (fun x -> x * 2) [ 0; 1; 2; 3 ])

let test_pool_all_tasks_raise () =
  (* Every task raising is the worst failure path: the batch must still
     settle, surface the first task's exception, and leave the pool
     serviceable. *)
  Amb_sim.Domain_pool.with_pool ~jobs:4 (fun pool ->
      let raised =
        try
          ignore
            (Amb_sim.Domain_pool.run pool
               (Array.init 10 (fun i () -> failwith (Printf.sprintf "task %d" i))));
          "no exception"
        with Failure msg -> msg
      in
      Alcotest.(check string) "first task's exception" "task 0" raised;
      let results = Amb_sim.Domain_pool.run pool (Array.init 10 (fun i () -> i)) in
      Alcotest.(check (array int)) "pool still serves" (Array.init 10 Fun.id) results)

let test_pool_caught_exception_keeps_batch () =
  (* The harness's error-isolation pattern: tasks that catch their own
     exceptions and return a value never poison the batch — this is what
     lets a raising scenario cell become an error row instead of
     aborting the matrix. *)
  Amb_sim.Domain_pool.with_pool ~jobs:3 (fun pool ->
      let results =
        Amb_sim.Domain_pool.run pool
          (Array.init 9 (fun i () ->
               match if i mod 3 = 1 then failwith "cell blew up" else i with
               | v -> Ok v
               | exception Failure msg -> Error msg))
      in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v -> Alcotest.(check int) (Printf.sprintf "task %d value" i) i v
          | Error msg ->
            Alcotest.(check bool) (Printf.sprintf "task %d failed" i) true
              (i mod 3 = 1 && msg = "cell blew up"))
        results)

let test_pool_rejects_zero_jobs () =
  Alcotest.check_raises "jobs=0"
    (Invalid_argument "Domain_pool.create: need at least one worker") (fun () ->
      ignore (Amb_sim.Domain_pool.create ~jobs:0))

(* --- Float_heap --- *)

(* Pop everything, in pop order, as (key, payload) pairs. *)
let drain_heap h =
  let key = { Amb_sim.Float_heap.v = 0.0 } in
  let rec go acc =
    if Amb_sim.Float_heap.is_empty h then List.rev acc
    else
      let p = Amb_sim.Float_heap.pop_min h key in
      go ((key.v, p) :: acc)
  in
  go []

let test_float_heap_pop_order () =
  let h = Amb_sim.Float_heap.create () in
  Amb_sim.Float_heap.push h ~key:3.0 30;
  Amb_sim.Float_heap.push h ~key:1.0 10;
  Amb_sim.Float_heap.push h ~key:2.0 20;
  Alcotest.(check (list int)) "key order" [ 10; 20; 30 ] (List.map snd (drain_heap h));
  Alcotest.check_raises "empty" (Invalid_argument "Float_heap.pop_min: empty heap") (fun () ->
      ignore (Amb_sim.Float_heap.pop_min h { Amb_sim.Float_heap.v = 0.0 }))

let test_float_heap_stable_ties () =
  let h = Amb_sim.Float_heap.create ~capacity:2 () in
  List.iter (fun p -> Amb_sim.Float_heap.push h ~key:7.0 p) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "insertion order on equal keys" [ 1; 2; 3; 4; 5 ]
    (List.map snd (drain_heap h))

let test_float_heap_nan_rejected () =
  let h = Amb_sim.Float_heap.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Float_heap.push: NaN key") (fun () ->
      Amb_sim.Float_heap.push h ~key:Float.nan 1)

let prop_float_heap_matches_event_queue =
  QCheck.Test.make ~name:"float heap pops like the event queue" ~count:200
    QCheck.(list (pair (float_bound_inclusive 1e3) small_nat))
    (fun entries ->
      let h = Amb_sim.Float_heap.create () in
      let q = Event_queue.create () in
      List.iter
        (fun (key, payload) ->
          Amb_sim.Float_heap.push h ~key payload;
          Event_queue.push q ~time:key payload)
        entries;
      drain_heap h = Event_queue.drain q)

(* --- Event_queue.of_list --- *)

let prop_of_list_pops_ties_in_list_order =
  QCheck.Test.make ~name:"of_list pops equal-time entries in list order" ~count:300
    QCheck.(list (int_bound 5))
    (fun times ->
      (* Coarse integer times force many collisions; payloads record list
         position. *)
      let entries = List.mapi (fun i t -> (Float.of_int t, (t, i))) times in
      let popped = Event_queue.drain (Event_queue.of_list entries) in
      let rec ok = function
        | (ta, (_, ia)) :: ((tb, (_, ib)) :: _ as rest) ->
          (ta < tb || (ta = tb && ia < ib)) && ok rest
        | _ -> true
      in
      List.length popped = List.length times && ok popped)

let prop_of_list_equals_pushes =
  QCheck.Test.make ~name:"of_list drains exactly like repeated push" ~count:300
    QCheck.(list (float_bound_inclusive 100.0))
    (fun times ->
      let entries = List.mapi (fun i t -> (t, i)) times in
      let q = Event_queue.create () in
      List.iter (fun (t, p) -> Event_queue.push q ~time:t p) entries;
      Event_queue.drain (Event_queue.of_list entries)
      = Event_queue.drain q)

(* --- Parallel experiment suite determinism --- *)

let render_all ~jobs =
  List.map
    (fun (id, desc, report) -> (id, desc, Amb_core.Report.to_string report))
    (Amb_core.Experiments.run_all ~jobs ())

let test_run_all_parallel_byte_identical () =
  let sequential = render_all ~jobs:1 in
  let parallel = render_all ~jobs:4 in
  Alcotest.(check int) "same count" (List.length sequential) (List.length parallel);
  List.iter2
    (fun (id_s, desc_s, text_s) (id_p, desc_p, text_p) ->
      Alcotest.(check string) "id" id_s id_p;
      Alcotest.(check string) "description" desc_s desc_p;
      Alcotest.(check string) (id_s ^ " report bytes") text_s text_p)
    sequential parallel

(* --- fades over a pool: one shared router --- *)

let test_fade_plan_shared_router_jobs_invariant () =
  (* Link fades price their faded pairs through the router's tariff.
     The router is immutable, so runs on every domain of a pool share
     the fleet's one router, and the outcomes must stay bitwise
     identical to the sequential sweep. *)
  let open Amb_system in
  let fleet = Fleet.make ~leaves:8 ~relays:2 ~seed:11 () in
  let faults =
    [ Fault_plan.Link_fade { a = 0; b = 1; db = 20.0; at = Amb_units.Time_span.hours 2.0 };
      Fault_plan.Node_crash { node = 2; at = Amb_units.Time_span.hours 5.0 };
    ]
  in
  let cfg = Cosim.config ~faults ~fleet ~horizon:(Amb_units.Time_span.hours 8.0) () in
  let seeds = Array.init 6 (fun i -> 40 + i) in
  let sweep () = Array.map (fun seed () -> Cosim.run cfg ~seed) seeds in
  let reference = Array.map (fun run -> run ()) (sweep ()) in
  List.iter
    (fun jobs ->
      let parallel =
        Amb_sim.Domain_pool.with_pool ~jobs (fun pool -> Amb_sim.Domain_pool.run pool (sweep ()))
      in
      Array.iteri
        (fun i (r : Cosim.outcome) ->
          let p = parallel.(i) in
          let name fmt = Printf.sprintf "seed %d %s at jobs=%d" seeds.(i) fmt jobs in
          Alcotest.(check int) (name "delivered") r.Cosim.delivered p.Cosim.delivered;
          Alcotest.(check int) (name "dropped") r.Cosim.dropped p.Cosim.dropped;
          Alcotest.(check int) (name "dead") r.Cosim.dead_at_end p.Cosim.dead_at_end;
          Alcotest.(check (float 0.0))
            (name "energy bitwise")
            (Amb_units.Energy.to_joules r.Cosim.energy_spent)
            (Amb_units.Energy.to_joules p.Cosim.energy_spent);
          Alcotest.(check (float 0.0))
            (name "availability bitwise") r.Cosim.availability p.Cosim.availability)
        reference)
    [ 2; 4 ]

(* --- Sharded Monte Carlo determinism --- *)

let test_monte_carlo_jobs_invariant () =
  let spread = Amb_tech.Variability.spread_of Amb_tech.Process_node.n90 in
  let reference = Amb_tech.Variability.monte_carlo ~jobs:1 spread ~dies:9000 ~seed:42 in
  List.iter
    (fun jobs ->
      let stats = Amb_tech.Variability.monte_carlo ~jobs spread ~dies:9000 ~seed:42 in
      let check name f =
        Alcotest.(check (float 0.0)) (Printf.sprintf "%s at jobs=%d" name jobs) (f reference)
          (f stats)
      in
      check "mean" (fun s -> s.Amb_tech.Variability.mean_multiplier);
      check "median" (fun s -> s.Amb_tech.Variability.median_multiplier);
      check "p95" (fun s -> s.Amb_tech.Variability.p95_multiplier);
      check "spread" (fun s -> s.Amb_tech.Variability.spread_ratio))
    [ 2; 3; 8 ]

let test_monte_carlo_shard_boundary () =
  (* Die counts straddling the shard size must all shard cleanly. *)
  let spread = Amb_tech.Variability.spread_of Amb_tech.Process_node.n130 in
  List.iter
    (fun dies ->
      let a = Amb_tech.Variability.monte_carlo ~jobs:1 spread ~dies ~seed:7 in
      let b = Amb_tech.Variability.monte_carlo ~jobs:4 spread ~dies ~seed:7 in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "p95 equal at %d dies" dies)
        a.Amb_tech.Variability.p95_multiplier b.Amb_tech.Variability.p95_multiplier)
    [ Amb_tech.Variability.monte_carlo_shard - 1;
      Amb_tech.Variability.monte_carlo_shard;
      Amb_tech.Variability.monte_carlo_shard + 1;
      (2 * Amb_tech.Variability.monte_carlo_shard) + 17;
    ]

let suite =
  [ ("pool map_list matches sequential", `Quick, test_map_list_matches_sequential);
    ("pool chunked map matches sequential", `Quick, test_map_array_chunked_matches_sequential);
    ("pool gathers in submission order", `Quick, test_pool_run_gathers_in_order);
    ("pool reusable across batches", `Quick, test_pool_reusable_across_batches);
    ("pool propagates exceptions", `Quick, test_pool_propagates_exception);
    ("pool survives a raising task", `Quick, test_pool_survives_exception);
    ("pool exception deterministic", `Quick, test_pool_exception_deterministic);
    ("pool settles when every task raises", `Quick, test_pool_all_tasks_raise);
    ("caught task exceptions keep the batch", `Quick, test_pool_caught_exception_keeps_batch);
    ("map_list usable after exception", `Quick, test_map_list_usable_after_exception);
    ("pool rejects zero jobs", `Quick, test_pool_rejects_zero_jobs);
    ("float heap pop order", `Quick, test_float_heap_pop_order);
    ("float heap stable ties", `Quick, test_float_heap_stable_ties);
    ("float heap rejects NaN", `Quick, test_float_heap_nan_rejected);
    QCheck_alcotest.to_alcotest prop_float_heap_matches_event_queue;
    QCheck_alcotest.to_alcotest prop_of_list_pops_ties_in_list_order;
    QCheck_alcotest.to_alcotest prop_of_list_equals_pushes;
    ("run_all parallel output byte-identical", `Slow, test_run_all_parallel_byte_identical);
    ("fade plan on a shared router jobs-invariant", `Quick,
     test_fade_plan_shared_router_jobs_invariant);
    ("monte carlo invariant in jobs", `Quick, test_monte_carlo_jobs_invariant);
    ("monte carlo shard boundaries", `Quick, test_monte_carlo_shard_boundary);
  ]
