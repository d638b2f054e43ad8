(* City-scale fast-path oracles: every structure the large-fleet path
   swaps in (spatial grid, CSR routing cache, CSR route tree, calendar
   event queue, sharded construction) is checked for exact agreement
   with the historic O(n^2)/heap implementation it replaces — the same
   bits, not just the same statistics. *)

open Amb_circuit
open Amb_radio
open Amb_net

let count = 100

(* --- spatial grid vs brute-force pair scan --------------------------- *)

let prop_spatial_neighbors =
  QCheck.Test.make ~name:"spatial neighbors_within matches the pair scan" ~count
    QCheck.(pair small_nat (float_range 10.0 200.0))
    (fun (seed, range_m) ->
      let rng = Amb_sim.Rng.create (7000 + seed) in
      let n = 1 + Amb_sim.Rng.int rng 120 in
      let topo = Topology.random rng ~nodes:n ~width_m:300.0 ~height_m:250.0 in
      let index = Topology.spatial topo ~cell_m:range_m in
      List.for_all
        (fun i ->
          let brute = ref [] in
          for j = n - 1 downto 0 do
            if j <> i && Topology.pair_distance topo i j <= range_m then brute := j :: !brute
          done;
          Spatial.neighbors_within index i ~range_m = !brute
          && Spatial.degree index i ~range_m = List.length !brute)
        (List.init n Fun.id))

let prop_spatial_distances =
  QCheck.Test.make ~name:"spatial iter_within reports exact distances" ~count
    QCheck.(pair small_nat (float_range 20.0 150.0))
    (fun (seed, range_m) ->
      let rng = Amb_sim.Rng.create (8000 + seed) in
      let n = 2 + Amb_sim.Rng.int rng 80 in
      let topo = Topology.random rng ~nodes:n ~width_m:200.0 ~height_m:200.0 in
      let index = Topology.spatial topo ~cell_m:range_m in
      let ok = ref true in
      for i = 0 to n - 1 do
        Spatial.iter_within index i ~range_m (fun j d ->
            (* Bit-identical to the historic scan's Float.hypot. *)
            if d <> Topology.pair_distance topo i j then ok := false)
      done;
      !ok)

(* Above the size threshold Topology.connectivity routes through the
   grid: the graph must be identical to the brute-force build — same
   edges, same weights, same insertion order (checked via Dijkstra,
   which is sensitive to adjacency order on equal-cost ties). *)
let test_connectivity_grid_tier () =
  let rng = Amb_sim.Rng.create 4242 in
  let n = 600 (* > Topology.spatial_threshold *) in
  let topo = Topology.random rng ~nodes:n ~width_m:2000.0 ~height_m:2000.0 in
  let range_m = 150.0 in
  let g = Topology.connectivity topo ~range_m in
  let brute = Graph.create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let d = Topology.pair_distance topo i j in
      if d <= range_m then Graph.add_undirected brute i j ~weight:d
    done
  done;
  Alcotest.(check int) "edge count" (Graph.edge_count brute) (Graph.edge_count g);
  let dist_b, prev_b = Graph.dijkstra brute ~src:0 in
  let dist_g, prev_g = Graph.dijkstra g ~src:0 in
  for i = 0 to n - 1 do
    Alcotest.(check (float 0.0)) (Printf.sprintf "dist %d" i) dist_b.(i) dist_g.(i);
    Alcotest.(check int) (Printf.sprintf "prev %d" i) prev_b.(i) prev_g.(i)
  done

(* --- calendar queue vs binary-heap order ----------------------------- *)

let prop_calendar_pop_order =
  QCheck.Test.make ~name:"calendar queue pops in binary-heap order" ~count
    QCheck.(list (float_bound_inclusive 1e6))
    (fun times ->
      (* Sprinkle far-future and infinite times to exercise the
         overflow chain alongside the calendar proper. *)
      let times =
        List.concat_map
          (fun t -> if t < 10.0 then [ t; t +. 1e17; Float.infinity ] else [ t ])
          times
      in
      let cal = Amb_sim.Calendar_queue.create () in
      let heap = Amb_sim.Event_queue.create () in
      List.iteri
        (fun i t ->
          Amb_sim.Calendar_queue.push cal ~time:t ~seq:i ~i1:i ~i2:(-i);
          Amb_sim.Event_queue.push heap ~time:t i)
        times;
      let ok = ref true in
      List.iter
        (fun (t, i) ->
          if
            not
              (Amb_sim.Calendar_queue.min_time cal = t
              && Amb_sim.Calendar_queue.pop cal
              && Amb_sim.Calendar_queue.out_time cal = t
              && Amb_sim.Calendar_queue.out_i1 cal = i
              && Amb_sim.Calendar_queue.out_i2 cal = -i)
          then ok := false)
        (Amb_sim.Event_queue.drain heap);
      !ok && Amb_sim.Calendar_queue.length cal = 0)

let prop_calendar_interleaved =
  QCheck.Test.make ~name:"calendar queue matches heap under interleaved push/pop" ~count
    QCheck.(small_nat)
    (fun seed ->
      let rng = Amb_sim.Rng.create (9000 + seed) in
      let cal = Amb_sim.Calendar_queue.create () in
      let heap = Amb_sim.Event_queue.create () in
      let seq = ref 0 in
      let clock = ref 0.0 in
      let ok = ref true in
      for _ = 1 to 400 do
        if Amb_sim.Rng.int rng 3 > 0 || Amb_sim.Event_queue.is_empty heap then begin
          (* Engine-style push: never in the past, occasionally tied. *)
          let t = !clock +. Amb_sim.Rng.uniform rng 0.0 50.0 in
          let t = if Amb_sim.Rng.int rng 8 = 0 then !clock else t in
          Amb_sim.Calendar_queue.push cal ~time:t ~seq:!seq ~i1:0 ~i2:!seq;
          Amb_sim.Event_queue.push heap ~time:t !seq;
          incr seq
        end
        else
          match Amb_sim.Event_queue.pop heap with
          | None -> ()
          | Some (t, i) ->
            clock := t;
            if
              not
                (Amb_sim.Calendar_queue.pop cal
                && Amb_sim.Calendar_queue.out_time cal = t
                && Amb_sim.Calendar_queue.out_i2 cal = i)
            then ok := false
      done;
      !ok && Amb_sim.Calendar_queue.length cal = Amb_sim.Event_queue.length heap)

(* The engine must produce the identical event chronology on both queue
   tiers: same callbacks, same clock readings, same final time. *)
let test_engine_calendar_equiv () =
  let run ~calendar_threshold =
    let e = Amb_sim.Engine.create ~calendar_threshold () in
    let rng = Amb_sim.Rng.create 77 in
    let log = Buffer.create 4096 in
    for i = 0 to 1999 do
      let t = Amb_sim.Rng.uniform rng 0.0 500.0 in
      Amb_sim.Engine.schedule_at_s e t (fun e ->
          Buffer.add_string log
            (Printf.sprintf "%d@%.17g;" i (Amb_sim.Engine.now_s e)))
    done;
    for k = 0 to 19 do
      Amb_sim.Engine.every_s e ~period_s:(3.0 +. Float.of_int k) ~until_s:450.0 (fun e ->
          Buffer.add_string log (Printf.sprintf "p%d@%.17g;" k (Amb_sim.Engine.now_s e));
          true)
    done;
    let final = Amb_sim.Engine.run_s ~until_s:480.0 e in
    (Buffer.contents log, final, Amb_sim.Engine.event_count e)
  in
  let log_h, final_h, count_h = run ~calendar_threshold:max_int in
  let log_c, final_c, count_c = run ~calendar_threshold:16 in
  Alcotest.(check string) "event chronology" log_h log_c;
  Alcotest.(check (float 0.0)) "final clock" final_h final_c;
  Alcotest.(check int) "events executed" count_h count_c

(* Dense same-second bursts across the hand-over: [streams] indexed
   report streams on 30 s periods whose phases pile hundreds of events
   onto each whole second (a third of them on exact ties), plus a few
   closure events.  With 1-4x [Engine.default_calendar_threshold]
   pending, the default engine migrates mid-arming — the largest
   population also crosses the calendar's first resize — and its fire
   sequence must equal an engine that never leaves the heap. *)
let test_engine_burst_migration () =
  let run ~calendar_threshold ~streams =
    let e = Amb_sim.Engine.create ~calendar_threshold () in
    let fired = Buffer.create (1 lsl 16) in
    let log tag idx e =
      Buffer.add_string fired
        (Printf.sprintf "%c%d@%h;" tag idx (Amb_sim.Engine.clock_cell e).Amb_sim.Engine.v)
    in
    let hid = ref (-1) in
    let handler e idx =
      log 'r' idx e;
      (Amb_sim.Engine.delay_cell e).Amb_sim.Engine.v <- 30.0;
      Amb_sim.Engine.schedule_idx_cell e ~handler:!hid ~idx
    in
    hid := Amb_sim.Engine.register_handler e handler;
    for i = 0 to streams - 1 do
      let phase = Float.of_int (i mod 30) +. (0.25 *. Float.of_int (i mod 3 * (i mod 2))) in
      Amb_sim.Engine.schedule_idx_s e ~handler:!hid ~idx:i ~delay_s:phase;
      if i mod 1000 = 0 then Amb_sim.Engine.schedule_at_s e phase (log 'c' i)
    done;
    let final = Amb_sim.Engine.run_s ~until_s:75.0 e in
    (Buffer.contents fired, final, Amb_sim.Engine.event_count e)
  in
  let threshold = Amb_sim.Engine.default_calendar_threshold in
  List.iter
    (fun streams ->
      let log_h, final_h, count_h = run ~calendar_threshold:max_int ~streams in
      let log_c, final_c, count_c = run ~calendar_threshold:threshold ~streams in
      let ctx = Printf.sprintf "%d streams" streams in
      Alcotest.(check int) (ctx ^ ": events executed") count_h count_c;
      Alcotest.(check bool) (ctx ^ ": fire sequence") true (String.equal log_h log_c);
      Alcotest.(check (float 0.0)) (ctx ^ ": final clock") final_h final_c)
    [ threshold + 1; 2 * threshold; (4 * threshold) + 500 ]

(* --- the engine's closure slot table ----------------------------------- *)

(* A closure event parks its callback and label in the engine's slot
   table and frees the slot as it fires, so the table tracks the peak
   number of closure events pending at once, not how many were ever
   scheduled: three periodic streams tick ~1.1e5 times between them
   around one burst of 200 one-shot events (peak 203 pending), on
   either queue. *)
let test_closure_slots_track_peak () =
  List.iter
    (fun calendar_threshold ->
      let e = Amb_sim.Engine.create ~calendar_threshold () in
      for k = 0 to 2 do
        Amb_sim.Engine.every_s e ~period_s:(1.0 +. Float.of_int k) ~until_s:60_000.0 (fun _ ->
            true)
      done;
      let burst = 200 in
      Amb_sim.Engine.schedule_at_s e 100.0 (fun e ->
          for k = 1 to burst do
            Amb_sim.Engine.schedule_s e ~delay_s:(Float.of_int k) (fun _ -> ())
          done);
      ignore (Amb_sim.Engine.run_s ~until_s:400.0 e : float);
      let after_burst = Amb_sim.Engine.closure_slots e in
      ignore (Amb_sim.Engine.run_s e : float);
      let ctx = Printf.sprintf "threshold %d" calendar_threshold in
      let peak = burst + 3 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d slots hold the peak of %d" ctx after_burst peak)
        true
        (after_burst >= peak && after_burst <= 2 * peak);
      Alcotest.(check int) (ctx ^ ": no growth over the periodic tail") after_burst
        (Amb_sim.Engine.closure_slots e);
      Alcotest.(check int) (ctx ^ ": events") (60_000 + 30_000 + 20_000 + burst + 1)
        (Amb_sim.Engine.event_count e))
    [ max_int; 16 ]

(* [stop] leaves closure events pending in the slot table; resuming
   must fire them exactly as an uninterrupted run does: the traced
   schedule/fire log (closure, periodic and indexed events interleaved)
   and the final clock are identical. *)
let test_stop_resume_closure_log () =
  let run ~calendar_threshold ~stop =
    let trace = Amb_sim.Trace.create ~capacity:100_000 () in
    let e = Amb_sim.Engine.create ~trace ~calendar_threshold () in
    Amb_sim.Engine.every_s ~label:"tick" e ~period_s:7.0 ~until_s:500.0 (fun _ -> true);
    let hid = ref (-1) in
    hid :=
      Amb_sim.Engine.register_handler ~label:"idx" e (fun e idx ->
          if idx < 40 then
            Amb_sim.Engine.schedule_idx_s e ~handler:!hid ~idx:(idx + 10) ~delay_s:11.0);
    for i = 0 to 9 do
      Amb_sim.Engine.schedule_idx_s e ~handler:!hid ~idx:i ~delay_s:(Float.of_int i)
    done;
    for i = 0 to 59 do
      Amb_sim.Engine.schedule_at_s ~label:(Printf.sprintf "once%d" i) e
        (Float.of_int (i * 37 mod 450))
        (fun e ->
          if i mod 10 = 0 then
            Amb_sim.Engine.schedule_s ~label:(Printf.sprintf "child%d" i) e ~delay_s:3.0 (fun _ ->
                ());
          if stop && i = 25 then Amb_sim.Engine.stop e)
    done;
    let first = Amb_sim.Engine.run_s ~until_s:600.0 e in
    let paused = Amb_sim.Engine.pending e in
    let final = if stop then Amb_sim.Engine.run_s ~until_s:600.0 e else first in
    let log =
      List.map
        (fun (x : Amb_sim.Trace.entry) -> Printf.sprintf "%h %s" x.time x.label)
        (Amb_sim.Trace.to_list trace)
    in
    (log, final, paused)
  in
  List.iter
    (fun calendar_threshold ->
      let ctx = Printf.sprintf "threshold %d" calendar_threshold in
      let log, final, _ = run ~calendar_threshold ~stop:false in
      let log', final', paused = run ~calendar_threshold ~stop:true in
      Alcotest.(check bool) (ctx ^ ": stopped with closure events pending") true (paused > 0);
      Alcotest.(check (list string)) (ctx ^ ": traced log") log log';
      Alcotest.(check (float 0.0)) (ctx ^ ": final clock") final final')
    [ max_int; 16 ]

(* Pushing a dense burst into a fresh queue (1 s buckets, so every push
   walks a chain of hundreds of same-second events) must not allocate
   per chain step: 2 words per push are the boxed time argument, and the
   cell push allocates nothing.  An untyped (polymorphic) comparison
   boxed both times at every step, ~130 words per push. *)
let test_calendar_push_words () =
  let fill push =
    let q = Amb_sim.Calendar_queue.create ~buckets:8192 () in
    for k = 0 to 999 do
      push q k
    done;
    let n = 12_000 in
    let before = Gc.minor_words () in
    for k = 1000 to 999 + n do
      push q k
    done;
    (Gc.minor_words () -. before) /. Float.of_int n
  in
  let[@inline] time k = Float.of_int (k mod 30) +. (0.001 *. Float.of_int (k mod 7)) in
  let boxed =
    fill (fun q k -> Amb_sim.Calendar_queue.push q ~time:(time k) ~seq:k ~i1:0 ~i2:k)
  in
  let cell =
    fill (fun q k ->
        (Amb_sim.Calendar_queue.time_cell q).Amb_sim.Calendar_queue.f <- time k;
        Amb_sim.Calendar_queue.push_cell q ~seq:k ~i1:0 ~i2:k)
  in
  if boxed > 4.0 then Alcotest.failf "Calendar_queue.push: %.1f minor words/push (budget 4)" boxed;
  if cell > 1.0 then Alcotest.failf "Calendar_queue.push_cell: %.1f minor words/push (budget 1)" cell

(* --- sparse routing cache vs dense grid ------------------------------ *)

let default_link () =
  Link_budget.make ~radio:Radio_frontend.low_power_uhf ~channel:Path_loss.indoor ()

let prop_sparse_routing_equiv =
  QCheck.Test.make ~name:"sparse routing cache matches the dense grid" ~count:40
    QCheck.small_nat
    (fun seed ->
      let rng = Amb_sim.Rng.create (5000 + seed) in
      let n = 20 + Amb_sim.Rng.int rng 80 in
      let topo = Topology.random rng ~nodes:n ~width_m:400.0 ~height_m:400.0 in
      let link = default_link () in
      let packet = Packet.sensor_report in
      let dense = Routing.make ~topology:topo ~link ~packet () in
      let sparse = Routing.make ~dense_threshold:0 ~topology:topo ~link ~packet () in
      let same = ref (Routing.adjacency dense = None && Routing.adjacency sparse <> None) in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j then begin
            let a = Routing.sender_energy_j dense i j
            and b = Routing.sender_energy_j sparse i j in
            if not ((Float.is_nan a && Float.is_nan b) || a = b) then same := false
          end
        done
      done;
      let residual _ = Amb_units.Energy.joules 1.0 in
      let da, _ = Graph.dijkstra (Routing.build_graph dense ~policy:Routing.Min_energy ~residual) ~src:0 in
      let db, _ = Graph.dijkstra (Routing.build_graph sparse ~policy:Routing.Min_energy ~residual) ~src:0 in
      !same && Array.for_all2 (fun a b -> a = b) da db)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Every ordered pair of the two routers' caches carries the same
   TX-side joules, bit for bit (NaN for out-of-range pairs on both). *)
let check_same_pairs label (a : Routing.t) (b : Routing.t) =
  let n = Topology.node_count a.Routing.topology in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let x = Routing.sender_energy_j a i j and y = Routing.sender_energy_j b i j in
        if not ((Float.is_nan x && Float.is_nan y) || same_bits x y) then
          Alcotest.failf "%s: pair (%d,%d) gives %.17g vs %.17g" label i j x y
      end
    done
  done

(* The CSR build is a pure function of positions: jobs must not move a
   bit.  n is sized past the 4096-row cutoff below which a sharded pass
   runs inline, so all three sharded passes (degrees, upper halves,
   mirrored lower halves) go to the jobs=3 pool — checked on the pool's
   batch counter — and the arrays must come out identical. *)
let test_sparse_fill_jobs_independent () =
  let rng = Amb_sim.Rng.create 31 in
  let n = 4500 in
  let topo = Topology.random rng ~nodes:n ~width_m:1500.0 ~height_m:1500.0 in
  let link = default_link () in
  let packet = Packet.sensor_report in
  let r1 = Routing.make ~dense_threshold:0 ~jobs:1 ~topology:topo ~link ~packet () in
  let before = Amb_sim.Domain_pool.parallel_batches () in
  let r3 = Routing.make ~dense_threshold:0 ~jobs:3 ~topology:topo ~link ~packet () in
  Alcotest.(check int) "sharded passes run on the pool" 3
    (Amb_sim.Domain_pool.parallel_batches () - before);
  match (r1.Routing.cache, r3.Routing.cache) with
  | Routing.Sparse a, Routing.Sparse b ->
    Alcotest.(check bool) "has edges" true (a.offsets.(n) > n);
    Alcotest.(check (array int)) "offsets" a.offsets b.offsets;
    Alcotest.(check (array int)) "neighbors" a.neighbors b.neighbors;
    Array.iteri
      (fun k e ->
        if not (same_bits e b.edge_tx_j.(k)) then
          Alcotest.failf "edge slot %d: jobs=1 gives %.17g, jobs=3 gives %.17g" k e
            b.edge_tx_j.(k))
      a.edge_tx_j
  | _ -> Alcotest.fail "expected sparse caches"

(* --- boundary layouts ------------------------------------------------- *)

(* Layouts that put pair distances on or next to the range boundary —
   where the squared-distance screen hands over to [Float.hypot] — and
   nodes on cell edges, on the field boundary and on top of each other.
   Random placements almost never land there. *)
let boundary_layouts r =
  let lattice spacing_m = Topology.grid ~columns:12 ~rows:9 ~spacing_m in
  let edges =
    (* Nodes at multiples of [r] (the cell edges of a grid with cell
       [r] or [r/2]), along every side of the field and in its corners. *)
    let w = 6.0 *. r and h = 4.0 *. r in
    let pts = ref [] in
    for k = 0 to 6 do
      for m = 0 to 4 do
        let x = Float.of_int k *. r and y = Float.of_int m *. r in
        pts := { Topology.x = Float.min x w; y = Float.min y h } :: !pts
      done;
      pts := { Topology.x = Float.of_int k *. r *. 0.97; y = h } :: !pts;
      pts := { Topology.x = w; y = Float.of_int k *. r *. 0.61 } :: !pts
    done;
    Topology.of_positions ~width_m:w ~height_m:h (Array.of_list (List.rev !pts))
  in
  let coincident =
    let c = { Topology.x = 2.0 *. r; y = 2.0 *. r } in
    let at dx dy = { Topology.x = c.Topology.x +. dx; y = c.Topology.y +. dy } in
    let diag = r /. Float.sqrt 2.0 in
    Topology.of_positions ~width_m:(4.0 *. r) ~height_m:(4.0 *. r)
      [| c; c; c; at r 0.0; at 0.0 r; at (-.r) 0.0; at 0.0 (-.r); at diag diag;
         at (-.diag) diag; at (Float.succ r) 0.0; at (Float.pred r) 0.0; c;
         at r 0.0; at (r /. 2.0) (r /. 2.0) |]
  in
  let ring =
    (* A node at the centre of a circle of radius [r] carrying 360
       nodes: for about a fifth of them [dx²+dy²] rounds above [r²]
       while [Float.hypot] rounds to at most [r], so a screen without
       its margin drops them. *)
    let c = 2.0 *. r in
    Topology.of_positions ~width_m:(4.0 *. r) ~height_m:(4.0 *. r)
      (Array.init 361 (fun k ->
           if k = 0 then { Topology.x = c; y = c }
           else
             let th = 2.0 *. Float.pi *. Float.of_int (k - 1) /. 360.0 in
             { Topology.x = c +. (r *. Float.cos th); y = c +. (r *. Float.sin th) }))
  in
  [ ("lattice at range", lattice r); ("lattice at half range", lattice (r /. 2.0));
    ("cell edges and field boundary", edges); ("coincident nodes", coincident);
    ("ring at range", ring) ]

(* [degree], [iter_within] and [neighbors_within] against the brute
   [Float.hypot ... <= range_m] scan, on every node. *)
let check_spatial_brute label topo ~cell_m ~range_m =
  let n = Topology.node_count topo in
  let index = Topology.spatial topo ~cell_m in
  for i = 0 to n - 1 do
    let brute = ref [] in
    for j = n - 1 downto 0 do
      if j <> i && Topology.pair_distance topo i j <= range_m then brute := j :: !brute
    done;
    let where = Printf.sprintf "%s (cell %g, range %.17g) node %d" label cell_m range_m i in
    Alcotest.(check (list int)) (where ^ " neighbors_within") !brute
      (Spatial.neighbors_within index i ~range_m);
    Alcotest.(check int) (where ^ " degree") (List.length !brute) (Spatial.degree index i ~range_m);
    let seen = ref [] in
    Spatial.iter_within index i ~range_m (fun j d ->
        if not (same_bits d (Topology.pair_distance topo i j)) then
          Alcotest.failf "%s: distance to %d is %.17g" where j d;
        seen := j :: !seen);
    Alcotest.(check (list int)) (where ^ " iter_within") !brute (List.sort compare !seen)
  done

let test_boundary_layouts () =
  let link = default_link () in
  let packet = Packet.sensor_report in
  let r = Link_budget.max_range link ~tx_dbm:link.Link_budget.radio.Radio_frontend.max_tx_dbm in
  List.iter
    (fun (label, topo) ->
      List.iter
        (fun range_m ->
          List.iter
            (fun cell_m -> check_spatial_brute label topo ~cell_m ~range_m)
            [ range_m; range_m /. 2.0 ])
        [ r; Float.pred r; Float.succ r ];
      check_same_pairs label
        (Routing.make ~dense_threshold:0 ~topology:topo ~link ~packet ())
        (Routing.make ~dense_threshold:max_int ~topology:topo ~link ~packet ()))
    (boundary_layouts r)

(* A tagged city fleet past the dense threshold: the router it builds is
   the CSR tier, and must match the dense tier on every pair. *)
let test_boundary_city () =
  let fleet = Amb_system.Fleet.city ~tags:80 ~nodes:2000 ~seed:12 () in
  let topo = fleet.Amb_system.Fleet.topology in
  let router = fleet.Amb_system.Fleet.router in
  Alcotest.(check bool) "city router is CSR" true (Routing.adjacency router <> None);
  check_spatial_brute "city" topo ~cell_m:router.Routing.range_m ~range_m:router.Routing.range_m;
  check_same_pairs "city" router
    (Routing.make ~dense_threshold:max_int ~topology:topo ~link:router.Routing.link
       ~packet:router.Routing.packet ())

(* --- staged link tariff ----------------------------------------------- *)

(* The largest distance at which [required_tx_dbm] still closes: a
   bisection over the bit patterns of non-negative floats, which order
   like the floats themselves. *)
let closing_edge link ~hi =
  let closes d = Link_budget.required_tx_dbm link ~distance_m:d <> None in
  let lo = ref 0L and hi = ref (Int64.bits_of_float hi) in
  while Int64.sub !hi !lo > 1L do
    let mid = Int64.add !lo (Int64.div (Int64.sub !hi !lo) 2L) in
    if closes (Int64.float_of_bits mid) then lo := mid else hi := mid
  done;
  Int64.float_of_bits !lo

let prop_tx_tariff_exact =
  let channels =
    [| ("indoor", Path_loss.indoor, 1.0); ("open_office", Path_loss.open_office, 1.0);
       ("free_space", Path_loss.free_space, 1.0);
       ("log_distance 5 m", Path_loss.log_distance ~reference_m:5.0 3.0, 5.0) |]
  in
  let radios =
    [| Radio_frontend.low_power_uhf; Radio_frontend.zigbee_class; Radio_frontend.personal_area;
       Radio_frontend.wlan; Radio_frontend.backscatter_uhf |]
  in
  let packets = [| Packet.sensor_reading; Packet.sensor_report; Packet.stream_frame |] in
  QCheck.Test.make ~name:"staged tariff equals link-budget inversion + transmit energy" ~count:120
    QCheck.(quad (int_bound 3) (int_bound 4) (int_bound 2) (float_bound_inclusive 1.0))
    (fun (c, r, p, u) ->
      let _, channel, reference_m = channels.(c) in
      let radio = radios.(r) in
      let bits = Packet.total_bits packets.(p) in
      let link = Link_budget.make ~radio ~channel () in
      let tariff = Link_budget.tx_tariff link ~bits in
      let reach = Link_budget.max_range link ~tx_dbm:radio.Radio_frontend.max_tx_dbm in
      let edge = closing_edge link ~hi:(2.0 *. (reach +. 1.0)) in
      let distances =
        [ 0.0; reference_m /. 2.0; Float.pred reference_m; reference_m; Float.succ reference_m;
          1.5 *. reference_m; Float.pred edge; edge; Float.succ edge; Float.succ (Float.succ edge);
          Float.pred reach; reach; Float.succ reach; u *. 2.0 *. (reach +. 1.0) ]
      in
      List.for_all
        (fun d ->
          let expected =
            match Link_budget.required_tx_dbm link ~distance_m:d with
            | None -> Float.nan
            | Some tx_dbm ->
              Amb_units.Energy.to_joules
                (Radio_frontend.transmit_energy radio ~tx_dbm ~bits ~include_startup:true)
          in
          let got = tariff d in
          Float.is_nan got = (Link_budget.required_tx_dbm link ~distance_m:d = None)
          && (Float.is_nan got || same_bits got expected))
        distances)

(* --- CSR route tree vs dense sweeps ---------------------------------- *)

let prop_route_tree_csr_equiv =
  QCheck.Test.make ~name:"CSR route tree matches dense rebuild and repair" ~count:40
    QCheck.small_nat
    (fun seed ->
      let rng = Amb_sim.Rng.create (6000 + seed) in
      let n = 10 + Amb_sim.Rng.int rng 60 in
      let topo = Topology.random rng ~nodes:n ~width_m:300.0 ~height_m:300.0 in
      let link = default_link () in
      let router = Routing.make ~dense_threshold:0 ~topology:topo ~link ~packet:Packet.sensor_report () in
      let alive = Array.make n true in
      let alive_fn i = alive.(i) in
      let weight i j = Routing.link_energy_j router i j in
      let sink = 0 in
      let dense = Route_tree.create ~n ~sink () in
      let csr = Route_tree.create ?csr:(Routing.adjacency router) ~n ~sink () in
      Route_tree.rebuild dense ~weight ~alive:alive_fn;
      Route_tree.rebuild csr ~weight ~alive:alive_fn;
      let agree () =
        let ok = ref true in
        for i = 0 to n - 1 do
          if
            Route_tree.parent dense i <> Route_tree.parent csr i
            || Route_tree.cost dense i <> Route_tree.cost csr i
          then ok := false
        done;
        !ok
      in
      let after_rebuild = agree () in
      (* Kill a non-sink node and splice both trees. *)
      let dead = 1 + Amb_sim.Rng.int rng (n - 1) in
      alive.(dead) <- false;
      Route_tree.repair_death dense ~weight ~alive:alive_fn ~tie_free:true ~dead;
      Route_tree.repair_death csr ~weight ~alive:alive_fn ~tie_free:true ~dead;
      after_rebuild && agree ())

(* --- sharded fleet construction and scenario sweeps ------------------ *)

(* City layouts must be a pure function of the seed: the per-block RNG
   streams make leaf placement identical whatever the worker count.
   17000 nodes spans three placement blocks, so jobs=3 genuinely
   interleaves. *)
let test_city_jobs_independent () =
  let f1 = Amb_system.Fleet.city ~jobs:1 ~nodes:17_000 ~seed:11 () in
  let f3 = Amb_system.Fleet.city ~jobs:3 ~nodes:17_000 ~seed:11 () in
  let p1 = f1.Amb_system.Fleet.topology.Topology.positions in
  let p3 = f3.Amb_system.Fleet.topology.Topology.positions in
  Alcotest.(check int) "node count" (Array.length p1) (Array.length p3);
  Array.iteri
    (fun i (p : Topology.position) ->
      if p.Topology.x <> p3.(i).Topology.x || p.Topology.y <> p3.(i).Topology.y then
        Alcotest.failf "node %d moved across jobs" i)
    p1;
  (match Routing.adjacency f1.Amb_system.Fleet.router with
  | None -> Alcotest.fail "city fleet should build the sparse cache"
  | Some (offsets, _) ->
    Alcotest.(check bool) "has edges" true (offsets.(Array.length offsets - 1) > 0));
  let leaves t = Array.length (Amb_system.Fleet.tier_nodes t Amb_system.Fleet.Sensor_leaf) in
  Alcotest.(check int) "leaf count" (leaves f1) (leaves f3)

let test_tier_nodes_consistent () =
  let fleet = Amb_system.Fleet.make ~leaves:37 ~relays:5 ~seed:3 () in
  List.iter
    (fun tier ->
      let expected =
        List.filter
          (fun i -> Amb_system.Fleet.tier_of fleet i = tier)
          (List.init (Amb_system.Fleet.node_count fleet) Fun.id)
      in
      Alcotest.(check (list int))
        (Amb_system.Fleet.tier_name tier)
        expected
        (Amb_system.Fleet.nodes_of_tier fleet tier);
      Alcotest.(check (list int))
        (Amb_system.Fleet.tier_name tier ^ " (array)")
        expected
        (Array.to_list (Amb_system.Fleet.tier_nodes fleet tier)))
    Amb_system.Fleet.all_tiers

let test_run_many_jobs_independent () =
  let fleet = Amb_system.Fleet.make ~leaves:24 ~relays:4 ~seed:5 () in
  let cfg =
    Amb_system.Cosim.config ~fleet ~horizon:(Amb_units.Time_span.hours 2.0) ()
  in
  let seeds = [| 1; 2; 3; 4 |] in
  let seq = Amb_system.Cosim.run_many ~jobs:1 cfg ~seeds in
  let par = Amb_system.Cosim.run_many ~jobs:4 cfg ~seeds in
  Alcotest.(check int) "sweep size" (Array.length seq) (Array.length par);
  Array.iteri
    (fun k (a : Amb_system.Cosim.outcome) ->
      let b = par.(k) in
      Alcotest.(check int) "generated" a.Amb_system.Cosim.generated b.Amb_system.Cosim.generated;
      Alcotest.(check int) "delivered" a.Amb_system.Cosim.delivered b.Amb_system.Cosim.delivered;
      Alcotest.(check (float 0.0))
        "energy spent"
        (Amb_units.Energy.to_joules a.Amb_system.Cosim.energy_spent)
        (Amb_units.Energy.to_joules b.Amb_system.Cosim.energy_spent);
      Alcotest.(check (float 0.0))
        "availability" a.Amb_system.Cosim.availability b.Amb_system.Cosim.availability)
    seq

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_spatial_neighbors;
      prop_spatial_distances;
      prop_calendar_pop_order;
      prop_calendar_interleaved;
      prop_sparse_routing_equiv;
      prop_route_tree_csr_equiv;
      prop_tx_tariff_exact;
    ]
  @ [ Alcotest.test_case "connectivity grid tier equals brute force" `Quick
        test_connectivity_grid_tier;
      Alcotest.test_case "engine calendar tier equals heap tier" `Quick
        test_engine_calendar_equiv;
      Alcotest.test_case "engine hand-over under same-second bursts" `Quick
        test_engine_burst_migration;
      Alcotest.test_case "calendar push allocates no chain boxes" `Quick
        test_calendar_push_words;
      Alcotest.test_case "closure slot table holds the pending peak" `Quick
        test_closure_slots_track_peak;
      Alcotest.test_case "stop and resume keep the traced log" `Quick
        test_stop_resume_closure_log;
      Alcotest.test_case "sparse edge fill is jobs-independent" `Quick
        test_sparse_fill_jobs_independent;
      Alcotest.test_case "city layout is jobs-independent" `Quick test_city_jobs_independent;
      Alcotest.test_case "tier membership arrays are consistent" `Quick
        test_tier_nodes_consistent;
      Alcotest.test_case "run_many sweep is jobs-independent" `Quick
        test_run_many_jobs_independent;
      Alcotest.test_case "boundary layouts: grid and CSR equal brute force" `Quick
        test_boundary_layouts;
      Alcotest.test_case "boundary layouts: 2000-node tagged city" `Quick test_boundary_city;
    ]
