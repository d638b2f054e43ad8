(* City-scale fast-path oracles: every structure the large-fleet path
   swaps in (spatial grid, CSR routing cache, CSR route tree, periodic
   event rings, sharded construction) is checked for exact agreement
   with the historic O(n^2)/heap implementation it replaces — the same
   bits, not just the same statistics. *)

open Amb_circuit
open Amb_radio
open Amb_net

let count = 100

(* --- spatial grid vs brute-force pair scan --------------------------- *)

(* The pair kernels over a random partition of the slots into at most
   five ranges, on a grid whose cell edge is the range, its half or its
   third. *)
let kernel_rows rng topo ~range_m =
  let n = Topology.node_count topo in
  let cell_m = range_m /. Float.of_int (1 + Amb_sim.Rng.int rng 3) in
  let cuts = List.init (Amb_sim.Rng.int rng 5) (fun _ -> Amb_sim.Rng.int rng (n + 1)) in
  Spatial_pairs.rows (Topology.spatial topo ~cell_m) ~range_m ~cuts

let prop_spatial_neighbors =
  QCheck.Test.make ~name:"spatial pair kernels match the pair scan" ~count
    QCheck.(pair small_nat (float_range 10.0 200.0))
    (fun (seed, range_m) ->
      let rng = Amb_sim.Rng.create (7000 + seed) in
      let n = 1 + Amb_sim.Rng.int rng 120 in
      let topo = Topology.random rng ~nodes:n ~width_m:300.0 ~height_m:250.0 in
      let rows = kernel_rows rng topo ~range_m in
      List.for_all
        (fun i ->
          let brute = Topology_reference.neighbors_within topo i ~range_m in
          List.map fst rows.Spatial_pairs.nbrs.(i) = brute
          && rows.Spatial_pairs.deg.(i) = List.length brute
          && rows.Spatial_pairs.up.(i) = List.length (List.filter (fun j -> j > i) brute))
        (List.init n Fun.id))

let prop_spatial_distances =
  QCheck.Test.make ~name:"spatial pair kernels report exact distances" ~count
    QCheck.(pair small_nat (float_range 20.0 150.0))
    (fun (seed, range_m) ->
      let rng = Amb_sim.Rng.create (8000 + seed) in
      let n = 2 + Amb_sim.Rng.int rng 80 in
      let topo = Topology.random rng ~nodes:n ~width_m:200.0 ~height_m:200.0 in
      let rows = kernel_rows rng topo ~range_m in
      let ok = ref true in
      Array.iteri
        (fun i row ->
          List.iter
            (fun (j, d) ->
              (* Bit-identical to the historic scan's Float.hypot. *)
              if d <> Topology.pair_distance topo i j then ok := false)
            row)
        rows.Spatial_pairs.nbrs;
      !ok)

(* --- periodic rings vs self-re-arming closures ------------------------- *)

(* The same report streams on the engine's periodic rings and as
   self-re-arming closures on its heap: one period per stream drawn
   from a few values (equal periods share a ring), phases on a
   half-second grid below the period (ties within and across rings),
   streams that stop re-arming after a drawn number of fires, one-shot
   closures (some scheduling a child, one calling [stop]) and a run
   resumed to the horizon after [until] and [stop].  The chronology,
   the traced schedule/fire bytes, the executed count and every
   returned clock must be equal. *)
let prop_rings_equal_closures =
  QCheck.Test.make ~name:"engine rings replay self-re-arming closures" ~count
    QCheck.small_nat
    (fun seed ->
      let rng = Amb_sim.Rng.create (9000 + seed) in
      let pick k = Amb_sim.Rng.int rng k in
      let choices = [| 1.0; 1.5; 2.0; 3.0; 4.5 |] in
      let m = 1 + pick 3 in
      let streams = 1 + pick 60 in
      let periods = Array.init streams (fun _ -> choices.(pick m + pick 2)) in
      let phases =
        Array.map (fun p -> 0.5 *. Float.of_int (pick (int_of_float (2.0 *. p)))) periods
      in
      let stop_after = Array.init streams (fun _ -> if pick 3 = 0 then 1 + pick 20 else 0) in
      let closures =
        Array.init (pick 20) (fun _ -> (0.5 *. Float.of_int (pick 80), pick 4, pick 10 = 0))
      in
      let first_until = 0.5 *. Float.of_int (pick 60) in
      let horizon = 40.0 in
      let run mode =
        let trace = Amb_sim.Trace.create ~capacity:100_000 () in
        let e = Amb_sim.Engine.create ~trace () in
        let log = Buffer.create 4096 in
        let clk = Amb_sim.Engine.clock_cell e in
        let fires = Array.make streams 0 in
        let report idx =
          Buffer.add_string log (Printf.sprintf "r%d@%h;" idx clk.Amb_sim.Engine.v);
          fires.(idx) <- fires.(idx) + 1;
          stop_after.(idx) = 0 || fires.(idx) < stop_after.(idx)
        in
        (match mode with
        | `Closures ->
          for idx = 0 to streams - 1 do
            let label = "report:" ^ Int.to_string idx in
            let rec tick e =
              if report idx then Amb_sim.Engine.schedule_s ~label e ~delay_s:periods.(idx) tick
            in
            Amb_sim.Engine.schedule_s ~label e ~delay_s:phases.(idx) tick
          done
        | `Rings ->
          Amb_sim.Engine.periodic_channel ~label:"report" e ~periods report;
          for idx = 0 to streams - 1 do
            Amb_sim.Engine.arm_s e ~idx ~delay_s:phases.(idx)
          done);
        Array.iteri
          (fun i (at, child, stops) ->
            Amb_sim.Engine.schedule_at_s ~label:(Printf.sprintf "once%d" i) e at (fun e ->
                Buffer.add_string log (Printf.sprintf "c%d@%h;" i clk.Amb_sim.Engine.v);
                if child > 0 then
                  Amb_sim.Engine.schedule_s ~label:"child" e ~delay_s:(0.5 *. Float.of_int child)
                    (fun _ -> Buffer.add_string log (Printf.sprintf "k%d;" i));
                if stops then Amb_sim.Engine.stop e))
          closures;
        let clocks = ref [ Amb_sim.Engine.run_s ~until_s:first_until e ] in
        for _ = 1 to 1 + Array.length closures do
          clocks := Amb_sim.Engine.run_s ~until_s:horizon e :: !clocks
        done;
        let traced =
          List.map
            (fun (x : Amb_sim.Trace.entry) -> Printf.sprintf "%h %s" x.time x.label)
            (Amb_sim.Trace.to_list trace)
        in
        (Buffer.contents log, traced, !clocks, Amb_sim.Engine.event_count e,
         Amb_sim.Engine.pending e)
      in
      let reference = run `Closures in
      run `Rings = reference)

(* 2 000 one-shot closures around 20 periodic streams (periods 3..22 s,
   a ring each, re-armed up to 450 s): the ring engine fires them in
   the order of the same streams as [every_s] closures — same
   callbacks, same clock readings, same final time. *)
let test_engine_rings_equal_closures () =
  let run ~rings =
    let e = Amb_sim.Engine.create () in
    let rng = Amb_sim.Rng.create 77 in
    let log = Buffer.create 4096 in
    for i = 0 to 1999 do
      let t = Amb_sim.Rng.uniform rng 0.0 500.0 in
      Amb_sim.Engine.schedule_at_s e t (fun e ->
          Buffer.add_string log
            (Printf.sprintf "%d@%.17g;" i (Amb_sim.Engine.now_s e)))
    done;
    let period k = 3.0 +. Float.of_int k in
    let tick e k = Buffer.add_string log (Printf.sprintf "p%d@%.17g;" k (Amb_sim.Engine.now_s e)) in
    if rings then begin
      Amb_sim.Engine.periodic_channel e ~periods:(Array.init 20 period) (fun k ->
          tick e k;
          Amb_sim.Engine.now_s e +. period k <= 450.0);
      for k = 0 to 19 do
        Amb_sim.Engine.arm_s e ~idx:k ~delay_s:(period k)
      done
    end
    else
      for k = 0 to 19 do
        Amb_sim.Engine.every_s e ~period_s:(period k) ~until_s:450.0 (fun e ->
            tick e k;
            true)
      done;
    let final = Amb_sim.Engine.run_s ~until_s:480.0 e in
    (Buffer.contents log, final, Amb_sim.Engine.event_count e)
  in
  let log_h, final_h, count_h = run ~rings:false in
  let log_r, final_r, count_r = run ~rings:true in
  Alcotest.(check string) "event chronology" log_h log_r;
  Alcotest.(check (float 0.0)) "final clock" final_h final_r;
  Alcotest.(check int) "events executed" count_h count_r

(* Dense same-second bursts: [streams] report streams on one 30 s ring
   whose phases pile hundreds of events onto each whole second (a third
   of them on exact ties), plus a few closure events.  At 1-4x 4 096
   streams, the city's pending population, the ring engine's fire
   sequence must equal the same streams as closures on the heap. *)
let test_engine_ring_bursts () =
  let run ~rings ~streams =
    let e = Amb_sim.Engine.create () in
    let fired = Buffer.create (1 lsl 16) in
    let log tag idx e =
      Buffer.add_string fired
        (Printf.sprintf "%c%d@%h;" tag idx (Amb_sim.Engine.clock_cell e).Amb_sim.Engine.v)
    in
    if rings then
      Amb_sim.Engine.periodic_channel e ~periods:(Array.make streams 30.0) (fun idx ->
          log 'r' idx e;
          true);
    for i = 0 to streams - 1 do
      let phase = Float.of_int (i mod 30) +. (0.25 *. Float.of_int (i mod 3 * (i mod 2))) in
      if rings then Amb_sim.Engine.arm_s e ~idx:i ~delay_s:phase
      else begin
        let rec tick e =
          log 'r' i e;
          Amb_sim.Engine.schedule_s e ~delay_s:30.0 tick
        in
        Amb_sim.Engine.schedule_s e ~delay_s:phase tick
      end;
      if i mod 1000 = 0 then Amb_sim.Engine.schedule_at_s e phase (log 'c' i)
    done;
    let final = Amb_sim.Engine.run_s ~until_s:75.0 e in
    (Buffer.contents fired, final, Amb_sim.Engine.event_count e)
  in
  List.iter
    (fun streams ->
      let log_h, final_h, count_h = run ~rings:false ~streams in
      let log_r, final_r, count_r = run ~rings:true ~streams in
      let ctx = Printf.sprintf "%d streams" streams in
      Alcotest.(check int) (ctx ^ ": events executed") count_h count_r;
      Alcotest.(check bool) (ctx ^ ": fire sequence") true (String.equal log_h log_r);
      Alcotest.(check (float 0.0)) (ctx ^ ": final clock") final_h final_r)
    [ 4097; 8192; 16884 ]

(* --- the engine's closure slot table ----------------------------------- *)

(* A closure event parks its callback and label in the engine's slot
   table and frees the slot as it fires, so the table tracks the peak
   number of closure events pending at once, not how many were ever
   scheduled: three periodic streams tick ~1.1e5 times between them
   around one burst of 200 one-shot events (peak 203 pending). *)
let test_closure_slots_track_peak () =
  let e = Amb_sim.Engine.create () in
  for k = 0 to 2 do
    Amb_sim.Engine.every_s e ~period_s:(1.0 +. Float.of_int k) ~until_s:60_000.0 (fun _ -> true)
  done;
  let burst = 200 in
  Amb_sim.Engine.schedule_at_s e 100.0 (fun e ->
      for k = 1 to burst do
        Amb_sim.Engine.schedule_s e ~delay_s:(Float.of_int k) (fun _ -> ())
      done);
  ignore (Amb_sim.Engine.run_s ~until_s:400.0 e : float);
  let after_burst = Amb_sim.Engine.closure_slots e in
  ignore (Amb_sim.Engine.run_s e : float);
  let peak = burst + 3 in
  Alcotest.(check bool)
    (Printf.sprintf "%d slots hold the peak of %d" after_burst peak)
    true
    (after_burst >= peak && after_burst <= 2 * peak);
  Alcotest.(check int) "no growth over the periodic tail" after_burst
    (Amb_sim.Engine.closure_slots e);
  Alcotest.(check int) "events" (60_000 + 30_000 + 20_000 + burst + 1)
    (Amb_sim.Engine.event_count e)

(* [stop] leaves closure and ring events pending; resuming must fire
   them exactly as an uninterrupted run does: the traced schedule/fire
   log (closure, periodic and ring events interleaved) and the final
   clock are identical. *)
let test_stop_resume_closure_log () =
  let run ~stop =
    let trace = Amb_sim.Trace.create ~capacity:100_000 () in
    let e = Amb_sim.Engine.create ~trace () in
    Amb_sim.Engine.every_s ~label:"tick" e ~period_s:7.0 ~until_s:500.0 (fun _ -> true);
    Amb_sim.Engine.periodic_channel ~label:"idx" e ~periods:(Array.make 50 11.0) (fun idx ->
        if idx < 40 then Amb_sim.Engine.arm_s e ~idx:(idx + 10) ~delay_s:11.0;
        false);
    for i = 0 to 9 do
      Amb_sim.Engine.arm_s e ~idx:i ~delay_s:(Float.of_int i)
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
  let log, final, _ = run ~stop:false in
  let log', final', paused = run ~stop:true in
  Alcotest.(check bool) "stopped with events pending" true (paused > 0);
  Alcotest.(check (list string)) "traced log" log log';
  Alcotest.(check (float 0.0)) "final clock" final final'

(* --- CSR routing cache vs the dense reference grid ------------------- *)

let default_link () =
  Link_budget.make ~radio:Radio_frontend.low_power_uhf ~channel:Path_loss.indoor ()

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* [Route_tree] finds a repair's subtree by walking children down the
   CSR rows, which sees every tree edge only if [j] is in row [i]
   exactly when [i] is in row [j].  Rows are ascending, so membership
   is a binary search. *)
let check_symmetric ~ctx router =
  let offsets, neighbors = Routing.rows router in
  let n = Array.length offsets - 1 in
  let in_row i j =
    let lo = ref offsets.(i) and hi = ref (offsets.(i + 1) - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if neighbors.(mid) < j then lo := mid + 1 else hi := mid
    done;
    !lo <= !hi && neighbors.(!lo) = j
  in
  for i = 0 to n - 1 do
    for k = offsets.(i) to offsets.(i + 1) - 1 do
      let j = neighbors.(k) in
      if j = i then Alcotest.failf "%s: %d lists itself" ctx i;
      if not (in_row j i) then Alcotest.failf "%s: %d is in row %d but not %d in row %d" ctx j i i j
    done
  done

(* The router against the test-side n×n fill: every ordered pair's
   lookup, the diagonal included, equals the grid bit for bit (NaN
   included); row [i] lists exactly the [j] the grid prices, ascending;
   and the rows are symmetric. *)
let check_against_grid label (router : Routing.t) =
  let grid = Routing_dense_reference.make router in
  let n = grid.Routing_dense_reference.n in
  let offsets, neighbors = Routing.rows router in
  if Array.length offsets <> n + 1 then
    Alcotest.failf "%s: %d row bounds for %d nodes" label (Array.length offsets) n;
  for i = 0 to n - 1 do
    let k = ref offsets.(i) in
    for j = 0 to n - 1 do
      let x = Routing.sender_energy_j router i j
      and y = Routing_dense_reference.sender_energy_j grid i j in
      if not (same_bits x y) then
        Alcotest.failf "%s: pair (%d,%d) gives %.17g, the grid %.17g" label i j x y;
      if not (Float.is_nan y) then begin
        if !k >= offsets.(i + 1) || neighbors.(!k) <> j then
          Alcotest.failf "%s: row %d does not list %d in place" label i j;
        incr k
      end
    done;
    if !k <> offsets.(i + 1) then
      Alcotest.failf "%s: row %d lists %d pairs the grid leaves NaN" label i (offsets.(i + 1) - !k)
  done;
  check_symmetric ~ctx:label router

(* Layouts of [n] nodes for a link of range [r]: uniform random, all
   on one point, all within range of each other, none within range of
   any other. *)
let layouts rng ~n ~r =
  let columns = Stdlib.max 1 (int_of_float (Float.ceil (Float.sqrt (Float.of_int n)))) in
  let spread = 1.01 *. r in
  let side = spread *. Float.of_int columns in
  [ ("random", Topology.random rng ~nodes:n ~width_m:400.0 ~height_m:400.0);
    ( "coincident",
      Topology.of_positions ~width_m:r ~height_m:r
        (Array.make n { Topology.x = r /. 2.0; y = r /. 2.0 }) );
    ("all in range", Topology.random rng ~nodes:n ~width_m:(r /. 2.0) ~height_m:(r /. 2.0));
    ( "none in range",
      Topology.of_positions ~width_m:side ~height_m:side
        (Array.init n (fun k ->
             { Topology.x = spread *. Float.of_int (k mod columns);
               y = spread *. Float.of_int (k / columns) })) ) ]

let link_range link =
  Link_budget.max_range link ~tx_dbm:link.Link_budget.radio.Radio_frontend.max_tx_dbm

let prop_sparse_routing_equiv =
  QCheck.Test.make ~name:"sparse routing cache matches the dense grid" ~count:40
    QCheck.small_nat
    (fun seed ->
      let rng = Amb_sim.Rng.create (5000 + seed) in
      let n = 1 + Amb_sim.Rng.int rng (if seed mod 8 = 7 then 1500 else 150) in
      let link = default_link () in
      let packet = Packet.sensor_report in
      let label, topo = List.nth (layouts rng ~n ~r:(link_range link)) (seed mod 4) in
      let router = Routing.make ~topology:topo ~link ~packet () in
      check_against_grid (Printf.sprintf "seed %d, %d nodes %s" seed n label) router;
      (* A route tree over the router's rows under its policy weights
         relaxes to the same distances as a graph built from the grid in
         ascending insertion order. *)
      let grid = Routing_dense_reference.make router in
      let g = Graph.create n in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let joules = Routing_dense_reference.sender_energy_j grid i j +. router.Routing.rx_j in
          if not (Float.is_nan joules) then Graph.add_edge g ~src:i ~dst:j ~weight:joules
        done
      done;
      let da, _ = Graph.dijkstra g ~src:0 in
      let tree = Route_tree.create ~rows:(Routing.rows router) ~sink:0 in
      Route_tree.rebuild tree
        ~weight:(Routing.tree_weight router ~policy:Routing.Min_energy ~residual:(Array.make n 1.0))
        ~alive:(fun _ -> true);
      Array.for_all2 same_bits da (Array.init n (Route_tree.cost tree)))

(* The CSR build is a pure function of positions: jobs must not move a
   bit.  n is sized past the 4096-row cutoff below which a sharded pass
   runs inline, so all four sharded passes (pair counts and pair fills
   over slot ranges, sorting and pricing the upper halves, mirrored
   lower halves) go to the jobs=3 pool — checked on the pool's batch
   counter — and the arrays must come out identical. *)
let test_sparse_fill_jobs_independent () =
  let rng = Amb_sim.Rng.create 31 in
  let n = 4500 in
  let topo = Topology.random rng ~nodes:n ~width_m:1500.0 ~height_m:1500.0 in
  let link = default_link () in
  let packet = Packet.sensor_report in
  let r1 = Routing.make ~jobs:1 ~topology:topo ~link ~packet () in
  let before = Amb_sim.Domain_pool.parallel_batches () in
  let r3 = Routing.make ~jobs:3 ~topology:topo ~link ~packet () in
  Alcotest.(check int) "sharded passes run on the pool" 4
    (Amb_sim.Domain_pool.parallel_batches () - before);
  let a = r1.Routing.cache and b = r3.Routing.cache in
  Alcotest.(check bool) "has edges" true (a.Routing.offsets.(n) > n);
  Alcotest.(check (array int)) "offsets" a.Routing.offsets b.Routing.offsets;
  Alcotest.(check (array int)) "neighbors" a.Routing.neighbors b.Routing.neighbors;
  Array.iteri
    (fun k e ->
      if not (same_bits e b.Routing.edge_tx_j.(k)) then
        Alcotest.failf "edge slot %d: jobs=1 gives %.17g, jobs=3 gives %.17g" k e
          b.Routing.edge_tx_j.(k))
    a.Routing.edge_tx_j

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

(* The pair kernels against the brute [Float.hypot ... <= range_m]
   scan, on every node: the degrees, the upper-half counts, the
   neighbour ids and their exact distances, with the slots in one range
   and in three. *)
let check_spatial_brute label topo ~cell_m ~range_m =
  let n = Topology.node_count topo in
  let index = Topology.spatial topo ~cell_m in
  List.iter
    (fun parts ->
      let rows = Spatial_pairs.rows index ~range_m ~cuts:(Spatial_pairs.even_cuts n parts) in
      for i = 0 to n - 1 do
        let brute = Topology_reference.neighbors_within topo i ~range_m in
        let where =
          Printf.sprintf "%s (cell %g, range %.17g, %d ranges) node %d" label cell_m range_m parts i
        in
        let row = rows.Spatial_pairs.nbrs.(i) in
        Alcotest.(check (list int)) (where ^ " neighbours") brute (List.map fst row);
        Alcotest.(check int) (where ^ " degree") (List.length brute) rows.Spatial_pairs.deg.(i);
        Alcotest.(check int) (where ^ " upper half")
          (List.length (List.filter (fun j -> j > i) brute))
          rows.Spatial_pairs.up.(i);
        List.iter
          (fun (j, d) ->
            if not (same_bits d (Topology.pair_distance topo i j)) then
              Alcotest.failf "%s: distance to %d is %.17g" where j d)
          row
      done)
    [ 1; 3 ]

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
            [ range_m; range_m /. 2.0; range_m /. 3.0 ];
          (* A cell this small would exceed the 4n-cell budget: the grid
             inflates it, and the kernels must widen their ring to match. *)
          let tiny = range_m /. 64.0 in
          if not (Spatial.cell_m (Topology.spatial topo ~cell_m:tiny) > tiny) then
            Alcotest.failf "%s: a %g m cell was not inflated" label tiny;
          check_spatial_brute label topo ~cell_m:tiny ~range_m)
        [ r; Float.pred r; Float.succ r ];
      check_against_grid label (Routing.make ~topology:topo ~link ~packet ()))
    (boundary_layouts r)

(* A tagged city fleet: the router it builds must match the reference
   grid on every pair. *)
let test_boundary_city () =
  let fleet = Amb_system.Fleet.city ~tags:80 ~nodes:2000 ~seed:12 () in
  let topo = fleet.Amb_system.Fleet.topology in
  let router = fleet.Amb_system.Fleet.router in
  check_spatial_brute "city" topo ~cell_m:router.Routing.range_m ~range_m:router.Routing.range_m;
  check_against_grid "city" router

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

(* The slice kernel the CSR build prices rows with, against the staged
   tariff, on a slice inside a longer array whose ends must stay put:
   at and below zero, about the reference distance, in range, at the
   closing edge, exactly at [max_range] and beyond it (NaN). *)
let prop_tx_tariff_slice_exact =
  let channels =
    [| (Path_loss.free_space, 1.0); (Path_loss.indoor, 1.0); (Path_loss.open_office, 1.0);
       (Path_loss.log_distance ~reference_m:5.0 3.0, 5.0) |]
  in
  let radios =
    [| Radio_frontend.low_power_uhf; Radio_frontend.zigbee_class; Radio_frontend.personal_area;
       Radio_frontend.wlan; Radio_frontend.backscatter_uhf |]
  in
  QCheck.Test.make ~name:"slice tariff equals the staged tariff" ~count:120
    QCheck.(quad (int_bound 3) (int_bound 4) (float_bound_inclusive 1.0) small_nat)
    (fun (c, r, u, shift) ->
      let channel, reference_m = channels.(c) in
      let radio = radios.(r) in
      let bits = Packet.total_bits Packet.sensor_report in
      let link = Link_budget.make ~radio ~channel () in
      let tariff = Link_budget.tx_tariff link ~bits in
      let slice = Link_budget.tx_tariff_slice link ~bits in
      let reach = Link_budget.max_range link ~tx_dbm:radio.Radio_frontend.max_tx_dbm in
      let edge = closing_edge link ~hi:(2.0 *. (reach +. 1.0)) in
      let distances =
        [| -1.0; -0.0; 0.0; Float.min_float; reference_m /. 2.0; Float.pred reference_m;
           reference_m; Float.succ reference_m; u *. reach; Float.pred edge; edge;
           Float.succ edge; Float.pred reach; reach; Float.succ reach; 2.0 *. (reach +. 1.0);
           Float.infinity |]
      in
      let len = Array.length distances in
      let lo = 1 + (shift mod 3) in
      let a = Array.make (lo + len + 2) 7.0 in
      Array.blit distances 0 a lo len;
      slice a lo (lo + len);
      let ends_kept =
        Array.for_all (fun k -> k >= lo && k < lo + len || a.(k) = 7.0) (Array.init (lo + len + 2) Fun.id)
      in
      ends_kept
      && Array.for_all Fun.id (Array.mapi (fun k d -> same_bits a.(lo + k) (tariff d)) distances)
      && Float.is_nan a.(lo + len - 2))

(* --- CSR route tree vs the all-pairs sweep ---------------------------- *)

(* The "dense" tree sweeps complete rows — every other node — which is
   the historic all-pairs relaxation; the CSR tree sweeps the router's
   in-range rows. *)
let prop_route_tree_csr_equiv =
  QCheck.Test.make ~name:"CSR route tree matches dense rebuild and repair" ~count:40
    QCheck.small_nat
    (fun seed ->
      let rng = Amb_sim.Rng.create (6000 + seed) in
      let n = 10 + Amb_sim.Rng.int rng 60 in
      let topo = Topology.random rng ~nodes:n ~width_m:300.0 ~height_m:300.0 in
      let link = default_link () in
      let router = Routing.make ~topology:topo ~link ~packet:Packet.sensor_report () in
      let alive = Array.make n true in
      let alive_fn i = alive.(i) in
      let weight = Routing_dense_reference.pair_weight (Routing.link_energy_j router) in
      let sink = 0 in
      let dense = Route_tree.create ~rows:(Routing_dense_reference.complete_rows n) ~sink in
      let csr = Route_tree.create ~rows:(Routing.rows router) ~sink in
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
  (let offsets, _ = Routing.rows f1.Amb_system.Fleet.router in
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

(* A seed sweep over a domain pool, one [Cosim.run] per seed, every run
   sharing the fleet's one router: the outcomes equal the sequential
   sweep's at every pool size. *)
let test_pool_sweep_jobs_independent () =
  let fleet = Amb_system.Fleet.make ~leaves:24 ~relays:4 ~seed:5 () in
  let cfg =
    Amb_system.Cosim.config ~fleet ~horizon:(Amb_units.Time_span.hours 2.0) ()
  in
  let seeds = [| 1; 2; 3; 4 |] in
  let seq = Array.map (fun seed -> Amb_system.Cosim.run cfg ~seed) seeds in
  let par =
    Amb_sim.Domain_pool.with_pool ~jobs:4 (fun pool ->
        Amb_sim.Domain_pool.run pool
          (Array.map (fun seed () -> Amb_system.Cosim.run cfg ~seed) seeds))
  in
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

(* --- CSR symmetry and completeness --------------------------------- *)

(* Fixed sizes from one node to past the retired 1 024-node dense
   threshold, on every layout, plus tagged cities on both sides of it.
   Each layout is also priced by a link whose fade margin is so large
   that it closes nowhere ([max_range] is exactly 0), where the router
   must list no pair and every lookup is NaN, as on the grid. *)
let test_csr_symmetric () =
  let link = default_link () in
  let closed =
    Link_budget.make ~fade_margin_db:200.0 ~radio:Radio_frontend.low_power_uhf
      ~channel:Path_loss.indoor ()
  in
  Alcotest.(check (float 0.0)) "closed link range" 0.0 (link_range closed);
  let r = link_range link in
  let rng = Amb_sim.Rng.create 77 in
  List.iter
    (fun n ->
      List.iter
        (fun (label, topology) ->
          check_against_grid (Printf.sprintf "%d nodes %s" n label)
            (Routing.make ~topology ~link ~packet:Packet.sensor_report ());
          let router = Routing.make ~topology ~link:closed ~packet:Packet.sensor_report () in
          check_against_grid (Printf.sprintf "%d nodes %s, closed link" n label) router;
          Alcotest.(check int)
            (Printf.sprintf "%d nodes %s, closed link: edges" n label)
            0
            (Array.length (snd (Routing.rows router))))
        (layouts rng ~n ~r))
    [ 1; 2; 3; 1024; 1500 ];
  List.iter
    (fun (nodes, tags) ->
      let city = Amb_system.Fleet.city ~tags ~nodes ~seed:(nodes mod 7) () in
      check_against_grid (Printf.sprintf "%d-node city" nodes) city.Amb_system.Fleet.router)
    [ (300, 20); (1024, 0); (1324, 30) ]

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_spatial_neighbors;
      prop_spatial_distances;
      prop_rings_equal_closures;
      prop_sparse_routing_equiv;
      prop_route_tree_csr_equiv;
      prop_tx_tariff_exact;
      prop_tx_tariff_slice_exact;
    ]
  @ [ Alcotest.test_case "engine rings equal closures" `Quick
        test_engine_rings_equal_closures;
      Alcotest.test_case "ring bursts equal closures" `Quick test_engine_ring_bursts;
      Alcotest.test_case "closure slot table holds the pending peak" `Quick
        test_closure_slots_track_peak;
      Alcotest.test_case "stop and resume keep the traced log" `Quick
        test_stop_resume_closure_log;
      Alcotest.test_case "sparse edge fill is jobs-independent" `Quick
        test_sparse_fill_jobs_independent;
      Alcotest.test_case "city layout is jobs-independent" `Quick test_city_jobs_independent;
      Alcotest.test_case "tier membership arrays are consistent" `Quick
        test_tier_nodes_consistent;
      Alcotest.test_case "pool seed sweep is jobs-independent" `Quick
        test_pool_sweep_jobs_independent;
      Alcotest.test_case "boundary layouts: grid and CSR equal brute force" `Quick
        test_boundary_layouts;
      Alcotest.test_case "CSR adjacency is symmetric on every layout and size" `Quick
        test_csr_symmetric;
      Alcotest.test_case "boundary layouts: 2000-node tagged city" `Quick test_boundary_city;
    ]
