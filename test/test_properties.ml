(* Property-based tests (qcheck) on the core data structures and model
   invariants, registered as alcotest cases via QCheck_alcotest. *)

open Amb_units

let count = 300

(* --- Event queue: pops are sorted, nothing is lost --- *)

let prop_queue_sorted =
  QCheck.Test.make ~name:"event queue pops in time order" ~count
    QCheck.(list (float_bound_inclusive 1e6))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.push q ~time:t ()) times;
      let popped = List.map fst (Event_queue.drain q) in
      let rec sorted = function a :: (b :: _ as r) -> a <= b && sorted r | _ -> true in
      List.length popped = List.length times && sorted popped)

let prop_queue_multiset =
  QCheck.Test.make ~name:"event queue preserves the multiset of times" ~count
    QCheck.(list (float_bound_inclusive 1e3))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.push q ~time:t ()) times;
      let popped = List.map fst (Event_queue.drain q) in
      List.sort compare popped = List.sort compare times)

(* --- Quantity algebra --- *)

let small_float = QCheck.float_bound_inclusive 1e9

let prop_power_add_commutative =
  QCheck.Test.make ~name:"power addition commutes" ~count
    QCheck.(pair small_float small_float)
    (fun (a, b) ->
      let pa = Power.watts a and pb = Power.watts b in
      Power.to_watts (Power.add pa pb) = Power.to_watts (Power.add pb pa))

let prop_energy_power_time_roundtrip =
  QCheck.Test.make ~name:"E = P*t then P = E/t roundtrips" ~count
    QCheck.(pair (float_range 1e-9 1e6) (float_range 1e-9 1e6))
    (fun (w, s) ->
      let e = Energy.of_power_time (Power.watts w) (Time_span.seconds s) in
      let p = Energy.average_power e (Time_span.seconds s) in
      Si.approx_equal ~rel:1e-12 w (Power.to_watts p))

let prop_db_roundtrip =
  QCheck.Test.make ~name:"dBm <-> watts roundtrip" ~count
    (QCheck.float_range (-120.0) 60.0)
    (fun dbm -> Si.approx_equal ~rel:1e-9 dbm (Decibel.dbm_of_power (Decibel.power_of_dbm dbm)))

let prop_si_format_total =
  QCheck.Test.make ~name:"SI formatting never raises and is non-empty" ~count
    (QCheck.float_range (-1e18) 1e18)
    (fun v -> String.length (Si.format ~unit:"W" v) > 0)

(* --- Duty-cycle algebra --- *)

let profile_gen =
  QCheck.Gen.(
    map3
      (fun e d s ->
        Amb_node.Duty_cycle.make ~cycle_energy:(Energy.microjoules e)
          ~cycle_duration:(Time_span.milliseconds d) ~sleep_power:(Power.microwatts s))
      (float_range 0.1 1000.0) (float_range 0.1 100.0) (float_range 0.01 100.0))

let profile_arb = QCheck.make ~print:(fun _ -> "<profile>") profile_gen

let prop_duty_power_monotone_in_rate =
  QCheck.Test.make ~name:"average power is monotone in activation rate" ~count
    QCheck.(pair profile_arb (pair (QCheck.float_range 0.0 1.0) (QCheck.float_range 0.0 1.0)))
    (fun (profile, (r1, r2)) ->
      let lo = Float.min r1 r2 and hi = Float.max r1 r2 in
      (* Only meaningful when the cycle costs more than sleeping through
         it (otherwise activations are net savings). *)
      let e = Energy.to_joules profile.Amb_node.Duty_cycle.cycle_energy in
      let s = Power.to_watts profile.Amb_node.Duty_cycle.sleep_power in
      let d = Time_span.to_seconds profile.Amb_node.Duty_cycle.cycle_duration in
      QCheck.assume (e > s *. d);
      QCheck.assume (hi *. d <= 1.0);
      Power.le
        (Amb_node.Duty_cycle.average_power profile ~rate:lo)
        (Amb_node.Duty_cycle.average_power profile ~rate:hi))

let prop_max_rate_inverts_budget =
  QCheck.Test.make ~name:"max_rate achieves exactly the power budget" ~count profile_arb
    (fun profile ->
      let budget =
        Power.add profile.Amb_node.Duty_cycle.sleep_power (Power.microwatts 500.0)
      in
      match Amb_node.Duty_cycle.max_rate profile ~budget with
      | None -> false
      | Some rate when rate = Float.infinity -> true
      | Some rate ->
        let d = Time_span.to_seconds profile.Amb_node.Duty_cycle.cycle_duration in
        if rate *. d >= 1.0 then true (* physically saturated *)
        else
          let p = Amb_node.Duty_cycle.average_power profile ~rate in
          Power.to_watts p <= Power.to_watts budget *. (1.0 +. 1e-9))

(* --- Battery lifetime monotone in load --- *)

let prop_battery_lifetime_antitone =
  QCheck.Test.make ~name:"battery lifetime is antitone in load" ~count
    QCheck.(pair (QCheck.float_range 1e-6 0.005) (QCheck.float_range 1e-6 0.005))
    (fun (w1, w2) ->
      let lo = Float.min w1 w2 and hi = Float.max w1 w2 in
      let l p = Amb_energy.Battery.lifetime Amb_energy.Battery.cr2032 (Power.watts p) in
      Time_span.ge (l lo) (l hi))

(* --- Graph algorithms --- *)

let topo_gen =
  QCheck.Gen.(
    map2
      (fun seed n ->
        let rng = Amb_sim.Rng.create seed in
        Amb_net.Topology.random rng ~nodes:(5 + n) ~width_m:100.0 ~height_m:100.0)
      (int_bound 10_000) (int_bound 25))

let topo_arb = QCheck.make ~print:(fun t -> Printf.sprintf "<topo %d>" (Amb_net.Topology.node_count t)) topo_gen

let prop_dijkstra_triangle =
  QCheck.Test.make ~name:"dijkstra distances satisfy the triangle inequality over edges" ~count:100
    topo_arb
    (fun topo ->
      let g = Topology_reference.connectivity topo ~range_m:40.0 in
      let dist, _ = Amb_net.Graph.dijkstra g ~src:0 in
      let ok = ref true in
      for u = 0 to Amb_net.Graph.node_count g - 1 do
        if dist.(u) < Float.infinity then
          List.iter
            (fun e ->
              if dist.(e.Amb_net.Graph.dst) > dist.(u) +. e.Amb_net.Graph.weight +. 1e-9 then
                ok := false)
            (Amb_net.Graph.neighbors g u)
      done;
      !ok)

let prop_shortest_path_cost_matches_distance =
  QCheck.Test.make ~name:"shortest path cost equals dijkstra distance" ~count:100 topo_arb
    (fun topo ->
      let g = Topology_reference.connectivity topo ~range_m:50.0 in
      let n = Amb_net.Graph.node_count g in
      let dist, _ = Amb_net.Graph.dijkstra g ~src:0 in
      let check v =
        match Amb_net.Graph.shortest_path g ~src:0 ~dst:v with
        | None -> dist.(v) = Float.infinity
        | Some path -> Si.approx_equal ~rel:1e-9 (Amb_net.Graph.path_cost g path) dist.(v)
      in
      List.for_all check (List.init n (fun i -> i)))

(* --- Rng statistical sanity --- *)

let prop_rng_float_in_unit =
  QCheck.Test.make ~name:"rng floats live in [0,1)" ~count:100 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Amb_sim.Rng.create seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Amb_sim.Rng.float rng in
        if not (v >= 0.0 && v < 1.0) then ok := false
      done;
      !ok)

(* --- Rng batch fills vs scalar draws --- *)

(* The batch kernels must consume the stream in exactly the order the
   scalar draws do: two generators with the same seed, one drained
   scalar-wise and one through [fill_*] (at a random offset into a
   larger buffer), must produce identical values — bit-for-bit, since
   both paths run the same integer pipeline. *)
let seed_len_pos =
  QCheck.(triple (int_bound 1_000_000) (int_range 1 257) (int_bound 7))

let prop_fill_floats_matches_scalar =
  QCheck.Test.make ~name:"fill_floats matches scalar float draws" ~count:100 seed_len_pos
    (fun (seed, len, pos) ->
      let a = Amb_sim.Rng.create seed and b = Amb_sim.Rng.create seed in
      let buf = Float.Array.make (pos + len + 3) Float.nan in
      Amb_sim.Rng.fill_floats b ~pos ~len buf;
      let ok = ref true in
      for i = 0 to len - 1 do
        if Float.Array.get buf (pos + i) <> Amb_sim.Rng.float a then ok := false
      done;
      (* Slice discipline: bytes outside [pos, pos+len) untouched. *)
      for i = 0 to pos - 1 do
        if not (Float.is_nan (Float.Array.get buf i)) then ok := false
      done;
      for i = pos + len to Float.Array.length buf - 1 do
        if not (Float.is_nan (Float.Array.get buf i)) then ok := false
      done;
      !ok)

let prop_fill_exponential_matches_scalar =
  QCheck.Test.make ~name:"fill_exponential matches scalar draws" ~count:100 seed_len_pos
    (fun (seed, len, pos) ->
      let a = Amb_sim.Rng.create seed and b = Amb_sim.Rng.create seed in
      let buf = Float.Array.create (pos + len) in
      Amb_sim.Rng.fill_exponential b ~mean:2.5 ~pos ~len buf;
      let ok = ref true in
      for i = 0 to len - 1 do
        if Float.Array.get buf (pos + i) <> Amb_sim.Rng.exponential a ~mean:2.5 then ok := false
      done;
      !ok)

let prop_fill_gaussian_matches_scalar =
  QCheck.Test.make ~name:"fill_gaussian matches scalar draws (pair cache included)"
    ~count:100 seed_len_pos
    (fun (seed, len, pos) ->
      let a = Amb_sim.Rng.create seed and b = Amb_sim.Rng.create seed in
      (* Odd leading scalar draw on both sides so the fill starts with a
         cached Box-Muller spare half the time. *)
      let lead = seed land 1 = 1 in
      if lead then begin
        let x = Amb_sim.Rng.gaussian a ~mu:0.0 ~sigma:1.0 in
        let y = Amb_sim.Rng.gaussian b ~mu:0.0 ~sigma:1.0 in
        if x <> y then QCheck.Test.fail_report "leading scalar draws diverge"
      end;
      let buf = Float.Array.create (pos + len) in
      Amb_sim.Rng.fill_gaussian b ~mu:1.0 ~sigma:0.5 ~pos ~len buf;
      let ok = ref true in
      for i = 0 to len - 1 do
        if Float.Array.get buf (pos + i) <> Amb_sim.Rng.gaussian a ~mu:1.0 ~sigma:0.5 then
          ok := false
      done;
      (* And the streams stay in lockstep after the fill: an odd-length
         fill must leave the same spare cached as the scalar path. *)
      if Amb_sim.Rng.gaussian a ~mu:0.0 ~sigma:1.0 <> Amb_sim.Rng.gaussian b ~mu:0.0 ~sigma:1.0
      then ok := false;
      !ok)

(* --- Modulation --- *)

let prop_ber_bounded =
  QCheck.Test.make ~name:"BER lives in [0, 0.5]" ~count
    QCheck.(pair (QCheck.float_range 0.0 1e4) (QCheck.oneofl
      [ Amb_radio.Modulation.Ook; Amb_radio.Modulation.Fsk_noncoherent;
        Amb_radio.Modulation.Bpsk; Amb_radio.Modulation.Qpsk ]))
    (fun (ebn0, m) ->
      let b = Amb_radio.Modulation.ber m ~ebn0 in
      b >= 0.0 && b <= 0.5 +. 1e-12)

let prop_packet_success_bounded =
  QCheck.Test.make ~name:"packet success probability lives in [0,1]" ~count
    QCheck.(pair (QCheck.float_range 0.0 100.0) (QCheck.float_range 0.0 1e5))
    (fun (ebn0, bits) ->
      let p =
        Amb_radio.Modulation.packet_success_probability Amb_radio.Modulation.Fsk_noncoherent
          ~ebn0 ~bits
      in
      p >= 0.0 && p <= 1.0)

(* --- Path loss --- *)

let prop_path_loss_monotone =
  QCheck.Test.make ~name:"path loss grows with distance" ~count
    QCheck.(pair (QCheck.float_range 0.1 500.0) (QCheck.float_range 0.1 500.0))
    (fun (d1, d2) ->
      let lo = Float.min d1 d2 and hi = Float.max d1 d2 in
      let l d = Amb_radio.Path_loss.loss_db Amb_radio.Path_loss.indoor ~carrier_hz:868e6 ~distance_m:d in
      l lo <= l hi +. 1e-9)

(* --- Scaling --- *)

let prop_dennard_energy_monotone =
  QCheck.Test.make ~name:"scaled energy shrinks with the shrink factor" ~count
    (QCheck.float_range 1.0 10.0)
    (fun s ->
      let e = Energy.picojoules 10.0 in
      Energy.le (Amb_tech.Scaling.scale_energy Amb_tech.Scaling.Dennard e s) e
      && Energy.le (Amb_tech.Scaling.scale_energy Amb_tech.Scaling.Leakage_aware e s) e)

(* --- Stat --- *)

let prop_welford_mean_matches_list_mean =
  QCheck.Test.make ~name:"welford mean equals arithmetic mean" ~count
    QCheck.(list_of_size Gen.(int_range 1 100) (QCheck.float_range (-1e6) 1e6))
    (fun values ->
      let w = Amb_sim.Stat.welford () in
      List.iter (Amb_sim.Stat.add w) values;
      let expected = List.fold_left ( +. ) 0.0 values /. Float.of_int (List.length values) in
      Si.approx_equal ~rel:1e-9 expected (Amb_sim.Stat.mean w))

(* --- Device-class taxonomy: the four bands tile (0, inf) --- *)

(* Log-uniform powers from 1 pW to 1 kW — every band, both sides of the
   nW/uW boundary. *)
let log_power_gen = QCheck.float_range (-12.0) 3.0

let prop_bands_partition =
  QCheck.Test.make ~name:"device-class bands tile (0,inf): every power in exactly one band"
    ~count log_power_gen (fun exp10 ->
      let p = Power.watts (10.0 ** exp10) in
      let members =
        List.filter
          (fun cls ->
            let lo, hi = Amb_core.Device_class.band cls in
            Power.le lo p && Power.lt p hi)
          Amb_core.Device_class.all
      in
      List.length members = 1)

let prop_of_power_inverts_band =
  QCheck.Test.make ~name:"of_power is the inverse of band membership" ~count log_power_gen
    (fun exp10 ->
      let p = Power.watts (10.0 ** exp10) in
      let lo, hi = Amb_core.Device_class.band (Amb_core.Device_class.of_power p) in
      Power.le lo p && Power.lt p hi)

let prop_band_edges_abut =
  QCheck.Test.make ~name:"adjacent bands share their edge and the edge classifies upward"
    ~count:20
    (QCheck.oneofl [ 1e-6; 1e-3; 1.0 ])
    (fun edge ->
      let p = Power.watts edge in
      let lo, _ = Amb_core.Device_class.band (Amb_core.Device_class.of_power p) in
      let rec abuts = function
        | a :: (b :: _ as rest) ->
          let _, hi_a = Amb_core.Device_class.band a in
          let lo_b, _ = Amb_core.Device_class.band b in
          Power.to_watts hi_a = Power.to_watts lo_b && abuts rest
        | _ -> true
      in
      Power.to_watts lo = edge && abuts Amb_core.Device_class.all)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_queue_sorted;
      prop_queue_multiset;
      prop_power_add_commutative;
      prop_energy_power_time_roundtrip;
      prop_db_roundtrip;
      prop_si_format_total;
      prop_duty_power_monotone_in_rate;
      prop_max_rate_inverts_budget;
      prop_battery_lifetime_antitone;
      prop_dijkstra_triangle;
      prop_shortest_path_cost_matches_distance;
      prop_rng_float_in_unit;
      prop_fill_floats_matches_scalar;
      prop_fill_exponential_matches_scalar;
      prop_fill_gaussian_matches_scalar;
      prop_ber_bounded;
      prop_packet_success_bounded;
      prop_path_loss_monotone;
      prop_dennard_energy_monotone;
      prop_welford_mean_matches_list_mean;
      prop_bands_partition;
      prop_of_power_inverts_band;
      prop_band_edges_abut;
    ]
