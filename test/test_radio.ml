(* Unit tests for Amb_radio: path loss, modulation/BER, link budgets,
   packets, MAC models. *)

open Amb_units
open Amb_circuit
open Amb_radio

let check_rel msg rel expected actual =
  if not (Si.approx_equal ~rel expected actual) then
    Alcotest.failf "%s: expected %.6g, got %.6g" msg expected actual

(* --- Path_loss --- *)

let test_friis_reference () =
  (* Friis at 2.4 GHz, 1 m: 20 log10(4 pi * 1 / 0.125) ~ 40.05 dB. *)
  let loss = Path_loss.loss_db Path_loss.free_space ~carrier_hz:2.4e9 ~distance_m:1.0 in
  Alcotest.(check bool) "about 40 dB" true (Float.abs (loss -. 40.05) < 0.1)

let test_friis_slope () =
  (* Free space: +20 dB per decade of distance. *)
  let l1 = Path_loss.loss_db Path_loss.free_space ~carrier_hz:868e6 ~distance_m:10.0 in
  let l2 = Path_loss.loss_db Path_loss.free_space ~carrier_hz:868e6 ~distance_m:100.0 in
  check_rel "20 dB/decade" 1e-9 20.0 (l2 -. l1)

let test_log_distance_slope () =
  (* Indoor n=3.3: +33 dB per decade beyond the reference. *)
  let l1 = Path_loss.loss_db Path_loss.indoor ~carrier_hz:868e6 ~distance_m:10.0 in
  let l2 = Path_loss.loss_db Path_loss.indoor ~carrier_hz:868e6 ~distance_m:100.0 in
  check_rel "33 dB/decade" 1e-9 33.0 (l2 -. l1)

let test_log_distance_matches_friis_at_reference () =
  let friis = Path_loss.loss_db Path_loss.free_space ~carrier_hz:868e6 ~distance_m:1.0 in
  let logd = Path_loss.loss_db Path_loss.indoor ~carrier_hz:868e6 ~distance_m:1.0 in
  check_rel "continuous at d0" 1e-9 friis logd

let test_max_range_consistent () =
  let threshold = -90.0 in
  let d =
    Path_loss.max_range Path_loss.indoor ~tx_dbm:0.0 ~carrier_hz:868e6 ~threshold_dbm:threshold
  in
  let at_d = Path_loss.received_dbm Path_loss.indoor ~tx_dbm:0.0 ~carrier_hz:868e6 ~distance_m:d in
  Alcotest.(check bool) "threshold met at range" true (Float.abs (at_d -. threshold) < 0.1)

(* The bisection as it stood before [max_range] staged its loss: every
   probe through [received_dbm], which re-stages the model. *)
let max_range_unstaged model ~tx_dbm ~carrier_hz ~threshold_dbm =
  let ok d = Path_loss.received_dbm model ~tx_dbm ~carrier_hz ~distance_m:d >= threshold_dbm in
  if not (ok 1e-3) then 0.0
  else
    let rec bracket hi n = if n = 0 || not (ok hi) then hi else bracket (hi *. 2.0) (n - 1) in
    let hi = bracket 1.0 60 in
    if ok hi then hi
    else
      let rec bisect lo hi n =
        if n = 0 then lo
        else
          let mid = 0.5 *. (lo +. hi) in
          if ok mid then bisect mid hi (n - 1) else bisect lo mid (n - 1)
      in
      bisect 1e-3 hi 60

let test_max_range_staged () =
  List.iter
    (fun (name, model) ->
      List.iter
        (fun (radio : Amb_circuit.Radio_frontend.t) ->
          let carrier_hz = radio.Amb_circuit.Radio_frontend.carrier_hz in
          let threshold_dbm = radio.Amb_circuit.Radio_frontend.sensitivity_dbm +. 10.0 in
          List.iter
            (fun tx_dbm ->
              let expected = max_range_unstaged model ~tx_dbm ~carrier_hz ~threshold_dbm in
              let got = Path_loss.max_range model ~tx_dbm ~carrier_hz ~threshold_dbm in
              if Int64.bits_of_float got <> Int64.bits_of_float expected then
                Alcotest.failf "%s at %g dBm, %g Hz: %.17g, unstaged %.17g" name tx_dbm carrier_hz
                  got expected)
            [ -200.0; -30.0; 0.0; 4.0; 20.0; 36.0; 400.0 ])
        Amb_circuit.Radio_frontend.(backscatter_uhf :: catalogue))
    [ ("indoor", Path_loss.indoor); ("open office", Path_loss.open_office);
      ("free space", Path_loss.free_space) ]

(* --- Modulation --- *)

let test_q_function () =
  (* Q(0) = 0.5; Q(1.6449) ~ 0.05. *)
  check_rel "Q(0)" 1e-6 0.5 (Modulation.q_function 0.0);
  Alcotest.(check bool) "Q(1.645) ~ 0.05" true
    (Float.abs (Modulation.q_function 1.6449 -. 0.05) < 1e-3)

let test_ber_ordering () =
  (* At the same Eb/N0, coherent BPSK beats non-coherent FSK beats OOK. *)
  let ebn0 = Decibel.to_ratio 10.0 in
  let bpsk = Modulation.ber Modulation.Bpsk ~ebn0 in
  let fsk = Modulation.ber Modulation.Fsk_noncoherent ~ebn0 in
  let ook = Modulation.ber Modulation.Ook ~ebn0 in
  Alcotest.(check bool) "bpsk < fsk < ook" true (bpsk < fsk && fsk < ook)

let test_ber_monotone () =
  let b e = Modulation.ber Modulation.Fsk_noncoherent ~ebn0:e in
  Alcotest.(check bool) "monotone decreasing" true (b 1.0 > b 4.0 && b 4.0 > b 16.0)

let test_bpsk_reference_point () =
  (* BPSK at Eb/N0 = 9.6 dB gives BER ~ 1e-5 (textbook). *)
  let ber = Modulation.ber Modulation.Bpsk ~ebn0:(Decibel.to_ratio 9.6) in
  Alcotest.(check bool) "1e-5 ballpark" true (ber > 1e-6 && ber < 1e-4)

let test_required_ebn0_roundtrip () =
  let target = 1e-4 in
  let e = Modulation.required_ebn0 Modulation.Fsk_noncoherent ~target_ber:target in
  check_rel "roundtrip" 1e-3 target (Modulation.ber Modulation.Fsk_noncoherent ~ebn0:e)

let test_packet_success () =
  let p = Modulation.packet_success_probability Modulation.Bpsk ~ebn0:(Decibel.to_ratio 12.0) ~bits:1000.0 in
  Alcotest.(check bool) "high snr, high success" true (p > 0.99);
  let p_low = Modulation.packet_success_probability Modulation.Bpsk ~ebn0:0.5 ~bits:1000.0 in
  Alcotest.(check bool) "low snr, low success" true (p_low < 0.01)

(* --- Packet --- *)

let test_packet_totals () =
  let p = Packet.sensor_reading in
  check_rel "total" 1e-9 (32.0 +. 64.0 +. 32.0 +. 16.0) (Packet.total_bits p);
  Alcotest.(check bool) "mostly overhead" true (Packet.overhead_fraction p > 0.7)

let test_packet_goodput () =
  let rate = Data_rate.kilobits_per_second 100.0 in
  let g = Packet.goodput Packet.stream_frame rate in
  Alcotest.(check bool) "goodput below line rate" true (Data_rate.lt g rate);
  Alcotest.(check bool) "large frames efficient" true
    (Data_rate.to_bits_per_second g > 0.95 *. Data_rate.to_bits_per_second rate)

let test_packet_airtime () =
  let t = Packet.airtime Packet.sensor_reading (Data_rate.kilobits_per_second 144.0) in
  check_rel "airtime" 1e-9 0.001 (Time_span.to_seconds t)

(* --- Link_budget --- *)

let link = Link_budget.make ~radio:Radio_frontend.low_power_uhf ~channel:Path_loss.indoor ()

let test_link_closes_nearby () =
  Alcotest.(check bool) "closes at 5 m" true (Link_budget.closes link ~tx_dbm:0.0 ~distance_m:5.0)

let test_required_tx_monotone () =
  let t d = Link_budget.required_tx_dbm link ~distance_m:d in
  match (t 5.0, t 50.0) with
  | Some near, Some far -> Alcotest.(check bool) "more power farther" true (far > near)
  | _ -> Alcotest.fail "both distances reachable"

let test_out_of_reach () =
  Alcotest.(check bool) "1 km out of reach indoors" true
    (Link_budget.required_tx_dbm link ~distance_m:1000.0 = None);
  Alcotest.(check bool) "no energy figure either" true
    (Link_budget.energy_per_delivered_bit link ~distance_m:1000.0 ~packet_bits:256.0 = None)

let test_max_range_closes () =
  let r = Link_budget.max_range link ~tx_dbm:5.0 in
  Alcotest.(check bool) "range sane for 868 MHz indoor" true (r > 30.0 && r < 500.0);
  Alcotest.(check bool) "closes just inside" true
    (Link_budget.closes link ~tx_dbm:5.0 ~distance_m:(r *. 0.99))

let test_energy_per_bit_grows_with_distance () =
  let e d = Link_budget.energy_per_delivered_bit link ~distance_m:d ~packet_bits:368.0 in
  match (e 5.0, e 100.0) with
  | Some near, Some far -> Alcotest.(check bool) "monotone" true (Energy.ge far near)
  | _ -> Alcotest.fail "expected both reachable"

(* --- Mac_duty_cycle --- *)

let mac t_wakeup =
  Mac_duty_cycle.make ~radio:Radio_frontend.low_power_uhf
    ~t_wakeup:(Time_span.seconds t_wakeup) ~packet:Packet.sensor_report ()

let test_mac_idle_floor () =
  (* With no traffic, power = sleep + sampling. *)
  let m = mac 1.0 in
  let p = Mac_duty_cycle.average_power m ~tx_rate:0.0 ~rx_rate:0.0 in
  let expected =
    Power.to_watts m.Mac_duty_cycle.radio.Radio_frontend.p_sleep
    +. Power.to_watts (Mac_duty_cycle.sampling_power m)
  in
  check_rel "idle floor" 1e-9 expected (Power.to_watts p)

let test_mac_sampling_inverse_in_interval () =
  let s t = Power.to_watts (Mac_duty_cycle.sampling_power (mac t)) in
  check_rel "1/T law" 1e-9 (s 0.1 /. 10.0) (s 1.0)

let test_mac_optimum_matches_numeric () =
  let m = mac 1.0 in
  let tx_rate = 1.0 /. 60.0 and rx_rate = 1.0 /. 120.0 in
  let analytic = Time_span.to_seconds (Mac_duty_cycle.optimal_wakeup m ~tx_rate ~rx_rate) in
  let numeric =
    Time_span.to_seconds (Mac_duty_cycle.optimal_wakeup_numeric m ~tx_rate ~rx_rate)
  in
  Alcotest.(check bool) "within 5%" true (Float.abs (analytic -. numeric) /. numeric < 0.05)

let test_mac_optimum_is_minimum () =
  let tx_rate = 1.0 /. 30.0 and rx_rate = 1.0 /. 30.0 in
  let opt = Time_span.to_seconds (Mac_duty_cycle.optimal_wakeup (mac 1.0) ~tx_rate ~rx_rate) in
  let p t = Power.to_watts (Mac_duty_cycle.average_power (mac t) ~tx_rate ~rx_rate) in
  Alcotest.(check bool) "left higher" true (p (opt /. 4.0) > p opt);
  Alcotest.(check bool) "right higher" true (p (opt *. 4.0) > p opt)

let test_mac_latency () =
  let m = mac 2.0 in
  let lat = Time_span.to_seconds (Mac_duty_cycle.latency m) in
  Alcotest.(check bool) "half interval + airtime" true (lat > 1.0 && lat < 1.1)

(* --- Mac_tdma --- *)

let tdma =
  Mac_tdma.make ~radio:Radio_frontend.low_power_uhf ~slot:(Time_span.milliseconds 10.0)
    ~slots_per_frame:100 ~sync_listen:(Time_span.milliseconds 5.0)
    ~clock:Clocking.watch_crystal ()

let test_tdma_frame_period () =
  check_rel "frame" 1e-9 1.0 (Time_span.to_seconds (Mac_tdma.frame_period tdma))

let test_tdma_duty_cycle () =
  let d = Mac_tdma.duty_cycle tdma ~tx_slots:1 ~rx_slots:1 in
  Alcotest.(check bool) "low duty" true (d > 0.02 && d < 0.03);
  Alcotest.check_raises "overflow"
    (Invalid_argument "Mac_tdma.duty_cycle: more active slots than frame slots") (fun () ->
      ignore (Mac_tdma.duty_cycle tdma ~tx_slots:60 ~rx_slots:60))

let test_tdma_power_scales_with_slots () =
  let p1 = Mac_tdma.average_power tdma ~tx_slots:1 ~rx_slots:0 in
  let p4 = Mac_tdma.average_power tdma ~tx_slots:4 ~rx_slots:0 in
  Alcotest.(check bool) "more slots, more power" true (Power.lt p1 p4)

let test_tdma_vs_duty_cycle_idle () =
  (* For the idle node, TDMA (one sync listen per second) beats preamble
     sampling at a 100 ms wake-up - scheduled access wins when idle. *)
  let tdma_p = Mac_tdma.average_power tdma ~tx_slots:0 ~rx_slots:0 in
  let lpl_p = Mac_duty_cycle.average_power (mac 0.1) ~tx_rate:0.0 ~rx_rate:0.0 in
  Alcotest.(check bool) "tdma idle cheaper" true (Power.lt tdma_p lpl_p)

let test_tdma_throughput () =
  let t = Mac_tdma.throughput tdma ~tx_slots:10 in
  check_rel "10% of bitrate" 1e-9
    (0.1 *. Data_rate.to_bits_per_second Radio_frontend.low_power_uhf.Radio_frontend.bitrate)
    (Data_rate.to_bits_per_second t)

(* --- Mac_csma --- *)

let csma = Mac_csma.make ~radio:Radio_frontend.low_power_uhf ~packet:Packet.sensor_report ()

let test_csma_success_probability () =
  check_rel "e^-1 at g=0.5" 1e-9 (Float.exp (-1.0)) (Mac_csma.success_probability ~g:0.5);
  check_rel "1 at g=0" 1e-9 1.0 (Mac_csma.success_probability ~g:0.0)

let test_csma_throughput_peak () =
  let s g = Mac_csma.throughput ~g in
  Alcotest.(check bool) "peak at 0.5" true
    (s 0.5 > s 0.25 && s 0.5 > s 1.0);
  check_rel "peak value 1/2e" 1e-9 (0.5 *. Float.exp (-1.0)) (s Mac_csma.optimal_load)

let test_csma_expected_attempts () =
  (match Mac_csma.expected_attempts csma ~g:0.1 with
  | Some attempts -> Alcotest.(check bool) "few retries at light load" true (attempts < 1.5)
  | None -> Alcotest.fail "light load deliverable");
  Alcotest.(check bool) "overload undeliverable" true
    (Mac_csma.expected_attempts csma ~g:3.0 = None)

let test_csma_energy_grows_with_load () =
  match
    ( Mac_csma.energy_per_delivered_packet csma ~g:0.05,
      Mac_csma.energy_per_delivered_packet csma ~g:0.3 )
  with
  | Some light, Some heavy -> Alcotest.(check bool) "contention costs" true (Energy.lt light heavy)
  | _ -> Alcotest.fail "both loads deliverable"

let suite =
  [ ("Friis reference", `Quick, test_friis_reference);
    ("Friis slope", `Quick, test_friis_slope);
    ("log-distance slope", `Quick, test_log_distance_slope);
    ("log-distance continuity", `Quick, test_log_distance_matches_friis_at_reference);
    ("max range consistency", `Quick, test_max_range_consistent);
    ("max range equals the unstaged bisection", `Quick, test_max_range_staged);
    ("Q function", `Quick, test_q_function);
    ("BER ordering", `Quick, test_ber_ordering);
    ("BER monotone", `Quick, test_ber_monotone);
    ("BPSK reference point", `Quick, test_bpsk_reference_point);
    ("required Eb/N0 roundtrip", `Quick, test_required_ebn0_roundtrip);
    ("packet success", `Quick, test_packet_success);
    ("packet totals", `Quick, test_packet_totals);
    ("packet goodput", `Quick, test_packet_goodput);
    ("packet airtime", `Quick, test_packet_airtime);
    ("link closes nearby", `Quick, test_link_closes_nearby);
    ("required TX monotone", `Quick, test_required_tx_monotone);
    ("out of reach", `Quick, test_out_of_reach);
    ("max range closes", `Quick, test_max_range_closes);
    ("energy/bit vs distance", `Quick, test_energy_per_bit_grows_with_distance);
    ("MAC idle floor", `Quick, test_mac_idle_floor);
    ("MAC sampling 1/T", `Quick, test_mac_sampling_inverse_in_interval);
    ("MAC optimum analytic=numeric", `Quick, test_mac_optimum_matches_numeric);
    ("MAC optimum is a minimum", `Quick, test_mac_optimum_is_minimum);
    ("MAC latency", `Quick, test_mac_latency);
    ("TDMA frame period", `Quick, test_tdma_frame_period);
    ("TDMA duty cycle", `Quick, test_tdma_duty_cycle);
    ("TDMA power vs slots", `Quick, test_tdma_power_scales_with_slots);
    ("TDMA beats LPL when idle", `Quick, test_tdma_vs_duty_cycle_idle);
    ("TDMA throughput", `Quick, test_tdma_throughput);
    ("CSMA success probability", `Quick, test_csma_success_probability);
    ("CSMA throughput peak", `Quick, test_csma_throughput_peak);
    ("CSMA expected attempts", `Quick, test_csma_expected_attempts);
    ("CSMA energy vs load", `Quick, test_csma_energy_grows_with_load);
  ]
