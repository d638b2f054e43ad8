(** Diurnal harvesting profiles.

    Indoor light is not constant: an office is lit ~10 hours a day and
    nearly dark the rest.  An "autonomous" node must either ride through
    the dark stretch on stored energy or lower its duty cycle.  This
    module describes periodic day profiles as piecewise-constant scale
    factors on a harvesting environment and sizes the storage buffer the
    dark stretch requires (experiment E14). *)

open Amb_units

type segment = { duration : Time_span.t; scale : float }

type t = {
  name : string;
  segments : segment list;  (** one period, repeated forever *)
  period_s : float;
  bounds : float array;  (** cumulative segment ends, seconds *)
  scales : float array;
}

(* The lookup table is the left fold from [0.0] that the segment walk
   performed on every call ([offset +. duration], segment by segment),
   run once here: every bound, and the period as the last of them, is
   bitwise what the walk computed. *)
let make ~name segments =
  if segments = [] then invalid_arg "Day_profile.make: empty profile";
  List.iter
    (fun s ->
      if Time_span.to_seconds s.duration <= 0.0 then
        invalid_arg "Day_profile.make: non-positive segment";
      if s.scale < 0.0 then invalid_arg "Day_profile.make: negative scale")
    segments;
  let n = List.length segments in
  let bounds = Array.make n 0.0 and scales = Array.make n 0.0 in
  let offset = ref 0.0 in
  List.iteri
    (fun k s ->
      offset := !offset +. Time_span.to_seconds s.duration;
      bounds.(k) <- !offset;
      scales.(k) <- s.scale)
    segments;
  { name; segments; period_s = !offset; bounds; scales }

let period t = Time_span.seconds t.period_s

(** Office lighting: 10 h at full level, 14 h at 2% (emergency lights /
    residual daylight). *)
let office_lighting =
  make ~name:"office lighting"
    [ { duration = Time_span.hours 10.0; scale = 1.0 };
      { duration = Time_span.hours 14.0; scale = 0.02 };
    ]

(** Living-room lighting: two lit stretches (morning, evening). *)
let living_room_lighting =
  make ~name:"living-room lighting"
    [ { duration = Time_span.hours 2.0; scale = 1.0 };
      { duration = Time_span.hours 8.0; scale = 0.1 };
      { duration = Time_span.hours 5.0; scale = 1.0 };
      { duration = Time_span.hours 9.0; scale = 0.02 };
    ]

(** Outdoor sun: 12 h day / 12 h night. *)
let outdoor_diurnal =
  make ~name:"outdoor diurnal"
    [ { duration = Time_span.hours 12.0; scale = 1.0 };
      { duration = Time_span.hours 12.0; scale = 0.0 };
    ]

(** Constant (the default the rest of the toolkit assumes). *)
let constant = make ~name:"constant" [ { duration = Time_span.hours 24.0; scale = 1.0 } ]

(** [income_multiplier t time_s] — the multiplier in effect at [time_s]
    seconds (periodic): the [time_s -> multiplier] function for the
    discrete-event simulator. *)
let income_multiplier t time_s =
  let p = t.period_s in
  let s = Float.rem time_s p in
  let s = if s < 0.0 then s +. p else s in
  (* First segment whose end lies strictly beyond [s]; none (NaN, or a
     negative wrap that rounds up to the period) falls back to 1.0. *)
  let bounds = t.bounds in
  let n = Array.length bounds in
  let k = ref 0 in
  while !k < n && not (s < Array.unsafe_get bounds !k) do
    incr k
  done;
  if !k < n then Array.unsafe_get t.scales !k else 1.0

(** [scale_at t time] — the multiplier in effect at [time] (periodic). *)
let scale_at t time = income_multiplier t (Time_span.to_seconds time)

(** [average_scale t] — duration-weighted mean multiplier: the factor by
    which the constant-income analyses overestimate real harvest. *)
let average_scale t =
  let total = Time_span.to_seconds (period t) in
  List.fold_left
    (fun acc s -> acc +. (s.scale *. Time_span.to_seconds s.duration /. total))
    0.0 t.segments

(** [average_income t peak_income] — long-run harvested power when the
    nominal environment yields [peak_income]. *)
let average_income t peak_income = Power.scale (average_scale t) peak_income

(** [darkest_stretch t ~threshold] — the longest contiguous run of
    segments whose scale stays below [threshold], accounting for
    wrap-around across the period boundary. *)
let darkest_stretch t ~threshold =
  let dark s = s.scale < threshold in
  let doubled = t.segments @ t.segments in
  let best, _current =
    List.fold_left
      (fun (best, current) s ->
        if dark s then
          let current = Time_span.add current s.duration in
          (Time_span.max best current, current)
        else (best, Time_span.zero))
      (Time_span.zero, Time_span.zero)
      doubled
  in
  (* A fully dark profile would double-count; cap at the period. *)
  Time_span.min best (period t)

(** [buffer_energy_required t ~load ~income] — energy a storage buffer
    must hold to carry [load] through the darkest stretch, crediting the
    residual income during it. *)
let buffer_energy_required t ~load ~income =
  let stretch = darkest_stretch t ~threshold:0.5 in
  (* Worst-case residual income during the stretch: the minimum scale. *)
  let min_scale =
    List.fold_left (fun acc s -> Float.min acc s.scale) Float.infinity t.segments
  in
  let residual = Power.scale min_scale income in
  let net = Power.max Power.zero (Power.sub load residual) in
  Energy.of_power_time net stretch

(** [buffer_capacitance_required t ~load ~income ~v_max ~v_min] — the
    supercapacitor value implementing {!buffer_energy_required} within the
    usable voltage window. *)
let buffer_capacitance_required t ~load ~income ~v_max ~v_min =
  let window = Voltage.squared v_max -. Voltage.squared v_min in
  if window <= 0.0 then invalid_arg "Day_profile.buffer_capacitance_required: empty window";
  2.0 *. Energy.to_joules (buffer_energy_required t ~load ~income) /. window

(** [sustainable t ~load ~income] — the long-run balance test: average
    harvested income covers the load. *)
let sustainable t ~load ~income = Power.ge (average_income t income) load
