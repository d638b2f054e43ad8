(* Latency percentiles for the closed-loop serve stream. *)

type summary = {
  n : int;  (** samples *)
  p50 : float;
  p99 : float;
  above_p99 : int;  (** samples strictly greater than [p99] *)
}

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [p] percent of the samples at or below it. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Pstats.percentile: no samples";
  if not (p > 0.0 && p <= 100.0) then invalid_arg "Pstats.percentile: p outside (0, 100]";
  let rank = Float.to_int (Float.ceil (p /. 100.0 *. Float.of_int n)) in
  sorted.(Stdlib.max 1 rank - 1)

let summarize samples =
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let p99 = percentile sorted 99.0 in
  let above_p99 = Array.fold_left (fun k v -> if v > p99 then k + 1 else k) 0 sorted in
  { n = Array.length sorted; p50 = percentile sorted 50.0; p99; above_p99 }

let median samples = (summarize samples).p50
