(* The segment walk [Amb_energy.Day_profile.scale_at] used before
   profiles carried a flat lookup table: the period re-summed from the
   segment list and the boxed list walked on every call.  Kept as the
   bitwise reference the table lookup (in [Day_profile] and in
   [Fleet_ledger]'s accounting kernel) is tested against. *)

open Amb_units
open Amb_energy

let period (t : Day_profile.t) =
  Time_span.sum (List.map (fun s -> s.Day_profile.duration) t.Day_profile.segments)

let scale_at (t : Day_profile.t) time =
  let p = Time_span.to_seconds (period t) in
  let s = Float.rem (Time_span.to_seconds time) p in
  let s = if s < 0.0 then s +. p else s in
  let rec walk segments offset =
    match segments with
    | [] -> 1.0
    | seg :: rest ->
      let next = offset +. Time_span.to_seconds seg.Day_profile.duration in
      if s < next then seg.Day_profile.scale else walk rest next
  in
  walk t.Day_profile.segments 0.0

(* Every cumulative segment boundary the walk compares against, in
   order; the last one is the period. *)
let boundaries (t : Day_profile.t) =
  List.rev
    (snd
       (List.fold_left
          (fun (offset, acc) seg ->
            let next = offset +. Time_span.to_seconds seg.Day_profile.duration in
            (next, next :: acc))
          (0.0, []) t.Day_profile.segments))
