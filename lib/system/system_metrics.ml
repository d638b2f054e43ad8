(** Typed per-tier aggregation of co-simulation outcomes (see .mli). *)

open Amb_units
open Amb_report

let txt = Report.cell_text

(* [deaths] lists are kept sorted ascending in time by Cosim. *)
let median_of deaths =
  match deaths with
  | [] -> None
  | _ ->
    let arr = Array.of_list (List.map (fun (_, t) -> Time_span.to_seconds t) deaths) in
    let k = Array.length arr in
    let m = if k mod 2 = 1 then arr.(k / 2) else 0.5 *. (arr.((k / 2) - 1) +. arr.(k / 2)) in
    Some (Time_span.seconds m)

let median_death (o : Cosim.outcome) = median_of o.Cosim.deaths

let tier_deaths fleet (o : Cosim.outcome) tier =
  List.filter (fun (i, _) -> Fleet.tier_of fleet i = tier) o.Cosim.deaths

(* Single left-to-right float pass over the tier's (precomputed,
   ascending) member array: the same accumulation order as the historic
   [Energy.sum (List.map ...)] — a left fold from zero — with no
   per-node intermediate list, so report building stays O(tier size)
   time and O(1) extra memory on city-scale fleets. *)
let tier_energy fleet (o : Cosim.outcome) tier =
  let ids = Fleet.tier_nodes fleet tier in
  let l = o.Cosim.agents in
  let consumed = ref 0.0 and harvested = ref 0.0 and residual = ref 0.0 in
  Array.iter
    (fun i ->
      consumed := !consumed +. Fleet_ledger.consumed_j l i;
      harvested := !harvested +. Fleet_ledger.harvested_j l i;
      residual := !residual +. Fleet_ledger.residual_j l i)
    ids;
  (Energy.joules !consumed, Energy.joules !harvested, Energy.joules !residual)

let time_opt = function Some t -> Report.cell_time t | None -> txt "-"

let report ?(title = "system co-simulation") fleet (o : Cosim.outcome) =
  let tier_row tier =
    let ids = Fleet.tier_nodes fleet tier in
    let total = Array.length ids in
    let alive = ref 0 in
    Array.iter (fun i -> if Fleet_ledger.alive o.Cosim.agents i then incr alive) ids;
    let alive = !alive in
    let consumed, harvested, residual = tier_energy fleet o tier in
    let deaths = tier_deaths fleet o tier in
    [ txt (Fleet.tier_name tier);
      Report.cell_int total;
      Report.cell_int alive;
      Report.cell_energy consumed;
      Report.cell_energy harvested;
      (if Energy.is_finite residual then Report.cell_energy residual else txt "mains");
      (match deaths with [] -> txt "-" | (_, t) :: _ -> Report.cell_time t);
      time_opt (median_of deaths);
      txt "-";
      txt "-";
    ]
  in
  let n = Fleet_ledger.length o.Cosim.agents in
  let network_row =
    let residual = ref 0.0 in
    for i = 0 to n - 1 do
      residual := !residual +. Fleet_ledger.residual_j o.Cosim.agents i
    done;
    let residual = Energy.joules !residual in
    [ txt "network";
      Report.cell_int n;
      Report.cell_int (n - o.Cosim.dead_at_end);
      Report.cell_energy o.Cosim.energy_spent;
      Report.cell_energy o.Cosim.energy_harvested;
      (if Energy.is_finite residual then Report.cell_energy residual else txt "mains");
      (match o.Cosim.first_death with Some t -> Report.cell_time t | None -> txt "no deaths");
      time_opt (median_death o);
      Report.cell_percent o.Cosim.delivery_ratio;
      Report.cell_percent o.Cosim.availability;
    ]
  in
  (* The tag tier appears only when populated: tag-free fleets keep the
     exact three-tier table (and report digests) they always had. *)
  let tiers =
    List.filter
      (fun tier ->
        tier <> Fleet.Tag || Array.length (Fleet.tier_nodes fleet tier) > 0)
      Fleet.all_tiers
  in
  Report.make ~title
    ~header:
      [ "tier"; "nodes"; "alive"; "consumed"; "harvested"; "residual"; "first death";
        "median death"; "delivery"; "availability" ]
    (List.map tier_row tiers @ [ network_row ])
    ~notes:
      [ Printf.sprintf "%d generated, %d delivered, %d dropped over %d engine events"
          o.Cosim.generated o.Cosim.delivered o.Cosim.dropped o.Cosim.events;
        Printf.sprintf "mean leaf coverage %.1f%%, %d tree rebuilds"
          (100.0 *. o.Cosim.mean_coverage) o.Cosim.rebuilds;
      ]
