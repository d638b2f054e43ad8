(* Per-object reference ledger: one mutable agent per node, coupling
   a tier's supply (battery capacity, regulator, harvest income) to the
   continuous sleep drain and the discrete charges the traffic it
   carries causes.  [Fleet_ledger]'s rows and kernels are held to this
   arithmetic bit for bit: [Cosim_reference] charges one agent per
   node, and the ledger-construction oracle compares freshly built
   rows with agents' fields.

   The continuous-flow accounting is a line-for-line mirror of
   [Amb_node.Lifetime_sim]: drain = sleep/regulator, income sampled at
   the interval midpoint, reserve clamped at capacity, and the zero
   crossing interpolated inside the interval.  Mains supplies get an
   infinite reserve; a battery-less, non-mains supply gets capacity 0
   and never dies.  [extra_sleep] adds a continuous drain (MAC channel
   sampling) on top of the tier's sleep power. *)

open Amb_units
open Amb_energy
open Amb_system

(* All-float ledger, flattened into raw doubles.  [died_at] is NaN
   while alive, the encoding the ledger rows use. *)
type ledger = {
  mutable capacity_j : float;  (** 0 = no battery (immortal); infinity = mains *)
  income_w : float;
  regulator : float;
  sleep_w : float;
  mutable reserve_j : float;
  mutable consumed_j : float;
  mutable harvested_j : float;
  mutable last_account : float;
  mutable died_at : float;  (** death instant; NaN while alive *)
}

type t = {
  id : int;
  income_multiplier : (float -> float) option;
  lg : ledger;
  mutable crashed : bool;
}

let create ?income_multiplier ?(extra_sleep = Power.zero) ~id ~(cfg : Fleet.tier_config) () =
  let supply = cfg.Fleet.supply in
  let capacity_j =
    if supply.Supply.mains then Float.infinity
    else
      match cfg.Fleet.budget_override with
      | Some e -> Energy.to_joules e
      | None -> (
        match supply.Supply.battery with
        | Some b -> Energy.to_joules (Battery.energy b)
        | None -> 0.0)
  in
  let income_w = Power.to_watts (Supply.harvest_income supply) in
  {
    id;
    income_multiplier = (if income_w > 0.0 then income_multiplier else None);
    lg =
      {
        capacity_j;
        income_w;
        regulator = supply.Supply.regulator_efficiency;
        sleep_w = Power.to_watts cfg.Fleet.sleep_power +. Power.to_watts extra_sleep;
        reserve_j = capacity_j;
        consumed_j = 0.0;
        harvested_j = 0.0;
        last_account = 0.0;
        died_at = Float.nan;
      };
    crashed = false;
  }

let id t = t.id
let alive t = Float.is_nan t.lg.died_at

let account t ~now =
  let lg = t.lg in
  let dt = now -. lg.last_account in
  if dt > 0.0 && alive t then begin
    let drain = lg.sleep_w /. lg.regulator *. dt in
    (* Diurnal multiplier at the interval midpoint, as in Lifetime_sim:
       the accounting period bounds the integration error. *)
    let scale =
      match t.income_multiplier with
      | None -> 1.0
      | Some f -> f (lg.last_account +. (0.5 *. dt))
    in
    let gain = lg.income_w *. scale *. dt in
    lg.consumed_j <- lg.consumed_j +. (lg.sleep_w *. dt);
    lg.harvested_j <- lg.harvested_j +. gain;
    let net = drain -. gain in
    let before = lg.reserve_j in
    lg.reserve_j <- Float.min lg.capacity_j (lg.reserve_j -. net);
    if lg.reserve_j <= 0.0 && lg.capacity_j > 0.0 then begin
      let rate = net /. dt in
      lg.died_at <- (if rate > 0.0 then lg.last_account +. (before /. rate) else now)
    end
  end;
  lg.last_account <- now

let charge t ~now joules =
  account t ~now;
  if alive t then begin
    let lg = t.lg in
    lg.consumed_j <- lg.consumed_j +. joules;
    lg.reserve_j <- lg.reserve_j -. (joules /. lg.regulator);
    if lg.reserve_j <= 0.0 && lg.capacity_j > 0.0 then lg.died_at <- now
  end

let crash t ~now =
  account t ~now;
  if alive t then begin
    t.lg.died_at <- now;
    t.crashed <- true
  end

let scale_battery t ~factor =
  if factor <= 0.0 then invalid_arg "Node_agent.scale_battery: non-positive factor";
  let lg = t.lg in
  if Float.is_finite lg.capacity_j then begin
    lg.capacity_j <- lg.capacity_j *. factor;
    lg.reserve_j <- lg.reserve_j *. factor
  end

let reserve_j t = t.lg.reserve_j
let capacity_j t = t.lg.capacity_j
let income_w t = t.lg.income_w
let regulator_efficiency t = t.lg.regulator
let sleep_drain_w t = t.lg.sleep_w
let consumed_j t = t.lg.consumed_j
let harvested_j t = t.lg.harvested_j
let last_account_s t = t.lg.last_account
let died_at_s t = t.lg.died_at
let has_income_multiplier t = Option.is_some t.income_multiplier
let is_crashed t = t.crashed
