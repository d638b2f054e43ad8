(* Reference co-simulation: the per-object run that [Cosim] is held to.

   Same model as [Cosim.run_with_router], written the direct way: one
   [Node_agent] ledger per node charged through
   [Node_agent.account]/[charge]/[crash], every hop priced on the spot
   through [Link_layer.cost_tx_j]/[tag_hop], one labelled closure per
   report stream re-arming itself, every tree change (death, fade or
   periodic refresh) a from-scratch [Route_tree.rebuild] followed by a
   whole-fleet parent sync and leaf recount, no ring drain, no pool and
   no phase timing.  [Cosim] splices only the affected subtree after a
   [Min_energy] death or a worsened tree edge; that splice is exact when
   shortest paths are unique, which the continuous positions of these
   fleets make them, so the two trees agree bit for bit while the
   reference shares none of the repair code.  [Cosim] keeps none of this: its ledger is the
   struct-of-arrays [Fleet_ledger], its tariffs are precomputed tables
   and its reports ride the engine's indexed channel.  The oracle in
   [test_forward_fast.ml] holds the two to bitwise equality — every
   outcome field, every node's final ledger, the death list and the
   full engine trace — so this file is the specification the optimised
   run must reproduce, and it must stay this plain. *)

open Amb_units
open Amb_sim
open Amb_net
open Amb_system

(* A node's final ledger state, as the oracle compares it. *)
type node = {
  reserve : float;
  consumed : float;
  harvested : float;
  last_account : float;
  died_at : float;
  crashed : bool;
}

(* Every field of [Cosim.outcome], with the final ledger as [nodes]. *)
type outcome = {
  generated : int;
  delivered : int;
  dropped : int;
  delivery_ratio : float;
  first_death : Time_span.t option;
  deaths : (int * Time_span.t) list;
  dead_at_end : int;
  energy_spent : Energy.t;
  energy_harvested : Energy.t;
  availability : float;
  mean_coverage : float;
  rebuilds : int;
  events : int;
  nodes : node array;
}

(* A [Cosim] outcome in the oracle's terms, its nodes read through the
   ledger's accessors. *)
let of_cosim (o : Cosim.outcome) =
  let l = o.agents in
  {
    generated = o.generated;
    delivered = o.delivered;
    dropped = o.dropped;
    delivery_ratio = o.delivery_ratio;
    first_death = o.first_death;
    deaths = o.deaths;
    dead_at_end = o.dead_at_end;
    energy_spent = o.energy_spent;
    energy_harvested = o.energy_harvested;
    availability = o.availability;
    mean_coverage = o.mean_coverage;
    rebuilds = o.rebuilds;
    events = o.events;
    nodes =
      Array.init (Fleet_ledger.length l) (fun i ->
          {
            reserve = Fleet_ledger.reserve_j l i;
            consumed = Fleet_ledger.consumed_j l i;
            harvested = Fleet_ledger.harvested_j l i;
            last_account = Fleet_ledger.last_account_s l i;
            died_at = Fleet_ledger.died_at_s l i;
            crashed = Fleet_ledger.crashed l i;
          });
  }

let run ?trace ~router (cfg : Cosim.config) ~seed : outcome =
  let fleet = cfg.fleet in
  let topo = fleet.Fleet.topology in
  let n = Topology.node_count topo in
  let sink = fleet.Fleet.sink in
  let rng = Rng.create seed in
  let engine = Engine.create ?trace () in
  let link =
    Link_layer.create
      ?tag_link:
        (Option.map
           (fun bs ->
             ( bs,
               (fun i -> fleet.Fleet.tiers.(i) = Fleet.Tag),
               fun i -> fleet.Fleet.tiers.(i) = Fleet.Sink ))
           fleet.Fleet.tag_link)
      ~router ~mode:cfg.link ()
  in
  let sampling = Power.watts (Link_layer.sampling_power_w link) in
  let rx_j = Link_layer.cost_rx_j link in
  let reader_j = Link_layer.reader_cost_rx_j link in
  let income_multiplier = Option.map Amb_energy.Day_profile.income_multiplier cfg.diurnal in
  let agents =
    Array.init n (fun i ->
        (* Tags never sample the shared MAC channel. *)
        let extra_sleep =
          if fleet.Fleet.tiers.(i) = Fleet.Tag then Power.zero else sampling
        in
        Node_agent.create ?income_multiplier ~extra_sleep ~id:i
          ~cfg:(Fleet.config_of fleet fleet.Fleet.tiers.(i)) ())
  in
  List.iter
    (function
      | Fault_plan.Battery_scale { node; scale } ->
        Node_agent.scale_battery agents.(node) ~factor:scale
      | Fault_plan.Node_crash _ | Fault_plan.Link_fade _ -> ())
    cfg.faults;
  let alive i = Node_agent.alive agents.(i) in
  let tree = Route_tree.create ~rows:(Routing.rows router) ~sink in
  let parent = Array.make n (-2) in
  let generated = ref 0 and delivered = ref 0 and dropped = ref 0 in
  let drop () = incr dropped in
  let deaths = ref [] in
  let rebuilds = ref 0 in
  let coverage = Stat.time_weighted () in
  let avail = Stat.time_weighted () in
  let leaf_ids = Fleet.tier_nodes fleet Fleet.Sensor_leaf in
  let note label time =
    match trace with None -> () | Some tr -> Trace.record tr ~time label
  in
  (* Fraction of leaves whose parent chain reaches the sink, walked
     leaf by leaf. *)
  let connected_fraction () =
    if Array.length leaf_ids = 0 then 1.0
    else begin
      let reaches leaf =
        let rec up node steps =
          if node = sink then true
          else if node < 0 || steps > n then false
          else up parent.(node) (steps + 1)
        in
        up leaf 0
      in
      let connected =
        Array.fold_left
          (fun acc leaf -> if alive leaf && reaches leaf then acc + 1 else acc)
          0 leaf_ids
      in
      Float.of_int connected /. Float.of_int (Array.length leaf_ids)
    end
  in
  let weight =
    Routing_dense_reference.pair_weight
    @@
    match cfg.policy with
    | Routing.Min_hop ->
      fun i j -> if Float.is_nan (Link_layer.weight_j link i j) then Float.nan else 1.0
    | Routing.Min_energy -> fun i j -> Link_layer.weight_j link i j
    | Routing.Max_lifetime ->
      fun i j ->
        let joules = Link_layer.weight_j link i j in
        if Float.is_nan joules then joules
        else
          let r = Node_agent.reserve_j agents.(i) in
          if r <= 0.0 then Float.max_float /. 1e6 else joules /. r
  in
  let sync_parents () =
    for i = 0 to n - 1 do
      parent.(i) <-
        (if i = sink then -1
         else
           let p = Route_tree.parent tree i in
           if p < 0 || not (alive i) then -2 else p)
    done
  in
  let record_stats now =
    let f = connected_fraction () in
    Stat.update coverage ~time:now ~value:f;
    Stat.update avail ~time:now ~value:(if f >= cfg.availability_threshold then 1.0 else 0.0)
  in
  let rebuild now =
    incr rebuilds;
    Route_tree.rebuild tree ~weight ~alive;
    sync_parents ();
    record_stats now
  in
  let record_death i now =
    let at =
      let d = Node_agent.died_at_s agents.(i) in
      if Float.is_nan d then now else d
    in
    deaths := (i, at) :: !deaths;
    note ("death:" ^ Int.to_string i) at;
    rebuild now
  in
  (* Charge [joules] to node [i]; false once the node is gone (the
     death, if any, has already triggered its repair). *)
  let charge i now joules =
    let was = alive i in
    Node_agent.charge agents.(i) ~now joules;
    if was && not (alive i) then record_death i now;
    alive i
  in
  let account_all now =
    Array.iter
      (fun agent ->
        let i = Node_agent.id agent in
        let was = alive i in
        Node_agent.account agent ~now;
        if was && not (alive i) then record_death i now)
      agents
  in
  (* Hop towards the sink: sender pays TX, receiver pays RX (the sink
     listens for free), deaths drop the packet.  A reader-powered tag
     hop makes the serving reader pay its tariff even when it is the
     sink. *)
  let rec hop node ttl now =
    if ttl <= 0 then drop ()
    else if node = sink then incr delivered
    else
      let p = parent.(node) in
      if p < 0 || not (alive node) then drop ()
      else
        let tx_j = Link_layer.cost_tx_j link node p in
        if Float.is_nan tx_j then drop ()
        else begin
          let sender_ok = charge node now tx_j in
          let receiver_ok =
            if Link_layer.tag_hop link node then charge p now reader_j
            else p = sink || charge p now rx_j
          in
          if sender_ok && receiver_ok then hop p (ttl - 1) now else drop ()
        end
  in
  rebuild 0.0;
  (* Report streams, phases drawn in node order from the run seed. *)
  for node = 0 to n - 1 do
    if node <> sink then begin
      let tier_cfg = Fleet.config_of fleet fleet.Fleet.tiers.(node) in
      match tier_cfg.Fleet.report_period with
      | None -> ()
      | Some p ->
        let period_s = Time_span.to_seconds p in
        let phase = Rng.uniform rng 0.0 period_s in
        let label = "report:" ^ Int.to_string node in
        let activation_j = Energy.to_joules tier_cfg.Fleet.activation_energy in
        let rec report engine =
          if alive node then begin
            incr generated;
            let now = Engine.now_s engine in
            if activation_j > 0.0 then ignore (charge node now activation_j);
            hop node n now;
            Engine.schedule_s ~label engine ~delay_s:period_s report
          end
        in
        Engine.schedule_s ~label engine ~delay_s:phase report
    end
  done;
  let horizon_s = Time_span.to_seconds cfg.horizon in
  Engine.every_s ~label:"rebuild" engine ~period_s:(Time_span.to_seconds cfg.rebuild_period)
    ~until_s:horizon_s (fun e ->
      rebuild (Engine.now_s e);
      true);
  Engine.every_s ~label:"account" engine
    ~period_s:(Time_span.to_seconds cfg.accounting_period) ~until_s:horizon_s (fun e ->
      account_all (Engine.now_s e);
      true);
  List.iter
    (function
      | Fault_plan.Node_crash { node; at } ->
        Engine.schedule_at ~label:("fault:crash:" ^ Int.to_string node) engine at (fun e ->
            if alive node then begin
              let now = Engine.now_s e in
              Node_agent.crash agents.(node) ~now;
              record_death node now
            end)
      | Fault_plan.Link_fade { a; b; db; at } ->
        Engine.schedule_at ~label:(Printf.sprintf "fault:fade:%d-%d" a b) engine at (fun e ->
            let now = Engine.now_s e in
            Link_layer.set_fade link ~a ~b ~db;
            rebuild now)
      | Fault_plan.Battery_scale _ -> ())
    cfg.faults;
  let end_s = Engine.run_s ~until_s:horizon_s engine in
  account_all end_s;
  Stat.close coverage ~time:end_s;
  Stat.close avail ~time:end_s;
  let deaths = List.sort (fun (_, a) (_, b) -> Float.compare a b) (List.rev !deaths) in
  let sum f = Energy.joules (Array.fold_left (fun acc a -> acc +. f a) 0.0 agents) in
  let time_avg tw =
    let v = Stat.time_average tw in
    if Float.is_nan v then 1.0 else v
  in
  {
    generated = !generated;
    delivered = !delivered;
    dropped = !dropped;
    delivery_ratio =
      (if !generated = 0 then 0.0 else Float.of_int !delivered /. Float.of_int !generated);
    first_death = (match deaths with [] -> None | (_, t) :: _ -> Some (Time_span.seconds t));
    deaths = List.map (fun (i, t) -> (i, Time_span.seconds t)) deaths;
    dead_at_end =
      Array.fold_left (fun acc a -> if Node_agent.alive a then acc else acc + 1) 0 agents;
    energy_spent = sum Node_agent.consumed_j;
    energy_harvested = sum Node_agent.harvested_j;
    availability = time_avg avail;
    mean_coverage = time_avg coverage;
    rebuilds = !rebuilds;
    events = Engine.event_count engine;
    nodes =
      Array.map
        (fun a ->
          {
            reserve = Node_agent.reserve_j a;
            consumed = Node_agent.consumed_j a;
            harvested = Node_agent.harvested_j a;
            last_account = Node_agent.last_account_s a;
            died_at = Node_agent.died_at_s a;
            crashed = Node_agent.is_crashed a;
          })
        agents;
  }
