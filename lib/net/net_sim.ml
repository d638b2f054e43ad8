(** Packet-level sensor-network simulation.

    The full-stack counterpart of the analytic collection-tree model:
    every node periodically generates a report (with jitter), reports are
    forwarded hop by hop along a collection tree, every transmission and
    reception drains the sender's and forwarder's energy budgets, dead
    nodes drop traffic and trigger a tree repair.  Experiment E20 checks
    the simulated first-death time against {!Flow.simulate_depletion}'s
    closed-form block analysis.

    Hot-path discipline: the event loop runs on the float-native
    {!Engine} API (no [Time_span.t] boxing per event, one report closure
    per node for the whole run), and the collection tree lives in a
    reusable {!Route_tree} over the router's CSR rows — deaths under the
    tie-free [Min_energy] policy splice the orphaned subtree and re-sync
    the parents and hop tariffs of that subtree alone.  [Min_hop]
    (equal-cost tie-breaks are global) and [Max_lifetime] (weights go
    stale with the residuals) keep the full rebuild and whole-fleet
    re-sync, as does the periodic residual-aware refresh. *)

open Amb_units
open Amb_sim

type config = {
  router : Routing.t;
  sink : int;
  policy : Routing.policy;
  report_period : Time_span.t;  (** per-node generation period *)
  budget : int -> Energy.t;  (** per-node radio energy budget *)
  horizon : Time_span.t;
  rebuild_period : Time_span.t;  (** periodic residual-aware tree rebuild *)
}

let config ?(rebuild_period = Time_span.hours 4.0) ~router ~sink ~policy ~report_period ~budget
    ~horizon () =
  (* NaN fails every comparison, so finiteness is checked first: a NaN
     horizon would run until every node died. *)
  let check what span =
    let s = Time_span.to_seconds span in
    if not (Float.is_finite s) then invalid_arg ("Net_sim.config: non-finite " ^ what);
    if s <= 0.0 then invalid_arg ("Net_sim.config: non-positive " ^ what)
  in
  check "report period" report_period;
  check "horizon" horizon;
  check "rebuild period" rebuild_period;
  if sink < 0 || sink >= Topology.node_count router.Routing.topology then
    invalid_arg "Net_sim.config: sink outside 0..n-1";
  { router; sink; policy; report_period; budget; horizon; rebuild_period }

type outcome = {
  generated : int;
  delivered : int;
  dropped : int;
  first_death : Time_span.t option;  (** first node exhaustion instant *)
  dead_at_end : int;
  delivery_ratio : float;
  energy_spent : Energy.t;
  residual : Energy.t array;  (** per-node budget left at end of run *)
}

(* All-float accumulator record: mutable float fields in a mixed record
   are boxed on every store, so the per-charge totals live here. *)
type acc = { mutable spent_j : float }

type state = {
  tree : Route_tree.t;
  weight : Route_tree.weight;  (** {!Routing.tree_weight} over [residual] *)
  residual : float array;
  alive : bool array;
  parent : int array;  (** -1 = sink, -2 = dead/unreachable, else parent id *)
  hop_tx : float array;
      (** TX joules of the hop i -> parent.(i), NaN without one; synced
          with [parent], so the forward loop prices a hop without a
          row search *)
  acc : acc;
  mutable generated : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable first_death : float option;
}

(* Project node [i] of the tree into the forwarding arrays. *)
let sync_node cfg st i =
  let p =
    if i = cfg.sink then -1
    else
      let p = Route_tree.parent st.tree i in
      if p < 0 || not st.alive.(i) then -2 else p
  in
  st.parent.(i) <- p;
  st.hop_tx.(i) <- (if p < 0 then Float.nan else Routing.sender_energy_j cfg.router i p)

let sync_parents cfg st =
  for i = 0 to Array.length st.parent - 1 do
    sync_node cfg st i
  done

(* After a local repair only the listed nodes may have moved. *)
let sync_affected cfg st =
  for k = 0 to Route_tree.affected_count st.tree - 1 do
    sync_node cfg st (Route_tree.affected st.tree k)
  done

(* Rebuild the collection tree over the alive subgraph from scratch,
   weighting edges by the routing policy (residual-aware for
   Max_lifetime). *)
let rebuild cfg st =
  Route_tree.rebuild st.tree ~weight:st.weight ~alive:(fun i -> st.alive.(i));
  sync_parents cfg st

let kill cfg st engine node =
  if st.alive.(node) then begin
    st.alive.(node) <- false;
    if st.first_death = None then st.first_death <- Some (Engine.now_s engine);
    match cfg.policy with
    | Routing.Min_energy ->
      Route_tree.repair_death st.tree ~weight:st.weight
        ~alive:(fun i -> st.alive.(i))
        ~tie_free:true ~dead:node;
      sync_affected cfg st
    | Routing.Min_hop | Routing.Max_lifetime -> rebuild cfg st
  end

(* Charge [joules] to [node]; returns false (and kills the node) when the
   budget runs out. *)
let charge cfg st engine node joules =
  st.acc.spent_j <- st.acc.spent_j +. joules;
  st.residual.(node) <- st.residual.(node) -. joules;
  if st.residual.(node) <= 0.0 then begin
    kill cfg st engine node;
    false
  end
  else true

(* Forward one report from [src] towards the sink along the current tree;
   per hop, the sender pays TX energy (distance-dependent) and the
   receiver pays RX energy. *)
let forward cfg st engine src =
  let topo = cfg.router.Routing.topology in
  let rx_j = Routing.receiver_energy_j cfg.router in
  let rec hop node ttl =
    if ttl <= 0 then st.dropped <- st.dropped + 1
    else if node = cfg.sink then st.delivered <- st.delivered + 1
    else
      let parent = st.parent.(node) in
      if parent < 0 || not st.alive.(node) then st.dropped <- st.dropped + 1
      else
        let tx_j = st.hop_tx.(node) in
        if Float.is_nan tx_j then st.dropped <- st.dropped + 1
        else
          let sender_ok = charge cfg st engine node tx_j in
          let receiver_ok = parent = cfg.sink || charge cfg st engine parent rx_j in
          if sender_ok && receiver_ok then hop parent (ttl - 1)
          else st.dropped <- st.dropped + 1
  in
  hop src (Topology.node_count topo)

let run cfg ~seed =
  let topo = cfg.router.Routing.topology in
  let n = Topology.node_count topo in
  let rng = Rng.create seed in
  let engine = Engine.create () in
  let residual = Array.init n (fun i -> Energy.to_joules (cfg.budget i)) in
  let st =
    {
      tree = Route_tree.create ~rows:(Routing.rows cfg.router) ~sink:cfg.sink;
      weight = Routing.tree_weight cfg.router ~policy:cfg.policy ~residual;
      residual;
      alive = Array.make n true;
      parent = Array.make n (-2);
      hop_tx = Array.make n Float.nan;
      acc = { spent_j = 0.0 };
      generated = 0;
      delivered = 0;
      dropped = 0;
      first_death = None;
    }
  in
  rebuild cfg st;
  (* Periodic reporting per node, staggered by a random phase.  One
     report closure per node re-arms itself for the whole run. *)
  let period_s = Time_span.to_seconds cfg.report_period in
  for node = 0 to n - 1 do
    if node <> cfg.sink then begin
      let phase = Rng.uniform rng 0.0 period_s in
      let rec report engine =
        if st.alive.(node) then begin
          st.generated <- st.generated + 1;
          forward cfg st engine node;
          Engine.schedule_s engine ~delay_s:period_s report
        end
      in
      Engine.schedule_s engine ~delay_s:phase report
    end
  done;
  (* Periodic residual-aware rebuild (matters for Max_lifetime). *)
  Engine.every engine ~period:cfg.rebuild_period ~until:cfg.horizon (fun _ ->
      rebuild cfg st;
      true);
  let _ = Engine.run ~until:cfg.horizon engine in
  let dead = Array.fold_left (fun acc a -> if a then acc else acc + 1) 0 st.alive in
  {
    generated = st.generated;
    delivered = st.delivered;
    dropped = st.dropped;
    first_death = Option.map Time_span.seconds st.first_death;
    dead_at_end = dead;
    delivery_ratio =
      (if st.generated = 0 then 0.0 else Float.of_int st.delivered /. Float.of_int st.generated);
    energy_spent = Energy.joules st.acc.spent_j;
    residual = Array.map Energy.joules st.residual;
  }
