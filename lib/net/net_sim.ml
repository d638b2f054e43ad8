(** Packet-level sensor-network simulation — the plain reference (see
    .mli).  Written the direct way, so that it checks the fast
    simulator, {!Amb_system.Cosim} on a flat-budget fleet: after every
    death and every periodic refresh the tree is rebuilt from scratch
    over the alive nodes ({!Routing.tree_weight} over the live
    residuals) and every parent re-synced, and each hop is priced on
    the spot with {!Routing.sender_energy_j}. *)

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

let run cfg ~seed =
  let router = cfg.router and sink = cfg.sink in
  let n = Topology.node_count router.Routing.topology in
  let rng = Rng.create seed in
  let engine = Engine.create () in
  let residual = Array.init n (fun i -> Energy.to_joules (cfg.budget i)) in
  let alive = Array.make n true in
  let alive_fn i = alive.(i) in
  (* -1 = sink, -2 = dead or unreachable, else the parent id *)
  let parent = Array.make n (-2) in
  let tree = Route_tree.create ~rows:(Routing.rows router) ~sink in
  let weight = Routing.tree_weight router ~policy:cfg.policy ~residual in
  let generated = ref 0 and delivered = ref 0 and dropped = ref 0 in
  let spent = ref 0.0 and first_death = ref None in
  let rebuild () =
    Route_tree.rebuild tree ~weight ~alive:alive_fn;
    for i = 0 to n - 1 do
      parent.(i) <-
        (if i = sink then -1
         else
           let p = Route_tree.parent tree i in
           if p < 0 || not alive.(i) then -2 else p)
    done
  in
  (* Charge [joules] to [node]; false (and the node dies, the tree is
     rebuilt) when its budget runs out. *)
  let charge node joules =
    spent := !spent +. joules;
    residual.(node) <- residual.(node) -. joules;
    if residual.(node) <= 0.0 then begin
      if alive.(node) then begin
        alive.(node) <- false;
        if !first_death = None then first_death := Some (Engine.now_s engine);
        rebuild ()
      end;
      false
    end
    else true
  in
  (* Forward one report towards the sink: per hop the sender pays its
     distance-dependent TX energy and the receiver the RX energy. *)
  let rx_j = Routing.receiver_energy_j router in
  let rec hop node ttl =
    if ttl <= 0 then incr dropped
    else if node = sink then incr delivered
    else
      let p = parent.(node) in
      if p < 0 || not alive.(node) then incr dropped
      else
        let tx_j = Routing.sender_energy_j router node p in
        if Float.is_nan tx_j then incr dropped
        else
          let sender_ok = charge node tx_j in
          let receiver_ok = p = sink || charge p rx_j in
          if sender_ok && receiver_ok then hop p (ttl - 1) else incr dropped
  in
  rebuild ();
  (* Periodic reporting per node, staggered by a random phase drawn in
     node order. *)
  let period_s = Time_span.to_seconds cfg.report_period in
  for node = 0 to n - 1 do
    if node <> sink then begin
      let phase = Rng.uniform rng 0.0 period_s in
      let rec report engine =
        if alive.(node) then begin
          incr generated;
          hop node n;
          Engine.schedule_s engine ~delay_s:period_s report
        end
      in
      Engine.schedule_s engine ~delay_s:phase report
    end
  done;
  (* Periodic residual-aware rebuild (matters for Max_lifetime). *)
  Engine.every engine ~period:cfg.rebuild_period ~until:cfg.horizon (fun _ ->
      rebuild ();
      true);
  let _ = Engine.run ~until:cfg.horizon engine in
  {
    generated = !generated;
    delivered = !delivered;
    dropped = !dropped;
    first_death = Option.map Time_span.seconds !first_death;
    dead_at_end = Array.fold_left (fun acc a -> if a then acc else acc + 1) 0 alive;
    delivery_ratio =
      (if !generated = 0 then 0.0 else Float.of_int !delivered /. Float.of_int !generated);
    energy_spent = Energy.joules !spent;
    residual = Array.map Energy.joules residual;
  }
