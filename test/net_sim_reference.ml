(* Reference packet simulation: the plain run that [Net_sim] is held to.

   Same model as [Net_sim.run], written the direct way: after every
   death and every periodic refresh the collection tree is rebuilt from
   scratch and every node's parent re-synced, and each hop is priced on
   the spot with [Routing.sender_energy_j].  [Net_sim] splices only the
   orphaned subtree after a [Min_energy] death, re-syncs that subtree
   alone and reads hop tariffs from a table; the splice is exact when
   shortest paths are unique (continuous positions make them so), so
   the two runs agree bit for bit. *)

open Amb_units
open Amb_sim
open Amb_net

let run (cfg : Net_sim.config) ~seed : Net_sim.outcome =
  let router = cfg.router and sink = cfg.sink in
  let n = Topology.node_count router.Routing.topology in
  let rng = Rng.create seed in
  let engine = Engine.create () in
  let residual = Array.init n (fun i -> Energy.to_joules (cfg.budget i)) in
  let alive = Array.make n true in
  let alive_fn i = alive.(i) in
  let parent = Array.make n (-2) in
  let tree = Route_tree.create ~rows:(Routing.rows router) ~sink in
  let generated = ref 0 and delivered = ref 0 and dropped = ref 0 in
  let spent = ref 0.0 and first_death = ref None in
  let weight =
    Routing_dense_reference.pair_weight @@ fun i j ->
    let joules = Routing.link_energy_j router i j in
    match cfg.policy with
    | Routing.Min_hop -> if Float.is_nan joules then Float.nan else 1.0
    | Routing.Min_energy -> joules
    | Routing.Max_lifetime ->
      if Float.is_nan joules then joules
      else if residual.(i) <= 0.0 then Float.max_float /. 1e6
      else joules /. residual.(i)
  in
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
  Engine.every engine ~period:cfg.rebuild_period ~until:cfg.horizon (fun _ ->
      rebuild ();
      true);
  let _ = Engine.run ~until:cfg.horizon engine in
  {
    Net_sim.generated = !generated;
    delivered = !delivered;
    dropped = !dropped;
    first_death = Option.map Time_span.seconds !first_death;
    dead_at_end = Array.fold_left (fun acc a -> if a then acc else acc + 1) 0 alive;
    delivery_ratio =
      (if !generated = 0 then 0.0 else Float.of_int !delivered /. Float.of_int !generated);
    energy_spent = Energy.joules !spent;
    residual = Array.map Energy.joules residual;
  }
