(** Data-collection trees and network lifetime.

    Sensor fields funnel readings to a sink over a routing tree; interior
    nodes forward their whole subtree's traffic, so they die first.
    Network lifetime here is first-node-death, the conventional metric,
    computed from per-node energy budgets and per-round forwarding
    loads (experiment E11).  Trees are {!Route_tree} rebuilds under
    {!Routing.tree_weight}. *)

open Amb_units

type tree = {
  sink : int;
  parent : int array;  (** parent.(sink) = -1; parent.(i) = -2 when disconnected *)
  subtree_size : int array;  (** nodes (incl. self) whose traffic crosses i *)
}

(* The collection tree of a rebuilt route tree: its parents, with
   unreachable nodes marked -2, and each node's subtree size. *)
let of_route route =
  let n = Route_tree.node_count route and sink = Route_tree.sink route in
  let parent =
    Array.init n (fun i ->
        if i = sink then -1
        else
          let p = Route_tree.parent route i in
          if p < 0 then -2 else p)
  in
  let subtree_size = Array.make n 0 in
  (* Count descendants by walking each node's path to the sink. *)
  for i = 0 to n - 1 do
    if parent.(i) <> -2 then begin
      let rec bump v =
        if v >= 0 then begin
          subtree_size.(v) <- subtree_size.(v) + 1;
          if v <> sink then bump parent.(v)
        end
      in
      bump i
    end
  done;
  { sink; parent; subtree_size }

let all_alive _ = true

(** [collection_tree router ~policy ~residual ~sink] — shortest-path tree
    to [sink] under the routing policy's edge weights
    ({!Routing.tree_weight}), grown from the sink: a [Max_lifetime] hop
    is priced by the residual of its end nearer the sink. *)
let collection_tree router ~policy ~residual ~sink =
  let route = Route_tree.create ~rows:(Routing.rows router) ~sink in
  let residual = Array.init (Route_tree.node_count route) (fun i -> Energy.to_joules (residual i)) in
  Route_tree.rebuild route ~weight:(Routing.tree_weight router ~policy ~residual) ~alive:all_alive;
  of_route route

let connected_count tree =
  Array.fold_left (fun acc p -> if p <> -2 then acc + 1 else acc) 0 tree.parent

(** [per_round_energy router tree i] — radio energy node [i] spends per
    collection round: transmit its subtree's packets to its parent and
    receive its children's packets.  The sink only receives. *)
let per_round_energy router tree i =
  let n = Array.length tree.parent in
  if i < 0 || i >= n then invalid_arg "Flow.per_round_energy: node out of range";
  if tree.parent.(i) = -2 then Energy.zero
  else
    let received_packets = Float.of_int (tree.subtree_size.(i) - 1) in
    let e_rx = Energy.scale received_packets (Routing.receiver_energy router) in
    if i = tree.sink then e_rx
    else
      let tx_j = Routing.sender_energy_j router i tree.parent.(i) in
      if Float.is_nan tx_j then Energy.zero
      else
        let sent_packets = Float.of_int tree.subtree_size.(i) in
        Energy.add (Energy.scale sent_packets (Energy.joules tx_j)) e_rx

(** [lifetime_rounds router tree ~budget] — rounds until the first
    non-sink node exhausts its [budget]; infinite if no node spends
    energy. *)
let lifetime_rounds router tree ~budget =
  let n = Array.length tree.parent in
  let worst = ref Float.infinity in
  for i = 0 to n - 1 do
    if i <> tree.sink && tree.parent.(i) <> -2 then begin
      let spend = Energy.to_joules (per_round_energy router tree i) in
      if spend > 0.0 then begin
        let rounds = Energy.to_joules (budget i) /. spend in
        if rounds < !worst then worst := rounds
      end
    end
  done;
  !worst

(* A run that has not reached its first death after this many blocks is
   refused rather than answered with the rounds so far. *)
let max_blocks = 10_000

(** [simulate_depletion router ~policy ~budget ~sink ~rebuild_every] —
    rounds until the first node dies, with residual energies depleted as
    rounds pass.  Every [rebuild_every] rounds the collection tree is
    recomputed against the *current* residuals, so the [Max_lifetime]
    policy reroutes around draining bottlenecks while the static policies
    keep their original tree (their weights ignore residuals, so
    rebuilding would not change them).  One route tree, priced over the
    residual array itself, is rebuilt in place for every block.
    Advances in closed-form blocks — no per-round loop — so fields of
    tens of thousands of rounds stay cheap. *)
let simulate_depletion router ~policy ~budget ~sink ~rebuild_every =
  (* NaN fails every comparison, so finiteness is checked first. *)
  if not (Float.is_finite rebuild_every) then
    invalid_arg "Flow.simulate_depletion: non-finite rebuild period";
  if rebuild_every <= 0.0 then invalid_arg "Flow.simulate_depletion: non-positive rebuild period";
  let route = Route_tree.create ~rows:(Routing.rows router) ~sink in
  let n = Route_tree.node_count route in
  let residual = Array.init n (fun i -> Energy.to_joules (budget i)) in
  let weight = Routing.tree_weight router ~policy ~residual in
  let rec advance rounds_done blocks =
    if blocks = max_blocks then
      invalid_arg
        (Printf.sprintf
           "Flow.simulate_depletion: no first death within %d rebuild blocks; rebuild_every %g \
            is too short" max_blocks rebuild_every)
    else begin
      Route_tree.rebuild route ~weight ~alive:all_alive;
      let tree = of_route route in
      (* Per-node spend per round under the current tree. *)
      let spend = Array.init n (fun i -> Energy.to_joules (per_round_energy router tree i)) in
      (* Rounds until the first death under this tree. *)
      let to_death = ref Float.infinity in
      for i = 0 to n - 1 do
        if i <> sink && spend.(i) > 0.0 then
          to_death := Float.min !to_death (residual.(i) /. spend.(i))
      done;
      if !to_death = Float.infinity then rounds_done
      else
        let block = Float.min !to_death rebuild_every in
        for i = 0 to n - 1 do
          residual.(i) <- residual.(i) -. (spend.(i) *. block)
        done;
        if block >= !to_death -. 1e-9 then rounds_done +. block
        else advance (rounds_done +. block) (blocks + 1)
    end
  in
  advance 0.0 0

(** [bottleneck router tree ~budget] — the node that dies first and its
    per-round spend; [None] when nothing drains. *)
let bottleneck router tree ~budget =
  let n = Array.length tree.parent in
  let best = ref None in
  for i = 0 to n - 1 do
    if i <> tree.sink && tree.parent.(i) <> -2 then begin
      let spend = Energy.to_joules (per_round_energy router tree i) in
      if spend > 0.0 then begin
        let rounds = Energy.to_joules (budget i) /. spend in
        match !best with
        | Some (_, r) when r <= rounds -> ()
        | _ -> best := Some (i, rounds)
      end
    end
  done;
  !best
