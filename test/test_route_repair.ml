(* Property tests for the incremental route repair (Amb_net.Route_tree)
   against the historic Graph/Dijkstra rebuild, plus the engine and
   rebuild allocation budgets.

   The oracle is the exact pipeline the simulators ran before the fast
   path: materialise a Graph over the alive pairs (ascending source,
   ascending destination insertion order) with the policy weights and
   run Graph.dijkstra from the sink.  After every fault — node death or
   link fade — the repaired tree must agree with a from-scratch oracle
   on parents and hop costs, for all three routing policies.  Each
   trial runs twice over: on complete rows (every other node — the
   historic all-pairs sweep) and on the router's in-range CSR rows.  A
   repair finds its subtree by walking children down the rows; on both
   it must list exactly the nodes a parent-chain walk assigns to the
   subtree. *)

open Amb_circuit
open Amb_radio
open Amb_net

(* --- oracle ---------------------------------------------------------- *)

let oracle ~n ~sink ~weight ~alive =
  let g = Graph.create n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && alive i && alive j then begin
        let w = weight i j in
        if not (Float.is_nan w) then Graph.add_edge g ~src:i ~dst:j ~weight:w
      end
    done
  done;
  Graph.dijkstra g ~src:sink

let check_against_oracle ~ctx ~n ~sink ~weight ~alive tree =
  let dist, prev = oracle ~n ~sink ~weight ~alive in
  for i = 0 to n - 1 do
    if alive i then begin
      Alcotest.(check int)
        (Printf.sprintf "%s: parent of %d" ctx i)
        prev.(i) (Route_tree.parent tree i);
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "%s: cost of %d" ctx i)
        dist.(i) (Route_tree.cost tree i)
    end
  done

(* The subtree under [root] in the parent vector [prev], by walking
   every node's parent chain with path compression (0 unknown, 1 inside,
   2 outside); ascending ids. *)
let chain_subtree ~prev ~sink ~root =
  let n = Array.length prev in
  let mark = Array.make n 0 and stack = Array.make n 0 in
  mark.(root) <- 1;
  if sink <> root then mark.(sink) <- 2;
  for v = 0 to n - 1 do
    if mark.(v) = 0 then begin
      let top = ref 0 in
      let u = ref v in
      while mark.(!u) = 0 do
        stack.(!top) <- !u;
        incr top;
        let p = prev.(!u) in
        if p < 0 then mark.(!u) <- 2 else u := p
      done;
      let state = mark.(!u) in
      for k = 0 to !top - 1 do
        mark.(stack.(k)) <- state
      done
    end
  done;
  List.filter (fun v -> mark.(v) = 1) (List.init n Fun.id)

(* The nodes the last update says it may have re-parented. *)
let affected tree = List.init (Route_tree.affected_count tree) (Route_tree.affected tree)

let check_affected ~ctx ~expect tree =
  Alcotest.(check (list int)) (ctx ^ ": affected nodes") expect (affected tree)

(* --- random fault sequences ------------------------------------------ *)

(* Policy weights in the exact shape the simulators use: energy costs
   from the routing cache, with a per-pair fade multiplier (>= 1, only
   ever raised) and a static residual vector for Max_lifetime, so all
   energy-valued policies stay tie-free under random positions. *)
let make_weight ~policy ~router ~fade ~residual =
  let base i j = fade.(i).(j) *. Routing.link_energy_j router i j in
  match policy with
  | Routing.Min_hop -> fun i j -> if Float.is_nan (base i j) then Float.nan else 1.0
  | Routing.Min_energy -> base
  | Routing.Max_lifetime ->
    fun i j ->
      let joules = base i j in
      if Float.is_nan joules then joules
      else if residual.(i) <= 0.0 then Float.max_float /. 1e6
      else joules /. residual.(i)

(* Subtree sizes in the parent vector [prev]: every node counted at
   itself and at each ancestor. *)
let subtree_sizes prev =
  let size = Array.make (Array.length prev) 0 in
  Array.iteri
    (fun v _ ->
      let u = ref v in
      while !u >= 0 do
        size.(!u) <- size.(!u) + 1;
        u := prev.(!u)
      done)
    prev;
  size

(* A [deep] trial spreads 150-300 nodes over a wider field, so trees
   run many hops deep, and each death takes the node with the largest
   subtree; the default trials are a few hops deep, where a subtree
   rarely reaches past the dead node's grandchildren. *)
let run_trial ?(deep = false) ~policy ~trial () =
  let rng = Amb_sim.Rng.create ((if deep then 3000 else 1000) + trial) in
  let n = if deep then 150 + Amb_sim.Rng.int rng 151 else 8 + Amb_sim.Rng.int rng 33 in
  let side_m = if deep then 600.0 else 220.0 in
  let topology = Topology.random rng ~nodes:n ~width_m:side_m ~height_m:side_m in
  let link =
    Link_budget.make ~radio:Radio_frontend.low_power_uhf ~channel:Path_loss.indoor ()
  in
  let router = Routing.make ~topology ~link ~packet:Packet.sensor_report () in
  let fade = Array.init n (fun _ -> Array.make n 1.0) in
  let residual = Array.init n (fun _ -> 0.5 +. Amb_sim.Rng.float rng) in
  let alive = Array.make n true in
  let sink = 0 in
  let weight = make_weight ~policy ~router ~fade ~residual in
  let priced = Routing_dense_reference.pair_weight weight in
  let alive_fn i = alive.(i) in
  (* Only the energy-valued policies have tie-free weights; Min_hop's
     unit weights make the repair fall back to the full rebuild, which
     must still match the oracle. *)
  let tie_free = policy <> Routing.Min_hop in
  let trees =
    [ ("dense", Route_tree.create ~rows:(Routing_dense_reference.complete_rows n) ~sink);
      ("csr", Route_tree.create ~rows:(Routing.rows router) ~sink) ]
  in
  (* A full rebuild (and a repair that falls back to one) lists every
     node; a local repair lists the subtree under [root] in the parents
     before it. *)
  let everyone = List.init n Fun.id in
  let subtree ~before root = if tie_free then chain_subtree ~prev:before ~sink ~root else everyone in
  List.iter
    (fun (tier, tree) ->
      Route_tree.rebuild tree ~weight:priced ~alive:alive_fn;
      let ctx = Printf.sprintf "trial %d %s initial" trial tier in
      check_against_oracle ~ctx ~n ~sink ~weight ~alive:alive_fn tree;
      check_affected ~ctx ~expect:everyone tree)
    trees;
  for event = 1 to 4 do
    let parents tree = Array.init n (Route_tree.parent tree) in
    let each_tree kind update expect =
      List.iter
        (fun (tier, tree) ->
          let ctx = Printf.sprintf "trial %d event %d %s %s" trial event tier kind in
          let before = parents tree in
          update tree;
          check_against_oracle ~ctx ~n ~sink ~weight ~alive:alive_fn tree;
          check_affected ~ctx ~expect:(expect ~before) tree)
        trees
    in
    if Amb_sim.Rng.float rng < 0.5 then begin
      (* Node death: pick any alive non-sink node. *)
      let candidates =
        List.filter (fun i -> i <> sink && alive.(i)) (List.init n Fun.id)
      in
      match candidates with
      | [] -> ()
      | _ ->
        let dead =
          if deep then begin
            let size = subtree_sizes (parents (snd (List.hd trees))) in
            List.fold_left (fun best v -> if size.(v) > size.(best) then v else best)
              (List.hd candidates) candidates
          end
          else List.nth candidates (Amb_sim.Rng.int rng (List.length candidates))
        in
        alive.(dead) <- false;
        each_tree "death"
          (fun tree -> Route_tree.repair_death tree ~weight:priced ~alive:alive_fn ~tie_free ~dead)
          (fun ~before -> subtree ~before dead)
    end
    else begin
      (* Link fade: raise one pair's cost (both directions), tree edge
         or not — the repair decides which case it is. *)
      let a = Amb_sim.Rng.int rng n in
      let b = (a + 1 + Amb_sim.Rng.int rng (n - 1)) mod n in
      let factor = 1.5 +. (3.5 *. Amb_sim.Rng.float rng) in
      fade.(a).(b) <- fade.(a).(b) *. factor;
      fade.(b).(a) <- fade.(b).(a) *. factor;
      each_tree "fade"
        (fun tree ->
          Route_tree.repair_weight_increase tree ~weight:priced ~alive:alive_fn ~tie_free ~a ~b)
        (fun ~before ->
          if before.(a) = b then subtree ~before a
          else if before.(b) = a then subtree ~before b
          else if tie_free then []
          else everyone)
    end
  done

let trials_per_policy = 40

let test_repair_matches_rebuild policy () =
  for trial = 1 to trials_per_policy do
    run_trial ~policy ~trial ()
  done

let test_repair_deep_trees policy () =
  for trial = 1 to 6 do
    run_trial ~deep:true ~policy ~trial ()
  done

(* Directed check of the no-op case: worsening an edge the tree does not
   use must leave parents untouched (and stay oracle-exact). *)
let test_non_tree_fade_noop () =
  let trial = 4242 in
  let rng = Amb_sim.Rng.create trial in
  let n = 20 in
  let topology = Topology.random rng ~nodes:n ~width_m:200.0 ~height_m:200.0 in
  let link =
    Link_budget.make ~radio:Radio_frontend.low_power_uhf ~channel:Path_loss.indoor ()
  in
  let router = Routing.make ~topology ~link ~packet:Packet.sensor_report () in
  let fade = Array.init n (fun _ -> Array.make n 1.0) in
  let residual = Array.make n 1.0 in
  let alive = Array.make n true in
  let sink = 0 in
  let weight = make_weight ~policy:Routing.Min_energy ~router ~fade ~residual in
  let priced = Routing_dense_reference.pair_weight weight in
  let alive_fn i = alive.(i) in
  let tree = Route_tree.create ~rows:(Routing.rows router) ~sink in
  Route_tree.rebuild tree ~weight:priced ~alive:alive_fn;
  (* Find a linked pair that is not a tree edge in either direction. *)
  let non_tree = ref None in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if
        !non_tree = None && a <> b
        && (not (Float.is_nan (weight a b)))
        && Route_tree.parent tree a <> b
        && Route_tree.parent tree b <> a
      then non_tree := Some (a, b)
    done
  done;
  match !non_tree with
  | None -> ()  (* degenerate topology; nothing to check *)
  | Some (a, b) ->
    let before = Array.init n (Route_tree.parent tree) in
    fade.(a).(b) <- 10.0;
    fade.(b).(a) <- 10.0;
    Route_tree.repair_weight_increase tree ~weight:priced ~alive:alive_fn ~tie_free:true ~a ~b;
    for i = 0 to n - 1 do
      Alcotest.(check int)
        (Printf.sprintf "parent of %d unchanged" i)
        before.(i) (Route_tree.parent tree i)
    done;
    check_against_oracle ~ctx:"non-tree fade" ~n ~sink ~weight ~alive:alive_fn tree

(* --- Flow's collection tree against the Graph pipeline ----------------- *)

(* The pipeline [Flow.collection_tree] ran before it moved onto route
   trees: a Graph over the router's rows, edges in ascending source,
   then ascending destination order, priced from the pair cache (a
   [Max_lifetime] edge [i -> j] over the residual of its source [i]),
   Dijkstra from the sink, subtree sizes by parent-chain walks (0 off
   the tree). *)
let graph_collection_tree router ~policy ~residual ~sink =
  let { Routing.offsets; neighbors; edge_tx_j } = router.Routing.cache in
  let n = Array.length offsets - 1 in
  let g = Graph.create n in
  for i = 0 to n - 1 do
    for k = offsets.(i) to offsets.(i + 1) - 1 do
      let joules = edge_tx_j.(k) +. router.Routing.rx_j in
      if not (Float.is_nan joules) then
        let weight =
          match policy with
          | Routing.Min_hop -> 1.0
          | Routing.Min_energy -> joules
          | Routing.Max_lifetime ->
            if residual.(i) <= 0.0 then Float.max_float /. 1e6 else joules /. residual.(i)
        in
        Graph.add_edge g ~src:i ~dst:neighbors.(k) ~weight
    done
  done;
  let _, prev = Graph.dijkstra g ~src:sink in
  let parent = Array.mapi (fun i p -> if i = sink then -1 else if p < 0 then -2 else p) prev in
  (parent, Array.mapi (fun v size -> if parent.(v) = -2 then 0 else size) (subtree_sizes prev))

(* Three layouts: uniform random; a lattice at 0.6 of the radio range,
   whose equal hop counts put every min-hop choice on a tie-break; and
   two random clusters three ranges apart, so part of the field is cut
   off from any sink. *)
let oracle_layout rng ~range_m kind =
  let n = 2 + Amb_sim.Rng.int rng 59 in
  match kind with
  | 0 ->
    let side = range_m *. (1.0 +. (3.0 *. Amb_sim.Rng.float rng)) in
    ("random", Topology.random rng ~nodes:n ~width_m:side ~height_m:side)
  | 1 ->
    let columns = 1 + Amb_sim.Rng.int rng 8 in
    ("lattice", Topology.grid ~columns ~rows:(1 + (n / columns)) ~spacing_m:(0.6 *. range_m))
  | _ ->
    let point box =
      { Topology.x = (box *. 4.0 *. range_m) +. (range_m *. Amb_sim.Rng.float rng);
        y = range_m *. Amb_sim.Rng.float rng }
    in
    ( "two clusters",
      Topology.of_positions ~width_m:(5.0 *. range_m) ~height_m:range_m
        (Array.init n (fun i -> point (Float.of_int (i mod 2)))) )

(* [Flow.collection_tree] must give the Graph pipeline's parents and
   subtree sizes exactly, under all three policies, with the sink at a
   random id.  Residuals are drawn at 0, negative and positive, so
   [Max_lifetime]'s drained-forwarder price is taken.  On a third of
   the cases a random set of in-range pairs is priced NaN in both
   directions — what the tariff returns for a pair the link cannot
   close — and must stay out of every policy's tree. *)
let prop_collection_tree_matches_graph =
  QCheck.Test.make ~name:"collection tree equals the Graph pipeline" ~count:300
    (QCheck.int_bound 9999)
    (fun seed ->
      let rng = Amb_sim.Rng.create (7000 + seed) in
      let link =
        Link_budget.make ~radio:Radio_frontend.low_power_uhf ~channel:Path_loss.indoor ()
      in
      let range_m = Link_budget.max_range link ~tx_dbm:link.Link_budget.radio.Radio_frontend.max_tx_dbm in
      let label, topology = oracle_layout rng ~range_m (seed mod 3) in
      let router = Routing.make ~topology ~link ~packet:Packet.sensor_report () in
      let router =
        if seed mod 9 >= 3 then router
        else begin
          let edge_tx_j = Array.copy router.Routing.cache.Routing.edge_tx_j in
          let offsets, neighbors = Routing.rows router in
          for i = 0 to Array.length offsets - 2 do
            for k = offsets.(i) to offsets.(i + 1) - 1 do
              let j = neighbors.(k) in
              if j > i && Amb_sim.Rng.float rng < 0.3 then begin
                edge_tx_j.(k) <- Float.nan;
                edge_tx_j.(Routing.slot router j i) <- Float.nan
              end
            done
          done;
          { router with Routing.cache = { router.Routing.cache with Routing.edge_tx_j } }
        end
      in
      let n = Topology.node_count topology in
      let sink = Amb_sim.Rng.int rng n in
      let residual =
        Array.init n (fun _ ->
            match Amb_sim.Rng.int rng 4 with
            | 0 -> 0.0
            | 1 -> -.Amb_sim.Rng.float rng
            | _ -> 0.1 +. Amb_sim.Rng.float rng)
      in
      List.for_all
        (fun policy ->
          let tree =
            Flow.collection_tree router ~policy
              ~residual:(fun i -> Amb_units.Energy.joules residual.(i))
              ~sink
          in
          let parent, size = graph_collection_tree router ~policy ~residual ~sink in
          (tree.Flow.parent = parent && tree.Flow.subtree_size = size)
          || QCheck.Test.fail_reportf "seed %d, %s, %d nodes, sink %d, %s" seed label n sink
               (Routing.policy_name policy))
        [ Routing.Min_hop; Routing.Min_energy; Routing.Max_lifetime ])

(* --- the rows route trees sweep ---------------------------------------- *)

let in_rows (offsets, neighbors) i j =
  let found = ref false in
  for k = offsets.(i) to offsets.(i + 1) - 1 do
    if neighbors.(k) = j then found := true
  done;
  !found

(* Route trees relax only the router's CSR rows, so every pair with a
   finite weight must lie in them — the NaN-weight pairs are all the
   rows may leave out.  Checked on small fleets with backscatter tags
   (whose hops are priced by the reader link, not the PHY cache), under
   the cached and the MAC link layer, before and after fades on random
   pairs and on pairs just past radio range. *)
let test_rows_complete () =
  let open Amb_system in
  let mac =
    Link_layer.Mac
      (Mac_duty_cycle.make ~radio:Radio_frontend.low_power_uhf
         ~t_wakeup:(Amb_units.Time_span.seconds 1.0) ~packet:Packet.sensor_report ())
  in
  let fleets =
    [ ("250 m fleet", Fleet.make ~tags:8 ~leaves:30 ~relays:3 ~seed:21 ());
      ( "600 m fleet",
        Fleet.make ~tags:12 ~leaves:60 ~relays:4 ~width_m:600.0 ~height_m:600.0 ~seed:22 () );
      ("300-node city", Fleet.city ~tags:20 ~nodes:300 ~seed:23 ()) ]
  in
  List.iter
    (fun (label, fleet) ->
      List.iter
        (fun (mode_label, mode) ->
          let router = fleet.Fleet.router in
          let rows = Routing.rows router in
          let n = Fleet.node_count fleet in
          let link =
            Link_layer.create
              ?tag_link:
                (Option.map
                   (fun bs ->
                     ( bs,
                       (fun i -> fleet.Fleet.tiers.(i) = Fleet.Tag),
                       fun i -> fleet.Fleet.tiers.(i) = Fleet.Sink ))
                   fleet.Fleet.tag_link)
              ~router ~mode ()
          in
          let check stage =
            for i = 0 to n - 1 do
              for j = 0 to n - 1 do
                if i <> j && not (in_rows rows i j) then begin
                  if not (Float.is_nan (Link_layer.weight_j link i j)) then
                    Alcotest.failf "%s, %s, %s: link weight %d -> %d is finite off the rows"
                      label mode_label stage i j;
                  if not (Float.is_nan (Routing.link_energy_j router i j)) then
                    Alcotest.failf "%s, %s, %s: router joules %d -> %d are finite off the rows"
                      label mode_label stage i j
                end
              done
            done
          in
          check "unfaded";
          let rng = Amb_sim.Rng.create (Hashtbl.hash label) in
          let topo = router.Routing.topology in
          for _ = 1 to 40 do
            let a = Amb_sim.Rng.int rng n and b = Amb_sim.Rng.int rng n in
            if a <> b then
              Link_layer.set_fade link ~a ~b ~db:(0.5 +. (20.0 *. Amb_sim.Rng.float rng))
          done;
          for a = 0 to n - 1 do
            for b = a + 1 to n - 1 do
              let d = Topology.pair_distance topo a b in
              if d > router.Routing.range_m && d < 1.05 *. router.Routing.range_m then
                Link_layer.set_fade link ~a ~b ~db:0.1
            done
          done;
          check "faded")
        [ ("cached", Link_layer.Cached); ("mac", mac) ])
    fleets;
  (* A radio whose range falls short of the tag link's reach is refused
     outright: its tag hops would lie off the rows. *)
  let short =
    Fleet.make ~tags:4 ~leaves:6 ~relays:1 ~seed:24
      ~link:
        (Link_budget.make ~fade_margin_db:60.0 ~radio:Radio_frontend.low_power_uhf
           ~channel:Path_loss.indoor ())
      ()
  in
  let range_m = short.Fleet.router.Routing.range_m in
  let bs = Option.get short.Fleet.tag_link in
  Alcotest.(check bool) "the tag link outreaches the radio" true
    (Backscatter.max_range bs > range_m);
  Alcotest.check_raises "long tag link refused"
    (Invalid_argument "Link_layer.create: the tag link reaches past the radio range") (fun () ->
      ignore
        (Link_layer.create ~tag_link:(bs, (fun _ -> false), fun _ -> false)
           ~router:short.Fleet.router ~mode:Link_layer.Cached ()))

(* One rebuild relaxes each settled node's row once, so it asks for at
   most one weight per row entry — O(edges), not the n² pairs of the
   retired all-pairs sweep. *)
let test_rebuild_weight_calls () =
  let open Amb_system in
  let fleet = Fleet.city ~tags:20 ~nodes:650 ~seed:5 () in
  let router = fleet.Fleet.router in
  let n = Fleet.node_count fleet in
  let offsets, _ as rows = Routing.rows router in
  let link = Link_layer.create ~router ~mode:Link_layer.Cached () in
  let calls = ref 0 in
  let weight i j k c =
    incr calls;
    Link_layer.weight_into link i j k c
  in
  let tree = Route_tree.create ~rows ~sink:fleet.Fleet.sink in
  Route_tree.rebuild tree ~weight ~alive:(fun _ -> true);
  let edges = offsets.(n) in
  if !calls > edges then
    Alcotest.failf "rebuild made %d weight calls for %d row entries" !calls edges;
  Alcotest.(check bool) "rows are far fewer than the n² pairs" true (edges * 10 < n * n);
  Alcotest.(check bool) "the tree reaches past the sink" true (!calls > 0)

(* --- engine allocation budget ---------------------------------------- *)

(* The fast-path contract: once the queue is warm, firing periodic
   events allocates nothing on the minor heap.  100k events with even
   one boxed float per event would show up as >= 200k words. *)
let test_engine_allocation_free () =
  let open Amb_sim in
  let engine = Engine.create () in
  let count = ref 0 in
  Engine.every_s engine ~period_s:1.0 ~until_s:100_001.0 (fun _ ->
      incr count;
      !count < 100_000);
  let before = Gc.minor_words () in
  let _ = Engine.run_s engine in
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "inner loop allocation (%.0f words for %d events)" allocated !count)
    true
    (allocated < 5_000.0);
  Alcotest.(check int) "events fired" 100_000 !count

(* One fade-free rebuild on an 8 000-node city relaxes every CSR edge
   once.  The heap pop hands its key back through a float cell, the
   push takes its key from one, the fade lookup returns before building
   a key pair, and the pricing reads the edge by its row slot and
   answers through a cell, so the sweep allocates nothing per edge —
   under min-energy, min-hop and max-lifetime pricing alike (the
   lifetime division runs inside the ledger, so the sender's reserve
   is never boxed).  Read 13.8 words per edge before the first two,
   4.2 while each weight call still returned a boxed float, 0.18 while
   each push boxed its key; max-lifetime read about 2 words per edge
   while its reserve crossed the module boundary. *)
let test_rebuild_allocation () =
  let open Amb_system in
  let fleet = Fleet.city ~nodes:8000 ~seed:42 () in
  let router = fleet.Fleet.router in
  let n = Fleet.node_count fleet in
  let offsets, _ as rows = Routing.rows router in
  let link = Link_layer.create ~router ~mode:Link_layer.Cached () in
  let min_energy i j k c = Link_layer.weight_into link i j k c in
  let min_hop i j k c =
    Link_layer.weight_into link i j k c;
    if not (Float.is_nan c.Route_tree.v) then c.Route_tree.v <- 1.0
  in
  let ledger = Fleet_ledger.create ~sampling_w:0.0 fleet in
  let max_lifetime i j k c =
    Link_layer.weight_into link i j k c;
    Fleet_ledger.lifetime_weight_into ledger i c
  in
  let alive _ = true in
  List.iter
    (fun (name, weight) ->
      let tree = Route_tree.create ~rows ~sink:fleet.Fleet.sink in
      Route_tree.rebuild tree ~weight ~alive;
      let before = Gc.minor_words () in
      Route_tree.rebuild tree ~weight ~alive;
      let words = Gc.minor_words () -. before in
      let per_edge = words /. Float.of_int offsets.(n) in
      if per_edge > 0.02 then
        Alcotest.failf "%s rebuild allocates %.3f minor words per edge (budget 0.02)" name
          per_edge)
    [ ("min-energy", min_energy); ("min-hop", min_hop); ("max-lifetime", max_lifetime) ]

(* The stochastic-core counterpart of the engine budget above: 1M
   uniform draws.  Through the batch kernel the whole run must stay
   within a few hundred minor words (closure setup only).  The scalar
   path pays exactly the cross-module float-return boxing (2 words per
   draw on the non-flambda compiler) and nothing else — the native-int
   splitmix64 core allocates no Int64 temporaries. *)
let test_rng_allocation_budget () =
  let open Amb_sim in
  let draws = 1_000_000 in
  let block = 4096 in
  let rng = Rng.create 2024 in
  let buf = Float.Array.create block in
  (* Warm up so the closure and buffer are allocated before measuring. *)
  Rng.fill_floats rng buf;
  let before = Gc.minor_words () in
  let remaining = ref draws in
  while !remaining > 0 do
    let len = Stdlib.min block !remaining in
    Rng.fill_floats rng ~pos:0 ~len buf;
    remaining := !remaining - len
  done;
  let batch_words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "batch kernel (%.0f words for %d draws)" batch_words draws)
    true (batch_words < 10_000.0);
  let sink = ref 0.0 in
  let before = Gc.minor_words () in
  for _ = 1 to draws do
    sink := !sink +. Rng.float rng
  done;
  let scalar_words = Gc.minor_words () -. before in
  ignore !sink;
  (* Boxed return only: anything above ~2 words/draw means the RNG core
     itself is allocating again. *)
  Alcotest.(check bool)
    (Printf.sprintf "scalar path (%.0f words for %d draws)" scalar_words draws)
    true
    (scalar_words < 2.5e6)

let suite =
  [ Alcotest.test_case "repair vs rebuild oracle: min-hop" `Slow
      (test_repair_matches_rebuild Routing.Min_hop);
    Alcotest.test_case "repair vs rebuild oracle: min-energy" `Slow
      (test_repair_matches_rebuild Routing.Min_energy);
    Alcotest.test_case "repair vs rebuild oracle: max-lifetime" `Slow
      (test_repair_matches_rebuild Routing.Max_lifetime);
    Alcotest.test_case "repair vs rebuild oracle on deep trees: min-energy" `Slow
      (test_repair_deep_trees Routing.Min_energy);
    Alcotest.test_case "repair vs rebuild oracle on deep trees: max-lifetime" `Slow
      (test_repair_deep_trees Routing.Max_lifetime);
    Alcotest.test_case "non-tree fade is a parent-preserving no-op" `Quick
      test_non_tree_fade_noop;
    Alcotest.test_case "engine inner loop is allocation-free" `Quick
      test_engine_allocation_free;
    Alcotest.test_case "rng draw budget: 1M draws" `Quick test_rng_allocation_budget;
    Alcotest.test_case "fade-free rebuild allocation budget" `Quick test_rebuild_allocation;
    Alcotest.test_case "finite route weights lie in the CSR rows" `Quick test_rows_complete;
    Alcotest.test_case "rebuild asks one weight per row entry at most" `Quick
      test_rebuild_weight_calls;
    QCheck_alcotest.to_alcotest prop_collection_tree_matches_graph;
  ]
