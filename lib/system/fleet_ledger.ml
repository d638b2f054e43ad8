(** Struct-of-arrays twin of {!Node_agent} (see .mli for the contract).

    Every kernel below performs the float-op sequence of the
    corresponding {!Node_agent} function operand for operand — same
    reads, same order of [+.]/[-.]/[*.]/[/.], same [Float.min] clamp,
    same zero-crossing interpolation — so a run driven through this
    ledger produces bit-for-bit the reserves, death instants and report
    digests of a run driven through the per-object agents.  The qcheck
    oracle in [test/test_forward_fast.ml] holds the two paths to that
    standard across fleet shapes, fault plans, policies and jobs
    counts. *)

open Amb_sim

(* The nine per-node fields live node-major in one unboxed float matrix
   rather than nine per-field columns: every kernel touches most of a
   node's fields, and at city scale nine columns mean nine cache lines
   per touch where one 72-byte row means two.  Field offsets within a
   row, ordered roughly by heat: *)
let f_died = 0  (* death instant; NaN while alive *)
let f_last = 1  (* last settled accounting instant *)
let f_reserve = 2
let f_consumed = 3
let f_harvested = 4
let f_sleep = 5  (* parameters below, copied once per run *)
let f_regulator = 6
let f_income = 7
let f_capacity = 8
let f_drain = 9
    (* sleep_w /. regulator, divided once at snapshot time: IEEE
       division is deterministic, so [stored_quotient *. dt] is
       bit-identical to Node_agent's [(sleep_w /. regulator) *. dt]
       while saving a hardware divide on every accounting touch *)
let stride = 10

type t = {
  n : int;
  lg : float array;  (** [n * stride] node-major ledger rows *)
  crashed : Bytes.t;  (** bitset: fault-crashed (vs. battery death) *)
  has_mult : Bytes.t;  (** bitset: node samples the diurnal multiplier *)
  mult : float -> float;
      (** shared diurnal income multiplier; consulted only for nodes
          whose [has_mult] bit is set (income > 0 and a profile was
          supplied), exactly as {!Node_agent} guards its option *)
}

(* One bit per node: at city scale a [bool array] would spend a word
   where a bit suffices, and the bench gates ledger words per node. *)
let[@inline] bit t i = Char.code (Bytes.unsafe_get t (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set t i =
  Bytes.unsafe_set t (i lsr 3)
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t (i lsr 3)) lor (1 lsl (i land 7))))

let of_agents ?income_multiplier agents =
  let n = Array.length agents in
  let t =
    {
      n;
      lg = Array.make (n * stride) 0.0;
      crashed = Bytes.make ((n + 7) / 8) '\000';
      has_mult = Bytes.make ((n + 7) / 8) '\000';
      mult = (match income_multiplier with Some f -> f | None -> fun _ -> 1.0);
    }
  in
  for i = 0 to n - 1 do
    let ag = agents.(i) in
    let b = i * stride in
    t.lg.(b + f_died) <- Node_agent.died_at_s ag;
    t.lg.(b + f_last) <- Node_agent.last_account_s ag;
    t.lg.(b + f_reserve) <- Node_agent.reserve_j ag;
    t.lg.(b + f_consumed) <- Node_agent.consumed_j ag;
    t.lg.(b + f_harvested) <- Node_agent.harvested_j ag;
    t.lg.(b + f_sleep) <- Node_agent.sleep_drain_w ag;
    t.lg.(b + f_regulator) <- Node_agent.regulator_efficiency ag;
    t.lg.(b + f_income) <- Node_agent.income_w ag;
    t.lg.(b + f_capacity) <- Node_agent.capacity_j ag;
    t.lg.(b + f_drain) <- Node_agent.sleep_drain_w ag /. Node_agent.regulator_efficiency ag;
    if Node_agent.is_crashed ag then bit_set t.crashed i;
    if Node_agent.has_income_multiplier ag then bit_set t.has_mult i
  done;
  t

let length t = t.n

(* The kernels below run tens of millions of times per city-scale run
   (two charges per forwarded hop); row indices come from the
   simulation's own [0, n) node ids, so they use unsafe accesses like
   the other hot kernels in the tree (Routing's CSR search,
   Float_heap).  [fget]/[fset] keep that confined to two helpers. *)
let[@inline] fget (a : float array) i = Array.unsafe_get a i
let[@inline] fset (a : float array) i v = Array.unsafe_set a i v

(* [@inline] pays inside this module only: dune's default profile
   compiles with [-opaque], so a call from [Cosim] is a real call.  The
   hot per-hop tests therefore live in {!report} below, not in the
   caller. *)
let[@inline] alive t i = Float.is_nan (fget t.lg ((i * stride) + f_died))
let[@inline] reserve_j t i = fget t.lg ((i * stride) + f_reserve)
let[@inline] died_at_s t i = fget t.lg ((i * stride) + f_died)

(* Node_agent.account over a ledger row: same reads, same order of
   float ops, same clamp and zero-crossing interpolation.  The one body
   behind [account], [charge] and the report kernel; inlined so [now]
   stays an unboxed double on the per-hop path. *)
let[@inline] account_row t i now =
  let a = t.lg in
  let b = i * stride in
  let dt = now -. fget a (b + f_last) in
  if dt > 0.0 && Float.is_nan (fget a (b + f_died)) then begin
    let drain = fget a (b + f_drain) *. dt in
    let scale =
      if bit t.has_mult i then t.mult (fget a (b + f_last) +. (0.5 *. dt)) else 1.0
    in
    let gain = fget a (b + f_income) *. scale *. dt in
    fset a (b + f_consumed) (fget a (b + f_consumed) +. (fget a (b + f_sleep) *. dt));
    fset a (b + f_harvested) (fget a (b + f_harvested) +. gain);
    let net = drain -. gain in
    let before = fget a (b + f_reserve) in
    fset a (b + f_reserve) (Float.min (fget a (b + f_capacity)) (before -. net));
    if fget a (b + f_reserve) <= 0.0 && fget a (b + f_capacity) > 0.0 then begin
      let rate = net /. dt in
      fset a (b + f_died) (if rate > 0.0 then fget a (b + f_last) +. (before /. rate) else now)
    end
  end;
  fset a (b + f_last) now

let account t i ~now = account_row t i now

(* Node_agent.charge over a row: the single copy of the charge
   arithmetic, shared by [charge] and the report kernel. *)
let[@inline] charge_row t i now joules =
  account_row t i now;
  let a = t.lg in
  let b = i * stride in
  if Float.is_nan (fget a (b + f_died)) then begin
    fset a (b + f_consumed) (fget a (b + f_consumed) +. joules);
    fset a (b + f_reserve) (fget a (b + f_reserve) -. (joules /. fget a (b + f_regulator)));
    if fget a (b + f_reserve) <= 0.0 && fget a (b + f_capacity) > 0.0 then
      fset a (b + f_died) now
  end

let charge t i ~now joules = charge_row t i now joules

(* Node_agent.crash over a row. *)
let crash t i ~now =
  account t i ~now;
  let b = i * stride in
  if Float.is_nan t.lg.(b + f_died) then begin
    t.lg.(b + f_died) <- now;
    bit_set t.crashed i
  end

(* Would [account t i ~now] record a death?  Same reads and float ops
   as [account], no stores — the read-only first pass that decides
   whether a parallel tick may commit.  Accounting is independent per
   node, so the prediction is exact. *)
let would_die t i ~now =
  let a = t.lg in
  let b = i * stride in
  let dt = now -. fget a (b + f_last) in
  if dt > 0.0 && Float.is_nan (fget a (b + f_died)) && fget a (b + f_capacity) > 0.0 then begin
    let drain = fget a (b + f_drain) *. dt in
    let scale =
      if bit t.has_mult i then t.mult (fget a (b + f_last) +. (0.5 *. dt)) else 1.0
    in
    let gain = fget a (b + f_income) *. scale *. dt in
    let net = drain -. gain in
    Float.min (fget a (b + f_capacity)) (fget a (b + f_reserve) -. net) <= 0.0
  end
  else false

(* The sequential tick: the statement-for-statement shape of
   Cosim's historic [account_all] (account in node order, the death
   callback fired inline between a node's accounting and the next
   node's).  That interleaving is observable — the callback repairs the
   route tree and, under Max_lifetime, re-reads reserves of nodes the
   tick has not settled yet — so it is the reference semantics. *)
let account_all_seq t ~now ~on_death =
  for i = 0 to t.n - 1 do
    let was = alive t i in
    account t i ~now;
    if was && not (alive t i) then on_death i
  done

let account_all ?pool t ~now ~on_death =
  match pool with
  | None -> account_all_seq t ~now ~on_death
  | Some pool ->
    (* Parallel tick, deterministic at every [jobs]: a read-only scan
       over disjoint ranges predicts deaths first.  A death-free tick
       (the overwhelmingly common case) commits the ranges in parallel —
       per-node accounting touches only that node's columns, so the
       result is independent of domain interleaving and identical to
       the sequential order.  Any predicted death falls the whole tick
       back to the sequential loop, reproducing the historic
       callback-between-accounts interleaving bit for bit. *)
    let jobs = Domain_pool.jobs pool in
    let jobs = if jobs > t.n then Stdlib.max 1 t.n else jobs in
    let chunk = (t.n + jobs - 1) / jobs in
    let scan =
      Array.init jobs (fun k () ->
          let lo = k * chunk in
          let hi = Stdlib.min t.n (lo + chunk) in
          let any = ref false in
          for i = lo to hi - 1 do
            if would_die t i ~now then any := true
          done;
          !any)
    in
    if Array.exists (fun d -> d) (Domain_pool.run pool scan) then
      account_all_seq t ~now ~on_death
    else
      let commit =
        Array.init jobs (fun k () ->
            let lo = k * chunk in
            let hi = Stdlib.min t.n (lo + chunk) in
            for i = lo to hi - 1 do
              account t i ~now
            done)
      in
      ignore (Domain_pool.run pool commit : unit array)

(* --- the report kernel -------------------------------------------------
   One report of a city-scale run: activation charge, then the walk
   towards the sink — sender pays the hop tariff, receiver the RX (or
   reader) cost, the sink listens for free, any death drops the packet
   — exactly the historic [Cosim] forward, statement for statement.
   It lives here, beside the arithmetic it drives, because nothing is
   inlined across modules under dune's default [-opaque] build: walked
   from [Cosim], every charge was a closure call with a boxed tariff
   plus two more calls into this module.  Here the charges inline, the
   clock is a raw load from the engine cell and the only call left on
   the path is [on_death], made when a charge kills a node. *)

type tally = { mutable generated : int; mutable delivered : int; mutable dropped : int }

let tally () = { generated = 0; delivered = 0; dropped = 0 }

type route = {
  ledger : t;
  clock : Engine.cell;
  sink : int;
  parent : int array;
  hop_tx : float array;
  hop_kind : int array;
  activation : float array;
  rx_j : float;
  reader_j : float;
  counts : tally;
  on_death : int -> unit;
}

let route ledger ~clock ~sink ~parent ~hop_tx ~hop_kind ~activation ~rx_j ~reader_j ~counts
    ~on_death =
  { ledger; clock; sink; parent; hop_tx; hop_kind; activation; rx_j; reader_j; counts;
    on_death }

(* Charge [joules] to node [i]; false once the node is gone.  A charge
   that kills the node fires [on_death] first — the route repair it
   triggers refreshes [parent]/[hop_tx]/[hop_kind] in place, which is
   why the walk re-reads them on every hop. *)
let[@inline] charge_hop r i now joules =
  let t = r.ledger in
  let was = alive t i in
  charge_row t i now joules;
  if was && not (alive t i) then r.on_death i;
  alive t i

let[@inline] drop c = c.dropped <- c.dropped + 1

let[@inline] forward r src now =
  let c = r.counts in
  let node = ref src and ttl = ref r.ledger.n and walking = ref true in
  while !walking do
    if !ttl <= 0 then begin drop c; walking := false end
    else if !node = r.sink then begin
      c.delivered <- c.delivered + 1;
      walking := false
    end
    else begin
      let u = !node in
      (* [u] ranges over live node ids < n by construction, so the
         per-hop reads skip the bounds checks, as the row kernels do. *)
      let p = Array.unsafe_get r.parent u in
      if p < 0 || not (alive r.ledger u) then begin drop c; walking := false end
      else begin
        let tx_j = fget r.hop_tx u in
        if Float.is_nan tx_j then begin drop c; walking := false end
        else begin
          (* The receiver class belongs to the hop being priced, so it
             is read with [p] and [tx_j], before the sender's charge: a
             sender that dies there has its row reset by the repair
             (orphan = ordinary hop), and re-reading it would charge
             the sink, or a reader the RX tariff, for a hop the
             per-object walk classifies from [u] and [p]. *)
          let k = Array.unsafe_get r.hop_kind u in
          let sender_ok = charge_hop r u now tx_j in
          let receiver_ok =
            if k = Link_layer.hop_tag then charge_hop r p now r.reader_j
            else k = Link_layer.hop_sink_parent || charge_hop r p now r.rx_j
          in
          if sender_ok && receiver_ok then begin
            node := p;
            decr ttl
          end
          else begin drop c; walking := false end
        end
      end
    end
  done

let report r i =
  if alive r.ledger i then begin
    let c = r.counts in
    c.generated <- c.generated + 1;
    let now = r.clock.Engine.v in
    (* Sense/convert/compute first; the walk charges the radio.  A node
       that dies mid-activation still counts the report as generated
       (and dropped). *)
    let act = fget r.activation i in
    if act > 0.0 then ignore (charge_hop r i now act : bool);
    forward r i now;
    true
  end
  else false

let write_back t agents =
  for i = 0 to t.n - 1 do
    let b = i * stride in
    Node_agent.restore agents.(i) ~reserve_j:t.lg.(b + f_reserve)
      ~consumed_j:t.lg.(b + f_consumed) ~harvested_j:t.lg.(b + f_harvested)
      ~last_account_s:t.lg.(b + f_last) ~died_at_s:t.lg.(b + f_died)
      ~crashed:(bit t.crashed i)
  done

let words t =
  let bits b = 1 + ((Bytes.length b + 7) / 8) in
  (* record block + the ledger matrix + 2 bitsets (the closure is
     shared with the agents, not ledger storage).  10 floats + 2 bits
     per node, ~10.3 words — the bench gates this at 12. *)
  1 + 6 + (1 + Array.length t.lg) + bits t.crashed + bits t.has_mult
