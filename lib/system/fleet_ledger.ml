(** Struct-of-arrays twin of {!Node_agent} (see .mli for the contract).

    Every kernel below performs the float-op sequence of the
    corresponding {!Node_agent} function operand for operand — same
    reads, same order of [+.]/[-.]/[*.]/[/.], the same capacity clamp
    (an inline, bit-for-bit [Float.min]), same zero-crossing
    interpolation — so a run driven through this ledger produces
    bit-for-bit the reserves, death instants and report digests of a
    run driven through the per-object agents.  The qcheck
    oracle in [test/test_forward_fast.ml] holds {!Cosim} to that
    standard against the per-object reference run in
    [test/cosim_reference.ml], across fleet shapes, fault plans,
    policies and jobs counts. *)

open Amb_sim
module Day_profile = Amb_energy.Day_profile

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
  diurnal : Day_profile.t;
      (** shared diurnal income profile; consulted only for nodes whose
          [has_mult] bit is set (income > 0 and a profile was supplied),
          exactly as {!Node_agent} guards its option *)
}

(* One bit per node: at city scale a [bool array] would spend a word
   where a bit suffices, and the bench gates ledger words per node. *)
let[@inline] bit t i = Char.code (Bytes.unsafe_get t (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set t i =
  Bytes.unsafe_set t (i lsr 3)
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t (i lsr 3)) lor (1 lsl (i land 7))))

let of_agents ?(diurnal = Day_profile.constant) agents =
  let n = Array.length agents in
  let t =
    {
      n;
      lg = Array.make (n * stride) 0.0;
      crashed = Bytes.make ((n + 7) / 8) '\000';
      has_mult = Bytes.make ((n + 7) / 8) '\000';
      diurnal;
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

(* The max-lifetime edge price, in place: the link cost in [c] over the
   sender's reserve.  Read across the module boundary, the reserve
   came back boxed on every relaxed edge; here it stays a raw load. *)
let lifetime_weight_into t i (c : Engine.cell) =
  if not (Float.is_nan c.v) then begin
    let r = reserve_j t i in
    c.v <- (if r <= 0.0 then Float.max_float /. 1e6 else c.v /. r)
  end

(* {!Day_profile.income_multiplier} on the profile's flat table, same
   float ops.  Called through the closure the agents hold it cost a
   boxed argument and a boxed result per accounting touch; read here
   and inlined into the kernels below it costs nothing. *)
let[@inline] income_scale (p : Day_profile.t) time_s =
  let period = p.Day_profile.period_s in
  let s = Float.rem time_s period in
  let s = if s < 0.0 then s +. period else s in
  let bounds = p.Day_profile.bounds in
  let n = Array.length bounds in
  let k = ref 0 in
  while !k < n && not (s < fget bounds !k) do
    incr k
  done;
  if !k < n then fget p.Day_profile.scales !k else 1.0

(* [Float.min cap v], bit for bit, without its cost: stdlib's [min]
   inlines two [caml_signbit] C calls on the path where [v < cap] — the
   common one, a settle that does not top the battery up — and each
   call switches to the C stack and spills the live float registers.
   A strict order decides here with one compare; only equal operands
   (where the sign of a zero picks the result) and NaN fall through to
   [Float.min]. *)
let[@inline] clamp cap v = if v < cap then v else if v > cap then cap else Float.min cap v

(* Node_agent's death test, shared by the settle and the charge. *)
let[@inline] empties cap reserve = reserve <= 0.0 && cap > 0.0

(* The death instant of a settle that emptied its row: Node_agent's
   zero-crossing interpolation.  A node dies once, so this stays out of
   line, where boxing its arguments costs nothing that matters. *)
let[@inline never] settle_death a b ~now ~last ~dt ~before ~net =
  let rate = net /. dt in
  fset a (b + f_died) (if rate > 0.0 then last +. (before /. rate) else now)

(* Node_agent.account's settle of live row [b] (node [i]) over [dt > 0]
   from [last]: same reads, same order of float ops.  Stores consumed
   and harvested, records an emptying settle's death instant, and
   returns the clamped reserve for the caller to store — the report
   kernel charges it first.  Inlined, so no float here is boxed. *)
let[@inline] settle t a b i ~now ~last ~dt ~before ~cap =
  let drain = fget a (b + f_drain) *. dt in
  let scale = if bit t.has_mult i then income_scale t.diurnal (last +. (0.5 *. dt)) else 1.0 in
  let gain = fget a (b + f_income) *. scale *. dt in
  fset a (b + f_consumed) (fget a (b + f_consumed) +. (fget a (b + f_sleep) *. dt));
  fset a (b + f_harvested) (fget a (b + f_harvested) +. gain);
  let net = drain -. gain in
  let reserve = clamp cap (before -. net) in
  if empties cap reserve then settle_death a b ~now ~last ~dt ~before ~net;
  reserve

let account t i ~now =
  let a = t.lg in
  let b = i * stride in
  let last = fget a (b + f_last) in
  let dt = now -. last in
  if dt > 0.0 && Float.is_nan (fget a (b + f_died)) then
    fset a (b + f_reserve)
      (settle t a b i ~now ~last ~dt ~before:(fget a (b + f_reserve))
         ~cap:(fget a (b + f_capacity)));
  fset a (b + f_last) now

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
      if bit t.has_mult i then income_scale t.diurnal (fget a (b + f_last) +. (0.5 *. dt))
      else 1.0
    in
    let gain = fget a (b + f_income) *. scale *. dt in
    let net = drain -. gain in
    clamp (fget a (b + f_capacity)) (fget a (b + f_reserve) -. net) <= 0.0
  end
  else false

(* The sequential tick: the statement-for-statement shape of the
   per-object reference tick (account in node order, the death
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
       back to the sequential loop, reproducing the reference
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
   One report of a run: activation charge, then the walk towards the
   sink — sender pays the hop tariff, receiver the RX (or reader) cost,
   the sink listens for free, any death drops the packet — exactly the
   per-object reference walk, statement for statement.
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

(* One hop's touch of node [i]: Node_agent.charge — settle to [now],
   then charge [joules] — fused into one pass over the row, so died,
   last, reserve and capacity are read once and the settled reserve is
   charged straight from a register.  False once the node is gone.  A
   touch that kills the node fires [on_death] — the route repair it
   triggers refreshes [parent]/[hop_tx]/[hop_kind] in place, which is
   why the walk re-reads them on every hop.  Off the death path a
   profile-free row makes no call: the clamp decides a strict order
   inline and the settle's death instant is out of line. *)
let[@inline] touch r i now joules =
  let t = r.ledger in
  let a = t.lg in
  let b = i * stride in
  let last = fget a (b + f_last) in
  fset a (b + f_last) now;
  if not (Float.is_nan (fget a (b + f_died))) then false
  else begin
    let cap = fget a (b + f_capacity) in
    let dt = now -. last in
    let before = fget a (b + f_reserve) in
    let settled = if dt > 0.0 then settle t a b i ~now ~last ~dt ~before ~cap else before in
    if dt > 0.0 && empties cap settled then begin
      (* the settle itself emptied the row: no charge *)
      fset a (b + f_reserve) settled;
      r.on_death i;
      false
    end
    else begin
      fset a (b + f_consumed) (fget a (b + f_consumed) +. joules);
      let left = settled -. (joules /. fget a (b + f_regulator)) in
      fset a (b + f_reserve) left;
      if empties cap left then begin
        fset a (b + f_died) now;
        r.on_death i;
        false
      end
      else true
    end
  end

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
          let sender_ok = touch r u now tx_j in
          let receiver_ok =
            if k = Link_layer.hop_tag then touch r p now r.reader_j
            else k = Link_layer.hop_sink_parent || touch r p now r.rx_j
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
    if act > 0.0 then ignore (touch r i now act : bool);
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
  (* record block + the ledger matrix + 2 bitsets (the day profile is
     shared with the run's config, not ledger storage).  10 floats + 2 bits
     per node, ~10.3 words — the bench gates this at 12. *)
  1 + 6 + (1 + Array.length t.lg) + bits t.crashed + bits t.has_mult
