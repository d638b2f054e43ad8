(** Discrete-event simulation engine.

    A thin, deterministic event loop: callbacks scheduled at absolute or
    relative simulation times, executed in (time, insertion) order.  All
    node- and network-level simulations in the toolkit run on this
    engine.

    The inner loop is allocation-free and free of write barriers.
    Pending events live in two kinds of pointer-free queue: an unboxed
    float-keyed binary heap (three parallel arrays, in-place hole
    sifting, same discipline as {!Float_heap}) for closure events, and
    one flat FIFO ring per distinct period for the periodic stream
    channel.  A closure event's closure and label wait in a slot table
    with a free list, and the event carries the slot, so a sift moves no
    pointer and pays no [caml_modify].  The run loop fires the
    (time, seq)-least of the heap root and the ring heads, draining a
    ring in place while its head stays the least.  The clock is
    a raw double, and trace hooks reduce to a single branch when no
    trace was requested.  The [Time_span.t] entry points survive as thin
    wrappers over the [_s] float API used by the hot simulators. *)

open Amb_units

(* A single mutable float in its own all-float record: stores are raw
   double writes, whereas a float field in a mixed record is boxed on
   every assignment.  The clock is written once per event. *)
type cell = Float_heap.cell = { mutable v : float }

(* One ring of the periodic channel: every stream of one period.  Each
   stream has at most one report pending, so [capacity] (the stream
   count) bounds the population and the columns never grow.  Entries
   [head .. head + count - 1] (mod capacity) are in (time, seq) order
   once [sorted]. *)
type ring = {
  period : float;
  r_times : float array;
  r_seqs : int array;
  r_idxs : int array;
  mutable head : int;
  mutable count : int;
  mutable sorted : bool;
}

type t = {
  mutable times : float array;  (** heap keys: absolute seconds, unboxed *)
  mutable seqs : int array;  (** insertion order; equal times pop FIFO *)
  mutable slots : int array;  (** the closure event's slot *)
  mutable size : int;
  mutable next_seq : int;
  clock : cell;  (** current simulation time, seconds *)
  at : cell;  (** time hand-off into [push_at] (keeps the float unboxed) *)
  least_time : cell;  (** time of the event [least] picked *)
  mutable running : bool;
  mutable executed : int;
  trace : Trace.t option;  (** optional schedule/fire recorder *)
  mutable slot_fns : (t -> unit) array;
      (** closure-event slot table: the callback of each pending
          closure event, addressed by the event's slot *)
  mutable slot_labels : string array;
  mutable slot_next : int array;  (** free-list link per free slot; -1 = end *)
  mutable free_slot : int;  (** head of the free list; -1 = table full *)
  mutable rings : ring array;  (** the periodic channel, one ring per period *)
  mutable stream_ring : int array;  (** ring of each stream; -1 = no stream *)
  mutable stream_fn : int -> bool;  (** the channel handler; [true] re-arms *)
  mutable stream_label : string;
  mutable drain_timer : ((unit -> float) * (float -> unit)) option;
      (** read on entry to and exit from every drain *)
  mutable arms : int;  (** {!arm_s} calls so far: a drain's other-ring bound is stale *)
  other : cell;  (** time of the least head among the rings not draining *)
  mutable other_seq : int;  (** its seq; [max_int] when those rings are empty *)
}

let nop (_ : t) = ()
let no_stream (_ : int) = false

let create ?trace () =
  {
    times = Array.make 16 0.0;
    seqs = Array.make 16 0;
    slots = Array.make 16 0;
    size = 0;
    next_seq = 0;
    clock = { v = 0.0 };
    at = { v = 0.0 };
    least_time = { v = 0.0 };
    running = false;
    executed = 0;
    trace;
    slot_fns = Array.make 16 nop;
    slot_labels = Array.make 16 "";
    slot_next = Array.init 16 (fun i -> if i = 15 then -1 else i + 1);
    free_slot = 0;
    rings = [||];
    stream_ring = [||];
    stream_fn = no_stream;
    stream_label = "";
    drain_timer = None;
    arms = 0;
    other = { v = 0.0 };
    other_seq = 0;
  }

let grow engine =
  let capacity = Array.length engine.times in
  let bigger = Stdlib.max 16 (capacity * 2) in
  let times = Array.make bigger 0.0
  and seqs = Array.make bigger 0
  and slots = Array.make bigger 0 in
  Array.blit engine.times 0 times 0 engine.size;
  Array.blit engine.seqs 0 seqs 0 engine.size;
  Array.blit engine.slots 0 slots 0 engine.size;
  engine.times <- times;
  engine.seqs <- seqs;
  engine.slots <- slots

(* The closure slot table.  A closure event parks its callback and
   label here and enqueues only the slot number, so the heap never
   moves a pointer.  Freed slots are reused first (LIFO), so the table
   stays as large as the peak number of pending closure events — a
   periodic process re-arming from its own callback takes back the slot
   it just released. *)
let grow_slots engine =
  let cap = Array.length engine.slot_fns in
  let bigger = cap * 2 in
  let fns = Array.make bigger nop
  and labels = Array.make bigger ""
  and next = Array.init bigger (fun i -> if i = bigger - 1 then -1 else i + 1) in
  Array.blit engine.slot_fns 0 fns 0 cap;
  Array.blit engine.slot_labels 0 labels 0 cap;
  engine.slot_fns <- fns;
  engine.slot_labels <- labels;
  engine.slot_next <- next;
  engine.free_slot <- cap

let alloc_slot engine fn label =
  if engine.free_slot < 0 then grow_slots engine;
  let s = engine.free_slot in
  engine.free_slot <- engine.slot_next.(s);
  engine.slot_fns.(s) <- fn;
  engine.slot_labels.(s) <- label;
  s

(* Release a slot whose contents the caller has already read; the
   placeholders let a finished closure be collected. *)
let release_slot engine s =
  engine.slot_fns.(s) <- nop;
  engine.slot_labels.(s) <- "";
  engine.slot_next.(s) <- engine.free_slot;
  engine.free_slot <- s

(* Every closure insertion goes through [push_at] so the trace sees each
   scheduling, including the internal re-arming of periodic processes.
   The event time arrives in [engine.at] rather than as an argument: a
   float argument to a non-inlined call would be boxed, a cell store is
   not.  The NaN check comes before a slot is taken, so a rejected event
   leaks none.  A freshly pushed event carries the largest sequence
   number, so the sift-up only needs the strict time comparison to keep
   FIFO ties. *)
let check_time engine =
  if Float.is_nan engine.at.v then invalid_arg "Engine: NaN event time"

let push_heap engine ~slot =
  let time = engine.at.v in
  if engine.size >= Array.length engine.times then grow engine;
  let seq = engine.next_seq in
  engine.next_seq <- seq + 1;
  let times = engine.times and seqs = engine.seqs and slots = engine.slots in
  let i = ref engine.size in
  engine.size <- engine.size + 1;
  let sifting = ref (!i > 0) in
  while !sifting do
    let parent = (!i - 1) / 2 in
    if time < times.(parent) then begin
      times.(!i) <- times.(parent);
      seqs.(!i) <- seqs.(parent);
      slots.(!i) <- slots.(parent);
      i := parent;
      sifting := parent > 0
    end
    else sifting := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

let push_at engine ~label fn =
  check_time engine;
  (match engine.trace with
  | None -> ()
  | Some tr -> Trace.record tr ~time:engine.clock.v ("schedule:" ^ label));
  push_heap engine ~slot:(alloc_slot engine fn label)

(** [now_s engine] — current simulation time in raw seconds.  The
    float return is boxed at every call from another module: dune's
    default dev profile compiles with [-opaque], so nothing is inlined
    across modules whatever the attribute says.  Hot callers read
    {!clock_cell} instead. *)
let[@inline] now_s engine = engine.clock.v

(** [now engine] — current simulation time. *)
let now engine = Time_span.seconds engine.clock.v

(** [event_count engine] — number of callbacks executed so far. *)
let event_count engine = engine.executed

(** [pending engine] — number of scheduled, not-yet-run callbacks. *)
let pending engine = Array.fold_left (fun acc g -> acc + g.count) engine.size engine.rings

(** [closure_slots engine] — capacity of the closure slot table. *)
let closure_slots engine = Array.length engine.slot_fns

(** [schedule_at_s engine time callback] — [schedule_at] on raw
    seconds. *)
let[@inline] schedule_at_s ?(label = "event") engine time callback =
  if time < engine.clock.v then invalid_arg "Engine.schedule_at: time in the past";
  engine.at.v <- time;
  push_at engine ~label callback

(** [schedule_at engine time callback] — run [callback] at absolute
    simulation [time].  Raises [Invalid_argument] for times in the past. *)
let schedule_at ?label engine time callback =
  schedule_at_s ?label engine (Time_span.to_seconds time) callback

(** [schedule_s engine ~delay_s callback] — [schedule] on raw seconds;
    the per-event path of the simulators (no [Time_span.t] boxing).
    Inside this module the delay reaches [push_at] through the [at]
    scratch cell; a caller in another module still boxes [delay_s]
    (no cross-module inlining under [-opaque]), which is what
    {!schedule_cell} avoids. *)
let[@inline] schedule_s ?(label = "event") engine ~delay_s callback =
  if delay_s < 0.0 then invalid_arg "Engine.schedule: negative delay";
  engine.at.v <- engine.clock.v +. delay_s;
  push_at engine ~label callback

(* The boxing-free scheduling path.  Without flambda, every float that
   crosses a module boundary — [now_s]'s return, [schedule_s]'s
   [delay_s] — is boxed at the call, which costs 4 minor words per
   event in simulators whose loops are otherwise allocation-free.  The
   cells below let hot callbacks read the clock and hand over the delay
   through raw double loads/stores instead: read [(clock_cell e).v],
   store the delay into [(delay_cell e).v], then [schedule_cell]. *)

(** [clock_cell engine] — the clock as an all-float cell; reading [.v]
    is an unboxed load (callbacks must treat it as read-only). *)
let clock_cell engine = engine.clock

(** [delay_cell engine] — scratch cell for {!schedule_cell}'s delay;
    store the relative delay in seconds into [.v] just before the
    call (the cell is clobbered by every scheduling operation). *)
let delay_cell engine = engine.at

(** [schedule_cell engine callback] — [schedule_s] with the delay taken
    from [delay_cell engine] instead of a (boxed) float argument. *)
let schedule_cell ?(label = "event") engine callback =
  if engine.at.v < 0.0 then invalid_arg "Engine.schedule: negative delay";
  engine.at.v <- engine.clock.v +. engine.at.v;
  push_at engine ~label callback

(* The periodic stream channel.  A fleet reporting on fixed periods
   pays a heap sift per report re-arm; the rings make it O(1).  Each
   stream [idx] has one period and at most one pending report, and
   every stream of one period shares one ring.  A re-arm lands at
   [fire +. period] with a fresh (largest) seq, and every other pending
   report of that ring sits at an initial phase below the period or at
   an earlier fire plus the same period: float addition is monotone, so
   the re-arm is never earlier than the ring's tail and appending keeps
   the ring in (time, seq) order.  Initial phases may
   arrive in any order; each ring is sorted once, in place, when a run
   starts.  After that an append earlier than the tail means the
   fixed-period contract is broken, and it raises rather than re-sort.
   Trace labels are built only when a trace is attached, as
   ["<label>:<idx>"] — what a per-stream closure would have recorded. *)

(** [periodic_channel ?label ?timer engine ~periods fn] — install the
    stream channel; see the interface. *)
let periodic_channel ?(label = "stream") ?timer engine ~periods fn =
  if Array.length engine.stream_ring > 0 then
    invalid_arg "Engine.periodic_channel: already installed";
  (* Rings are sorted when a run starts; one installed mid-run would
     fire its initial phases in arm order. *)
  if engine.running then invalid_arg "Engine.periodic_channel: installed while running";
  let n = Array.length periods in
  let stream_ring = Array.make n (-1) in
  (* Rings are keyed by the exact period value: a linear search over
     the distinct periods met so far, with their stream counts. *)
  let distinct = ref [||] and counts = ref [||] in
  for i = 0 to n - 1 do
    let p = periods.(i) in
    if p > 0.0 && Float.is_finite p then begin
      let d = !distinct in
      let r = ref 0 in
      while !r < Array.length d && d.(!r) <> p do
        incr r
      done;
      if !r = Array.length d then begin
        distinct := Array.append d [| p |];
        counts := Array.append !counts [| 0 |]
      end;
      !counts.(!r) <- !counts.(!r) + 1;
      stream_ring.(i) <- !r
    end
  done;
  let rings =
    Array.map2
      (fun p c ->
        { period = p; r_times = Array.make c 0.0; r_seqs = Array.make c 0; r_idxs = Array.make c 0;
          head = 0; count = 0; sorted = false })
      !distinct !counts
  in
  engine.rings <- rings;
  engine.stream_ring <- stream_ring;
  engine.stream_fn <- fn;
  engine.stream_label <- label;
  engine.drain_timer <- timer

let stream_label engine idx = engine.stream_label ^ ":" ^ Int.to_string idx

let ring_of engine idx =
  let r =
    if idx >= 0 && idx < Array.length engine.stream_ring then engine.stream_ring.(idx) else -1
  in
  if r < 0 then invalid_arg "Engine: not a periodic stream";
  engine.rings.(r)

(** [arm_s engine ~idx ~delay_s] — first report of stream [idx],
    appended to its ring. *)
let arm_s engine ~idx ~delay_s =
  if delay_s < 0.0 then invalid_arg "Engine.arm: negative delay";
  let g = ring_of engine idx in
  engine.at.v <- engine.clock.v +. delay_s;
  check_time engine;
  let cap = Array.length g.r_times in
  if g.count >= cap then invalid_arg "Engine: periodic ring full";
  let time = engine.at.v in
  let k = g.head + g.count in
  let k = if k >= cap then k - cap else k in
  if g.sorted && g.count > 0 && time < g.r_times.(if k = 0 then cap - 1 else k - 1) then
    invalid_arg "Engine: periodic re-arm earlier than its ring's tail";
  (match engine.trace with
  | None -> ()
  | Some tr -> Trace.record tr ~time:engine.clock.v ("schedule:" ^ stream_label engine idx));
  g.r_times.(k) <- time;
  g.r_seqs.(k) <- engine.next_seq;
  g.r_idxs.(k) <- idx;
  engine.next_seq <- engine.next_seq + 1;
  g.count <- g.count + 1;
  engine.arms <- engine.arms + 1

(* In-place heapsort of a not-yet-popped ring ([head] = 0) by
   (time, seq): seqs are unique, so the order is total and the sort
   needs no stability.  No allocation. *)
let sort_ring g =
  let times = g.r_times and seqs = g.r_seqs and idxs = g.r_idxs in
  let before i j = times.(i) < times.(j) || (times.(i) = times.(j) && seqs.(i) < seqs.(j)) in
  let swap i j =
    let t = times.(i) and s = seqs.(i) and x = idxs.(i) in
    times.(i) <- times.(j);
    seqs.(i) <- seqs.(j);
    idxs.(i) <- idxs.(j);
    times.(j) <- t;
    seqs.(j) <- s;
    idxs.(j) <- x
  in
  let rec sift root limit =
    let child = (2 * root) + 1 in
    if child < limit then begin
      let child = if child + 1 < limit && before child (child + 1) then child + 1 else child in
      if before root child then begin
        swap root child;
        sift child limit
      end
    end
  in
  let n = g.count in
  for root = (n / 2) - 1 downto 0 do
    sift root n
  done;
  for last = n - 1 downto 1 do
    swap 0 last;
    sift 0 last
  done;
  g.sorted <- true

(** [schedule engine ~delay callback] — run [callback] after [delay]. *)
let schedule ?label engine ~delay callback =
  schedule_s ?label engine ~delay_s:(Time_span.to_seconds delay) callback

(** [stop engine] — abort the run after the current callback returns. *)
let stop engine = engine.running <- false

(* Remove the heap root (whose payload the caller has already read):
   drop the last entry into the hole and sift it down. *)
let heap_remove_root engine =
  let times = engine.times and seqs = engine.seqs and slots = engine.slots in
  let last = engine.size - 1 in
  engine.size <- last;
  if last > 0 then begin
    let lt = times.(last) and ls = seqs.(last) and lx = slots.(last) in
    let i = ref 0 in
    let sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= last then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < last
            && (times.(r) < times.(l) || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        if times.(c) < lt || (times.(c) = lt && seqs.(c) < ls) then begin
          times.(!i) <- times.(c);
          seqs.(!i) <- seqs.(c);
          slots.(!i) <- slots.(c);
          i := c
        end
        else sifting := false
      end
    done;
    times.(!i) <- lt;
    seqs.(!i) <- ls;
    slots.(!i) <- lx
  end

(* The (time, seq)-least pending event: -1 for the heap root, a ring
   number for that ring's head, -2 when nothing is pending.  Its time
   lands in [least_time] (a float return would box). *)
let least engine =
  let best = ref (-2) and best_seq = ref 0 in
  let bt = engine.least_time in
  if engine.size > 0 then begin
    best := -1;
    bt.v <- engine.times.(0);
    best_seq := engine.seqs.(0)
  end;
  let rings = engine.rings in
  for r = 0 to Array.length rings - 1 do
    let g = Array.unsafe_get rings r in
    if g.count > 0 then begin
      let t = g.r_times.(g.head) in
      if !best = -2 || t < bt.v || (t = bt.v && g.r_seqs.(g.head) < !best_seq) then begin
        best := r;
        bt.v <- t;
        best_seq := g.r_seqs.(g.head)
      end
    end
  done;
  !best

(* Fire one popped closure event at the current clock: take its callback
   and label out of the slot table and free the slot before the
   callback runs, so a periodic re-arm reuses it. *)
let fire_closure engine slot =
  engine.executed <- engine.executed + 1;
  let fn = engine.slot_fns.(slot) in
  (match engine.trace with
  | None -> ()
  | Some tr -> Trace.record tr ~time:engine.clock.v ("fire:" ^ engine.slot_labels.(slot)));
  release_slot engine slot;
  fn engine

(* The (time, seq)-least head among the rings other than [skip], into
   [other]/[other_seq]; (infinity, max_int), which every event beats,
   when they are all empty. *)
let other_heads engine skip =
  let o = engine.other in
  o.v <- Float.infinity;
  engine.other_seq <- max_int;
  let rings = engine.rings in
  for r = 0 to Array.length rings - 1 do
    let g = Array.unsafe_get rings r in
    if r <> skip && g.count > 0 then begin
      let t = g.r_times.(g.head) and s = g.r_seqs.(g.head) in
      if t < o.v || (t = o.v && s < engine.other_seq) then begin
        o.v <- t;
        engine.other_seq <- s
      end
    end
  done

(* Drain ring [r], whose head the caller found to be the least pending
   event and within [limit]: fire its events in place for as long as
   its head stays the least event.  Per event: pop, set the clock,
   count, trace, call the handler and, on [true], append the re-arm one
   period after this fire through every {!arm_s} guard (a NaN time, a
   full ring, a time before the tail).  Only this
   ring pops, so the other rings' heads move only when {!arm_s} fills
   an empty one, and [arms] says when to re-read them; the heap root is
   re-read every event, since the handler may schedule closures. *)
let drain engine ~limit r =
  let g = engine.rings.(r) in
  let fn = engine.stream_fn and other = engine.other in
  other_heads engine r;
  let arms = ref engine.arms in
  let draining = ref true in
  while !draining do
    let h = g.head in
    let time = g.r_times.(h) and idx = g.r_idxs.(h) in
    g.head <- (if h + 1 = Array.length g.r_idxs then 0 else h + 1);
    g.count <- g.count - 1;
    engine.clock.v <- time;
    engine.executed <- engine.executed + 1;
    (match engine.trace with
    | None -> ()
    | Some tr -> Trace.record tr ~time:engine.clock.v ("fire:" ^ stream_label engine idx));
    if fn idx then begin
      (* [arm_s]'s guards and append, inline: as a call they cost
         about an eighth of the event.  The ring is sorted (the run
         sorted it), so the tail check always applies. *)
      let at = time +. g.period in
      if Float.is_nan at then invalid_arg "Engine: NaN event time";
      let cap = Array.length g.r_times in
      if g.count >= cap then invalid_arg "Engine: periodic ring full";
      let k = g.head + g.count in
      let k = if k >= cap then k - cap else k in
      if g.count > 0 && at < g.r_times.(if k = 0 then cap - 1 else k - 1) then
        invalid_arg "Engine: periodic re-arm earlier than its ring's tail";
      (match engine.trace with
      | None -> ()
      | Some tr -> Trace.record tr ~time:engine.clock.v ("schedule:" ^ stream_label engine idx));
      g.r_times.(k) <- at;
      g.r_seqs.(k) <- engine.next_seq;
      g.r_idxs.(k) <- idx;
      engine.next_seq <- engine.next_seq + 1;
      g.count <- g.count + 1
    end;
    if engine.arms <> !arms then begin
      other_heads engine r;
      arms := engine.arms
    end;
    draining :=
      engine.running && g.count > 0
      &&
      let t = g.r_times.(g.head) and s = g.r_seqs.(g.head) in
      t <= limit
      && (t < other.v || (t = other.v && s < engine.other_seq))
      && (engine.size = 0
         || t < engine.times.(0)
         || (t = engine.times.(0) && s < engine.seqs.(0)))
  done

(** [run_s ?until_s engine] — [run] on raw seconds. *)
let run_s ?until_s engine =
  let limit = match until_s with None -> Float.infinity | Some s -> s in
  Array.iter (fun g -> if not g.sorted then sort_ring g) engine.rings;
  engine.running <- true;
  let looping = ref true in
  while !looping do
    if not engine.running then looping := false
    else begin
      let r = least engine in
      let time = engine.least_time.v in
      if r = -2 then looping := false
      else if time > limit then begin
        engine.clock.v <- limit;
        looping := false
      end
      else if r >= 0 then begin
        match engine.drain_timer with
        | None -> drain engine ~limit r
        | Some (clock, add) ->
          let t0 = clock () in
          drain engine ~limit r;
          add (clock () -. t0)
      end
      else begin
        let slot = engine.slots.(0) in
        heap_remove_root engine;
        engine.clock.v <- time;
        fire_closure engine slot
      end
    end
  done;
  engine.running <- false;
  if Float.is_finite limit && engine.clock.v < limit && pending engine = 0 then
    engine.clock.v <- limit;
  engine.clock.v

(** [run ?until engine] — execute events in order until the queue is empty,
    [stop] is called, or simulation time would pass [until].  Returns the
    final simulation time.  When stopping at [until], the clock is advanced
    to exactly [until]. *)
let run ?until engine =
  let until_s = match until with None -> None | Some t -> Some (Time_span.to_seconds t) in
  Time_span.seconds (run_s ?until_s engine)

(** [every_s engine ~period_s ?until_s callback] — [every] on raw
    seconds: the horizon is normalised to a float once at registration,
    and each firing re-arms the same tick closure (one allocation per
    stream, not per event). *)
let every_s ?(label = "periodic") engine ~period_s ?until_s callback =
  if period_s <= 0.0 then invalid_arg "Engine.every: non-positive period";
  let limit = match until_s with None -> Float.infinity | Some s -> s in
  let rec tick e =
    if e.clock.v <= limit && callback e then
      if e.clock.v +. period_s <= limit then begin
        e.at.v <- e.clock.v +. period_s;
        push_at e ~label tick
      end
  in
  engine.at.v <- engine.clock.v +. period_s;
  push_at engine ~label tick

(** [every engine ~period ?until callback] — periodic process: [callback]
    runs every [period] starting one period from now, until it returns
    [false] or the optional absolute [until] time is passed. *)
let every ?label engine ~period ?until callback =
  every_s ?label engine
    ~period_s:(Time_span.to_seconds period)
    ?until_s:(match until with None -> None | Some t -> Some (Time_span.to_seconds t))
    callback
