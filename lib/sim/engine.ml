(** Discrete-event simulation engine.

    A thin, deterministic event loop: callbacks scheduled at absolute or
    relative simulation times, executed in (time, insertion) order.  All
    node- and network-level simulations in the toolkit run on this
    engine.

    The inner loop is allocation-free and free of write barriers: the
    pending events live in four parallel pointer-free arrays (an
    unboxed float-keyed binary heap with in-place hole sifting, same
    discipline as {!Float_heap}) or, above a population threshold, in
    an equally pointer-free {!Calendar_queue}; an event is a time, a
    sequence number and two ints.  A closure event's closure and label
    wait in a slot table with a free list, and the event carries the
    slot, so a sift moves no pointer and pays no [caml_modify].  The
    clock is a raw double, and trace hooks reduce to a single branch
    when no trace was requested.  The [Time_span.t] entry points
    survive as thin wrappers over the [_s] float API used by the hot
    simulators. *)

open Amb_units

(* A single mutable float in its own all-float record: stores are raw
   double writes, whereas a float field in a mixed record is boxed on
   every assignment.  The clock is written once per event. *)
type cell = { mutable v : float }

type t = {
  mutable times : float array;  (** heap keys: absolute seconds, unboxed *)
  mutable seqs : int array;  (** insertion order; equal times pop FIFO *)
  mutable hids : int array;
      (** indexed-channel handler id per pending event; -1 = closure
          event *)
  mutable idxs : int array;
      (** int payload handed to the handler, or the closure event's
          slot *)
  mutable size : int;
  mutable next_seq : int;
  clock : cell;  (** current simulation time, seconds *)
  at : cell;  (** time hand-off into [push_at] (keeps the float unboxed) *)
  mutable running : bool;
  mutable executed : int;
  trace : Trace.t option;  (** optional schedule/fire recorder *)
  calendar_threshold : int;
  mutable cal : Calendar_queue.t option;
      (** calendar queue the pending set migrates into once it outgrows
          [calendar_threshold]; [None] = binary heap (the path every
          existing experiment stays on) *)
  mutable slot_fns : (t -> unit) array;
      (** closure-event slot table: the callback of each pending
          closure event, addressed by the event's [idx] *)
  mutable slot_labels : string array;
  mutable slot_next : int array;  (** free-list link per free slot; -1 = end *)
  mutable free_slot : int;  (** head of the free list; -1 = table full *)
  mutable handlers : (t -> int -> unit) array;
      (** indexed event channel: one registered handler shared by any
          number of pending events, each carrying only an int — a
          100k-node fleet schedules 100k reports against one closure *)
  mutable handler_labels : string array;
  mutable n_handlers : int;
  mutable batch_hid : int;
      (** handler id whose consecutive events drain as one batch;
          -1 = batching off (every existing experiment) *)
  mutable batch_window : float;
      (** batch horizon: a drain never reaches [first time + window],
          so re-arms scheduled by the batch body cannot be overtaken *)
  mutable batch_fn : t -> int -> unit;
  mutable bt_times : float array;  (** drained fire times, in pop order *)
  mutable bt_idxs : int array;  (** drained event indices, in pop order *)
}

let nop (_ : t) = ()
let nop2 (_ : t) (_ : int) = ()

(* Pending-event population above which the binary heap hands over to
   the calendar queue.  Every experiment in the suite keeps well under
   a thousand events in flight, so the heap (and its byte-exact event
   chronology) remains their path; only city-scale fleets migrate. *)
let default_calendar_threshold = 4096

let create ?trace ?(calendar_threshold = default_calendar_threshold) () =
  {
    times = Array.make 16 0.0;
    seqs = Array.make 16 0;
    hids = Array.make 16 (-1);
    idxs = Array.make 16 0;
    size = 0;
    next_seq = 0;
    clock = { v = 0.0 };
    at = { v = 0.0 };
    running = false;
    executed = 0;
    trace;
    calendar_threshold;
    cal = None;
    slot_fns = Array.make 16 nop;
    slot_labels = Array.make 16 "";
    slot_next = Array.init 16 (fun i -> if i = 15 then -1 else i + 1);
    free_slot = 0;
    handlers = Array.make 4 nop2;
    handler_labels = Array.make 4 "";
    n_handlers = 0;
    batch_hid = -1;
    batch_window = 0.0;
    batch_fn = nop2;
    bt_times = Array.make 16 0.0;
    bt_idxs = Array.make 16 0;
  }

let grow engine =
  let capacity = Array.length engine.times in
  let bigger = Stdlib.max 16 (capacity * 2) in
  let times = Array.make bigger 0.0
  and seqs = Array.make bigger 0
  and hids = Array.make bigger (-1)
  and idxs = Array.make bigger 0 in
  Array.blit engine.times 0 times 0 engine.size;
  Array.blit engine.seqs 0 seqs 0 engine.size;
  Array.blit engine.hids 0 hids 0 engine.size;
  Array.blit engine.idxs 0 idxs 0 engine.size;
  engine.times <- times;
  engine.seqs <- seqs;
  engine.hids <- hids;
  engine.idxs <- idxs

(* The closure slot table.  A closure event parks its callback and
   label here and enqueues only the slot number, so neither queue ever
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

(* One-way hand-over from the binary heap to the calendar queue once
   the pending population outgrows the threshold.  (time, seq) pairs
   carry over verbatim, so the pop order is unchanged — the calendar
   sorts them itself, heap order is irrelevant here.  The closing
   [remeasure] sizes the bucket width from the handed-over population:
   the queue's first own resize waits for 4x the threshold, and until
   then the 1 s default width files a whole second of events per chain
   (at city report rates, hundreds — 3.5–5x slower runs measured for
   4 096–16 384 pending events). *)
let migrate engine =
  let q = Calendar_queue.create ~buckets:(2 * engine.calendar_threshold) () in
  for i = 0 to engine.size - 1 do
    Calendar_queue.push q ~time:engine.times.(i) ~seq:engine.seqs.(i)
      ~i1:engine.hids.(i) ~i2:engine.idxs.(i)
  done;
  Calendar_queue.remeasure q;
  engine.times <- Array.make 16 0.0;
  engine.seqs <- Array.make 16 0;
  engine.hids <- Array.make 16 (-1);
  engine.idxs <- Array.make 16 0;
  engine.size <- 0;
  engine.cal <- Some q

(* Every insertion goes through [push_at] or [push_idx] so the trace
   sees each scheduling, including the internal re-arming of periodic
   processes.  The event time arrives in [engine.at] rather than as an
   argument: a float argument to a non-inlined call would be boxed, a
   cell store is not.  The NaN check comes before a slot is taken, so a
   rejected event leaks none.  A freshly pushed event carries the
   largest sequence number, so the sift-up only needs the strict time
   comparison to keep FIFO ties. *)
let check_time engine =
  if Float.is_nan engine.at.v then invalid_arg "Engine: NaN event time"

let push_raw engine ~hid ~idx =
  let time = engine.at.v in
  (match engine.cal with
  | None when engine.size >= engine.calendar_threshold -> migrate engine
  | _ -> ());
  match engine.cal with
  | Some q ->
    let seq = engine.next_seq in
    engine.next_seq <- seq + 1;
    (Calendar_queue.time_cell q).Calendar_queue.f <- time;
    Calendar_queue.push_cell q ~seq ~i1:hid ~i2:idx
  | None ->
  if engine.size >= Array.length engine.times then grow engine;
  let seq = engine.next_seq in
  engine.next_seq <- seq + 1;
  let times = engine.times and seqs = engine.seqs in
  let hids = engine.hids and idxs = engine.idxs in
  let i = ref engine.size in
  engine.size <- engine.size + 1;
  let sifting = ref (!i > 0) in
  while !sifting do
    let parent = (!i - 1) / 2 in
    if time < times.(parent) then begin
      times.(!i) <- times.(parent);
      seqs.(!i) <- seqs.(parent);
      hids.(!i) <- hids.(parent);
      idxs.(!i) <- idxs.(parent);
      i := parent;
      sifting := parent > 0
    end
    else sifting := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  hids.(!i) <- hid;
  idxs.(!i) <- idx

let push_at engine ~label fn =
  check_time engine;
  (match engine.trace with
  | None -> ()
  | Some tr -> Trace.record tr ~time:engine.clock.v ("schedule:" ^ label));
  push_raw engine ~hid:(-1) ~idx:(alloc_slot engine fn label)

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
let pending engine =
  match engine.cal with None -> engine.size | Some q -> Calendar_queue.length q

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

(* The indexed event channel.  A closure event costs one heap closure
   per pending event plus a per-fire indirect call through it; a fleet
   scheduling one report stream per node pays that 100k times over.
   [register_handler] stores one shared [(t -> int -> unit)] and hands
   back its id; [schedule_idx_s] then enqueues (handler id, int) pairs
   that ride the same (time, seq) ordering — unboxed ints in the heap
   and calendar alike, zero allocation per event.  Trace labels are
   built only when a trace is attached, as ["<handler label>:<idx>"],
   matching what the equivalent per-node closure would have recorded. *)

(** [register_handler ?label engine fn] — register [fn] on the indexed
    channel and return its handler id for {!schedule_idx_s}. *)
let register_handler ?(label = "handler") engine fn =
  let id = engine.n_handlers in
  if id >= Array.length engine.handlers then begin
    let cap = Array.length engine.handlers * 2 in
    let handlers = Array.make cap nop2 and hl = Array.make cap "" in
    Array.blit engine.handlers 0 handlers 0 id;
    Array.blit engine.handler_labels 0 hl 0 id;
    engine.handlers <- handlers;
    engine.handler_labels <- hl
  end;
  engine.handlers.(id) <- fn;
  engine.handler_labels.(id) <- label;
  engine.n_handlers <- id + 1;
  id

let idx_label engine ~handler ~idx = engine.handler_labels.(handler) ^ ":" ^ Int.to_string idx

let push_idx engine ~handler ~idx =
  check_time engine;
  (match engine.trace with
  | None -> ()
  | Some tr ->
    Trace.record tr ~time:engine.clock.v ("schedule:" ^ idx_label engine ~handler ~idx));
  push_raw engine ~hid:handler ~idx

(** [schedule_idx_s engine ~handler ~idx ~delay_s] — enqueue the indexed
    event (handler, idx) after [delay_s] seconds. *)
let schedule_idx_s engine ~handler ~idx ~delay_s =
  if delay_s < 0.0 then invalid_arg "Engine.schedule_idx: negative delay";
  engine.at.v <- engine.clock.v +. delay_s;
  push_idx engine ~handler ~idx

(** [schedule_idx_cell engine ~handler ~idx] — [schedule_idx_s] with the
    delay taken from {!delay_cell}: the fully unboxed re-arming path
    (two immediate ints, a cell store, no float crossing a boundary). *)
let schedule_idx_cell engine ~handler ~idx =
  if engine.at.v < 0.0 then invalid_arg "Engine.schedule_idx: negative delay";
  engine.at.v <- engine.clock.v +. engine.at.v;
  push_idx engine ~handler ~idx

(* Batch drain for the indexed channel.  When the next pending event
   belongs to the batched handler, the run loop pops the maximal run of
   consecutive events on that channel — stopping at the horizon, at any
   event on another channel or a closure event, and strictly before
   [first time + window] — into [bt_times]/[bt_idxs], then calls
   [batch_fn engine count] once instead of the handler [count] times.

   The window is the caller's no-overtake guarantee: if every batched
   stream re-arms itself no sooner than [window] after its own fire
   time, then (float addition being monotone) no re-arm pushed by the
   batch body can be earlier than [first + window], so draining up to
   that horizon can never pop an event ahead of one it causes.  The
   batch body owns the per-event observables the loop would have
   produced: it must advance the clock cell to each event's time as it
   replays it and record any "fire:" trace lines itself (the drain
   records none); [executed] is bumped by the whole batch up front. *)

(** [set_batch_handler engine ~handler ~window_s fn] — drain consecutive
    events of [handler] as batches into [fn].  [window_s] must be a
    positive lower bound on every batched stream's re-arm delay. *)
let set_batch_handler engine ~handler ~window_s fn =
  if handler < 0 || handler >= engine.n_handlers then
    invalid_arg "Engine.set_batch_handler: unknown handler";
  if not (window_s > 0.0) then invalid_arg "Engine.set_batch_handler: non-positive window";
  engine.batch_hid <- handler;
  engine.batch_window <- window_s;
  engine.batch_fn <- fn

(** [batch_times engine] — fire times of the current batch, valid for
    the first [count] slots during a [batch_fn] call.  Re-fetch inside
    every call: the array is replaced when a larger batch grows it. *)
let batch_times engine = engine.bt_times

(** [batch_idxs engine] — event indices of the current batch (same
    validity rule as {!batch_times}). *)
let batch_idxs engine = engine.bt_idxs

let grow_batch engine =
  let cap = Array.length engine.bt_times in
  let bigger = Stdlib.max 16 (cap * 2) in
  let times = Array.make bigger 0.0 and idxs = Array.make bigger 0 in
  Array.blit engine.bt_times 0 times 0 cap;
  Array.blit engine.bt_idxs 0 idxs 0 cap;
  engine.bt_times <- times;
  engine.bt_idxs <- idxs

(** [schedule engine ~delay callback] — run [callback] after [delay]. *)
let schedule ?label engine ~delay callback =
  schedule_s ?label engine ~delay_s:(Time_span.to_seconds delay) callback

(** [stop engine] — abort the run after the current callback returns. *)
let stop engine = engine.running <- false

(* Remove the heap root (whose payload the caller has already read):
   drop the last entry into the hole and sift it down. *)
let heap_remove_root engine =
  let times = engine.times and seqs = engine.seqs in
  let hids = engine.hids and idxs = engine.idxs in
  let last = engine.size - 1 in
  engine.size <- last;
  if last > 0 then begin
    let lt = times.(last) and ls = seqs.(last) in
    let lh = hids.(last) and lx = idxs.(last) in
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
          hids.(!i) <- hids.(c);
          idxs.(!i) <- idxs.(c);
          i := c
        end
        else sifting := false
      end
    done;
    times.(!i) <- lt;
    seqs.(!i) <- ls;
    hids.(!i) <- lh;
    idxs.(!i) <- lx
  end

(* Fire one popped event at the current clock: an indexed event calls
   its handler (its trace label rebuilt only when a trace is attached,
   the bytes the scheduling recorded), a closure event takes its
   callback and label out of the slot table and frees the slot before
   the callback runs, so a periodic re-arm reuses it. *)
let fire engine ~hid ~idx =
  engine.executed <- engine.executed + 1;
  if hid >= 0 then begin
    (match engine.trace with
    | None -> ()
    | Some tr ->
      Trace.record tr ~time:engine.clock.v ("fire:" ^ idx_label engine ~handler:hid ~idx));
    engine.handlers.(hid) engine idx
  end
  else begin
    let fn = engine.slot_fns.(idx) in
    (match engine.trace with
    | None -> ()
    | Some tr -> Trace.record tr ~time:engine.clock.v ("fire:" ^ engine.slot_labels.(idx)));
    release_slot engine idx;
    fn engine
  end

(* Drain a batch off the heap: the caller has established that the root
   is a batch-channel event at admissible time [t0]. *)
let drain_heap_batch engine ~limit t0 =
  let wend = t0 +. engine.batch_window in
  let count = ref 0 in
  let draining = ref true in
  while !draining do
    let t = engine.times.(0) in
    let idx = engine.idxs.(0) in
    heap_remove_root engine;
    if !count >= Array.length engine.bt_times then grow_batch engine;
    engine.bt_times.(!count) <- t;
    engine.bt_idxs.(!count) <- idx;
    incr count;
    draining :=
      engine.size > 0
      && engine.hids.(0) = engine.batch_hid
      && engine.times.(0) <= limit
      && engine.times.(0) < wend
  done;
  engine.executed <- engine.executed + !count;
  engine.clock.v <- t0;
  engine.batch_fn engine !count

(* Same drain off the calendar queue; [peek] shares the queue's cached
   minimum with the [pop] that follows, so each admission test costs
   one search.  Times are read from the queue's cells: a float returned
   from another module would be boxed on every drained event. *)
let drain_calendar_batch engine q ~limit t0 =
  let wend = t0 +. engine.batch_window in
  let min_time = Calendar_queue.min_time_cell q in
  let out_time = Calendar_queue.out_time_cell q in
  let count = ref 0 in
  let draining = ref true in
  while !draining do
    ignore (Calendar_queue.pop_no_shrink q : bool);
    if !count >= Array.length engine.bt_times then grow_batch engine;
    engine.bt_times.(!count) <- out_time.Calendar_queue.f;
    engine.bt_idxs.(!count) <- Calendar_queue.out_i2 q;
    incr count;
    draining :=
      Calendar_queue.length q > 0
      && Calendar_queue.peek q = engine.batch_hid
      && min_time.Calendar_queue.f <= limit
      && min_time.Calendar_queue.f < wend
  done;
  engine.executed <- engine.executed + !count;
  engine.clock.v <- t0;
  engine.batch_fn engine !count

(* One calendar-queue event: peek (cached by the queue), honour the
   horizon, pop through the out-fields and fire.  Same chronology and
   trace discipline as the heap path. *)
let step_calendar engine q ~limit looping =
  if Calendar_queue.length q = 0 then looping := false
  else begin
    let hid = Calendar_queue.peek q in
    let time = (Calendar_queue.min_time_cell q).Calendar_queue.f in
    if time > limit then begin
      engine.clock.v <- limit;
      looping := false
    end
    else if engine.batch_hid >= 0 && hid = engine.batch_hid then
      drain_calendar_batch engine q ~limit time
    else begin
      ignore (Calendar_queue.pop q : bool);
      engine.clock.v <- time;
      fire engine ~hid:(Calendar_queue.out_i1 q) ~idx:(Calendar_queue.out_i2 q)
    end
  end

(** [run_s ?until_s engine] — [run] on raw seconds. *)
let run_s ?until_s engine =
  let limit = match until_s with None -> Float.infinity | Some s -> s in
  engine.running <- true;
  let looping = ref true in
  while !looping do
    if not engine.running then looping := false
    else
      match engine.cal with
      | Some q -> step_calendar engine q ~limit looping
      | None ->
    if engine.size = 0 then looping := false
    else begin
      let time = engine.times.(0) in
      if time > limit then begin
        engine.clock.v <- limit;
        looping := false
      end
      else if engine.batch_hid >= 0 && engine.hids.(0) = engine.batch_hid then
        drain_heap_batch engine ~limit time
      else begin
        let hid = engine.hids.(0) in
        let idx = engine.idxs.(0) in
        heap_remove_root engine;
        engine.clock.v <- time;
        fire engine ~hid ~idx
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
