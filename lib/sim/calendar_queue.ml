(** Calendar event queue (Brown 1988) for city-scale event populations.

    The engine's struct-of-arrays binary heap is unbeatable for the
    hundreds-to-thousands of pending events the experiment suite
    schedules, but its O(log n) sift depth starts to tell once a fleet
    of 10^5 periodic reporters keeps 10^5 events in flight.  A calendar
    queue buckets events by time — [bucket = floor(time / width) mod
    nbuckets] — so with a width matched to the event density both
    enqueue and dequeue are amortized O(1) regardless of population.

    Layout is the same discipline as {!Float_heap} and the engine heap:
    events live in parallel arrays (unboxed float times, int sequence
    numbers, two caller payload slots) threaded into per-bucket
    intrusive chains through an int [next] array, with a free list in
    the same array; no per-event boxing, no per-event allocation.
    Chains are kept sorted by (time, seq), so the head of a bucket
    chain is its minimum and equal times pop FIFO — the exact order of
    the binary heap, which the property tests check.

    Events whose virtual bucket index would overflow the int/float
    precision range (far-future or infinite times) live on a separate
    sorted overflow chain consulted by the direct-search fallback.
    The bucket count doubles when the population outgrows it and halves
    when the population collapses; each resize re-measures the spread
    of pending times to pick a fresh width, and {!remeasure} runs the
    same pass at the current bucket count (the engine's hand-over,
    whose default 1 s width would otherwise stand until the first
    doubling).  All operations are sequential and deterministic. *)

(* A float alone in an all-float record: stores are raw double writes
   (a float field in the mixed queue record would be boxed on every
   assignment). *)
type fcell = { mutable f : float }

type ('a, 'b) t = {
  null_a : 'a;  (** placeholder releasing payload slots to the GC *)
  null_b : 'b;
  (* Node store: one event per slot, SoA, free list through [nexts]. *)
  mutable times : float array;
  mutable seqs : int array;
  mutable nexts : int array;  (** chain link / free-list link; -1 = end *)
  mutable pa : 'a array;
  mutable pb : 'b array;
  mutable i1s : int array;  (** two int payload slots (e.g. handler id / index
                                of the engine's indexed event channel);
                                carried verbatim, never interpreted *)
  mutable i2s : int array;
  mutable free : int;  (** head of the free list; -1 = store full *)
  (* Calendar. *)
  mutable buckets : int array;  (** head node per bucket; -1 = empty *)
  mutable width : float;  (** bucket width, seconds *)
  mutable overflow : int;  (** sorted chain of far-future/non-finite events *)
  mutable count : int;
  mutable last_vb : int;  (** virtual bucket where the dequeue scan resumes *)
  mutable hit : int;  (** cached min position: -2 none, -1 overflow, else bucket *)
  min_time_c : fcell;  (** earliest pending time, filled by [peek] *)
  in_time : fcell;  (** time hand-off into [push_cell] *)
  (* Out-fields filled by [pop] (allocation-free hand-off). *)
  out_time : fcell;
  mutable out_seq : int;
  mutable out_a : 'a;
  mutable out_b : 'b;
  mutable out_i1 : int;
  mutable out_i2 : int;
}

(* Virtual bucket indices at or beyond this are routed to the overflow
   chain: they stay exactly representable as floats and ints, and the
   year arithmetic [(vb + 1) * width] keeps full precision. *)
let overflow_vb = 1e14

(* Typed: an unannotated [before] is polymorphic, so every chain step
   would call [caml_lessthan]/[caml_equal] on two freshly boxed times —
   over a hundred minor words per push on a one-second chain. *)
let[@inline] before (t1 : float) (s1 : int) (t2 : float) (s2 : int) =
  t1 < t2 || (t1 = t2 && s1 < s2)

let round_pow2 v =
  let p = ref 16 in
  while !p < v do
    p := !p * 2
  done;
  !p

let create ?(buckets = 16) ~null_a ~null_b () =
  let nb = round_pow2 (Stdlib.max 16 buckets) in
  let cap = 16 in
  let nexts = Array.init cap (fun i -> if i = cap - 1 then -1 else i + 1) in
  {
    null_a;
    null_b;
    times = Array.make cap 0.0;
    seqs = Array.make cap 0;
    nexts;
    pa = Array.make cap null_a;
    pb = Array.make cap null_b;
    i1s = Array.make cap 0;
    i2s = Array.make cap 0;
    free = 0;
    buckets = Array.make nb (-1);
    width = 1.0;
    overflow = -1;
    count = 0;
    last_vb = 0;
    hit = -2;
    min_time_c = { f = Float.infinity };
    in_time = { f = 0.0 };
    out_time = { f = 0.0 };
    out_seq = 0;
    out_a = null_a;
    out_b = null_b;
    out_i1 = 0;
    out_i2 = 0;
  }

let length q = q.count

let grow_store q =
  let cap = Array.length q.times in
  let cap' = cap * 2 in
  let times = Array.make cap' 0.0
  and seqs = Array.make cap' 0
  and nexts = Array.make cap' (-1)
  and pa = Array.make cap' q.null_a
  and pb = Array.make cap' q.null_b
  and i1s = Array.make cap' 0
  and i2s = Array.make cap' 0 in
  Array.blit q.times 0 times 0 cap;
  Array.blit q.seqs 0 seqs 0 cap;
  Array.blit q.nexts 0 nexts 0 cap;
  Array.blit q.pa 0 pa 0 cap;
  Array.blit q.pb 0 pb 0 cap;
  Array.blit q.i1s 0 i1s 0 cap;
  Array.blit q.i2s 0 i2s 0 cap;
  for i = cap to cap' - 1 do
    nexts.(i) <- (if i = cap' - 1 then -1 else i + 1)
  done;
  q.times <- times;
  q.seqs <- seqs;
  q.nexts <- nexts;
  q.pa <- pa;
  q.pb <- pb;
  q.i1s <- i1s;
  q.i2s <- i2s;
  q.free <- cap

(* Sorted insert of [node] into the chain starting at [head]; returns
   the new head.  With a width matched to the event density the chain
   is O(1) long. *)
let chain_insert q node head =
  let time = q.times.(node) and seq = q.seqs.(node) in
  if head < 0 || before time seq q.times.(head) q.seqs.(head) then begin
    q.nexts.(node) <- head;
    node
  end
  else begin
    let p = ref head in
    let walking = ref true in
    while !walking do
      let nx = q.nexts.(!p) in
      if nx < 0 || before time seq q.times.(nx) q.seqs.(nx) then begin
        q.nexts.(node) <- nx;
        q.nexts.(!p) <- node;
        walking := false
      end
      else p := nx
    done;
    head
  end

(* File [node] into its bucket (or the overflow chain) from its stored
   time.  Shared by push and the resize re-bucketing pass. *)
let file q node =
  let time = q.times.(node) in
  let quot = time /. q.width in
  if (not (Float.is_finite quot)) || quot >= overflow_vb then
    q.overflow <- chain_insert q node q.overflow
  else begin
    let vb = int_of_float quot in
    if vb < q.last_vb then q.last_vb <- vb;
    let b = vb land (Array.length q.buckets - 1) in
    q.buckets.(b) <- chain_insert q node q.buckets.(b)
  end

(* Rebuild with [nb'] buckets and a width re-measured from the spread
   of pending times (amortized against the pushes/pops that triggered
   it; the only allocating path in the module). *)
let resize q nb' =
  let all = Array.make (Stdlib.max 1 q.count) 0 in
  let cursor = ref 0 in
  let walk head =
    let p = ref head in
    while !p >= 0 do
      all.(!cursor) <- !p;
      incr cursor;
      p := q.nexts.(!p)
    done
  in
  Array.iter walk q.buckets;
  walk q.overflow;
  let lo = ref Float.infinity and hi = ref Float.neg_infinity in
  for k = 0 to q.count - 1 do
    let t = q.times.(all.(k)) in
    if Float.is_finite t then begin
      if t < !lo then lo := t;
      if t > !hi then hi := t
    end
  done;
  let width =
    if q.count = 0 || not (Float.is_finite (!hi -. !lo)) || !hi <= !lo then 1.0
    else begin
      (* Spread the population over a quarter of the buckets' year, so
         a uniform schedule lands ~1 event per bucket with room for
         clustering. *)
      let w = (!hi -. !lo) /. Float.of_int q.count *. 4.0 in
      (* Keep every in-range virtual index well inside the exact-int
         float range, whatever the absolute clock value. *)
      if !hi /. w >= overflow_vb *. 0.5 then !hi /. (overflow_vb *. 0.5) else w
    end
  in
  q.width <- width;
  q.buckets <- Array.make nb' (-1);
  q.overflow <- -1;
  q.last_vb <- (if Float.is_finite !lo then int_of_float (!lo /. width) else 0);
  q.hit <- -2;
  for k = 0 to q.count - 1 do
    file q all.(k)
  done

let remeasure q = resize q (Array.length q.buckets)

let[@inline] push_at q time ~seq ~i1 ~i2 a b =
  if Float.is_nan time then invalid_arg "Calendar_queue.push: NaN time";
  if q.free < 0 then grow_store q;
  let node = q.free in
  q.free <- q.nexts.(node);
  q.times.(node) <- time;
  q.seqs.(node) <- seq;
  q.pa.(node) <- a;
  q.pb.(node) <- b;
  q.i1s.(node) <- i1;
  q.i2s.(node) <- i2;
  file q node;
  q.count <- q.count + 1;
  q.hit <- -2;
  if q.count > 2 * Array.length q.buckets then resize q (2 * Array.length q.buckets)

let push q ~time ~seq ~i1 ~i2 a b = push_at q time ~seq ~i1 ~i2 a b

(* [push] with the time handed over through a cell: a float argument
   to a call from another module is boxed, a cell store is not. *)
let time_cell q = q.in_time
let push_cell q ~seq ~i1 ~i2 a b = push_at q q.in_time.f ~seq ~i1 ~i2 a b

(* Locate the minimum event: resume the year scan at [last_vb]; if a
   whole lap of the calendar finds nothing inside its year window, fall
   back to a direct search over every chain head (rare — it means the
   pending events are sparse relative to the year). *)
let ensure_hit q =
  if q.hit = -2 && q.count > 0 then begin
    let nb = Array.length q.buckets in
    let vb = ref q.last_vb in
    let found = ref (-2) in
    let laps = ref 0 in
    while !found = -2 && !laps < nb do
      let b = !vb land (nb - 1) in
      let h = q.buckets.(b) in
      if h >= 0 && q.times.(h) < Float.of_int (!vb + 1) *. q.width then found := b
      else begin
        incr vb;
        incr laps
      end
    done;
    if !found >= 0 then begin
      q.last_vb <- !vb;
      q.hit <- !found
    end
    else begin
      let best = ref (-2) in
      let bt = ref Float.infinity and bs = ref Stdlib.max_int in
      if q.overflow >= 0 then begin
        best := -1;
        bt := q.times.(q.overflow);
        bs := q.seqs.(q.overflow)
      end;
      for b = 0 to nb - 1 do
        let h = q.buckets.(b) in
        if h >= 0 && before q.times.(h) q.seqs.(h) !bt !bs then begin
          best := b;
          bt := q.times.(h);
          bs := q.seqs.(h)
        end
      done;
      if !best >= 0 then q.last_vb <- int_of_float (!bt /. q.width);
      q.hit <- !best
    end
  end

(* Peek the minimum event without popping it: its time goes to the
   [min_time_c] cell, its first int payload is the result.  The engine
   asks both "when?" and "is it on the batched handler channel?"
   before committing to a pop; one call answers both without a float
   crossing the module boundary (a float return would be boxed), and
   [ensure_hit] caches the search for the [pop] that follows. *)
let peek q =
  if q.count = 0 then begin
    q.min_time_c.f <- Float.infinity;
    min_int
  end
  else begin
    ensure_hit q;
    let h = if q.hit = -1 then q.overflow else q.buckets.(q.hit) in
    q.min_time_c.f <- q.times.(h);
    q.i1s.(h)
  end

let min_time_cell q = q.min_time_c

let min_time q =
  ignore (peek q : int);
  q.min_time_c.f

(* [pop] without the shrink check: the engine's batch drain pops whole
   report waves — most of the pending population — that the batch body
   re-inserts moments later as it re-arms each stream.  Letting those
   pops halve the bucket array would walk the queue through a full
   shrink/grow resize cascade (each one re-bucketing every pending
   event) on every wave; keeping the buckets sized for the population
   that is about to return makes the drain resize-free.  Ordinary pops
   still shrink, so a genuinely collapsing population reclaims its
   buckets on the next non-batched pop. *)
let pop_no_shrink q =
  if q.count = 0 then false
  else begin
    ensure_hit q;
    let node =
      if q.hit = -1 then begin
        let h = q.overflow in
        q.overflow <- q.nexts.(h);
        h
      end
      else begin
        let h = q.buckets.(q.hit) in
        q.buckets.(q.hit) <- q.nexts.(h);
        h
      end
    in
    q.out_time.f <- q.times.(node);
    q.out_seq <- q.seqs.(node);
    q.out_a <- q.pa.(node);
    q.out_b <- q.pb.(node);
    q.out_i1 <- q.i1s.(node);
    q.out_i2 <- q.i2s.(node);
    q.pa.(node) <- q.null_a;
    q.pb.(node) <- q.null_b;
    q.nexts.(node) <- q.free;
    q.free <- node;
    q.count <- q.count - 1;
    q.hit <- -2;
    true
  end

let pop q =
  if pop_no_shrink q then begin
    let nb = Array.length q.buckets in
    if nb > 64 && q.count < nb / 4 then resize q (nb / 2);
    true
  end
  else false

let[@inline] out_time q = q.out_time.f
let[@inline] out_time_cell q = q.out_time
let[@inline] out_seq q = q.out_seq
let[@inline] out_a q = q.out_a
let[@inline] out_b q = q.out_b
let[@inline] out_i1 q = q.out_i1
let[@inline] out_i2 q = q.out_i2
