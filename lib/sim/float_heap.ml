(** Unboxed binary min-heap with float keys and int payloads.

    The dedicated priority queue for graph algorithms (Dijkstra): keys,
    payloads and insertion sequence numbers live in three flat arrays, so
    pushes and pops touch no boxed entries — unlike a polymorphic queue
    of (time, payload) records, which the Dijkstra inner loop used to
    allocate per relaxation.  Ties in key pop in insertion order, the
    (key, insertion sequence) determinism rule of every queue here. *)

type t = {
  mutable keys : float array;
  mutable payloads : int array;
  mutable seqs : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create ?(capacity = 16) () =
  let capacity = Stdlib.max 1 capacity in
  {
    keys = Array.make capacity 0.0;
    payloads = Array.make capacity 0;
    seqs = Array.make capacity 0;
    size = 0;
    next_seq = 0;
  }

let length h = h.size
let is_empty h = h.size = 0

let before h i j =
  h.keys.(i) < h.keys.(j) || (h.keys.(i) = h.keys.(j) && h.seqs.(i) < h.seqs.(j))

let swap h i j =
  let k = h.keys.(i) and p = h.payloads.(i) and s = h.seqs.(i) in
  h.keys.(i) <- h.keys.(j);
  h.payloads.(i) <- h.payloads.(j);
  h.seqs.(i) <- h.seqs.(j);
  h.keys.(j) <- k;
  h.payloads.(j) <- p;
  h.seqs.(j) <- s

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before h i parent then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = if left < h.size && before h left i then left else i in
  let smallest = if right < h.size && before h right smallest then right else smallest in
  if smallest <> i then begin
    swap h i smallest;
    sift_down h smallest
  end

let ensure_capacity h =
  let capacity = Array.length h.keys in
  if h.size >= capacity then begin
    let bigger = Stdlib.max 16 (capacity * 2) in
    let grow make src = (let a = make bigger in Array.blit src 0 a 0 h.size; a) in
    h.keys <- grow (fun n -> Array.make n 0.0) h.keys;
    h.payloads <- grow (fun n -> Array.make n 0) h.payloads;
    h.seqs <- grow (fun n -> Array.make n 0) h.seqs
  end

type cell = { mutable v : float }

(** [push_cell h cell payload] — enqueue [payload] with the key read
    from [cell]: a float argument of a call from another module is
    boxed, a cell read is not.  Raises [Invalid_argument] for a NaN
    key. *)
let push_cell h cell payload =
  let key = cell.v in
  if Float.is_nan key then invalid_arg "Float_heap.push_cell: NaN key";
  ensure_capacity h;
  h.keys.(h.size) <- key;
  h.payloads.(h.size) <- payload;
  h.seqs.(h.size) <- h.next_seq;
  h.next_seq <- h.next_seq + 1;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

(** [pop_min h cell] — remove the smallest entry, store its key in
    [cell] and return its payload.  A flat float cell instead of a
    tuple: the pop allocates nothing (no option, no tuple, no boxed
    key). *)
let pop_min h cell =
  if h.size = 0 then invalid_arg "Float_heap.pop_min: empty heap";
  cell.v <- h.keys.(0);
  let payload = h.payloads.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.keys.(0) <- h.keys.(h.size);
    h.payloads.(0) <- h.payloads.(h.size);
    h.seqs.(0) <- h.seqs.(h.size);
    sift_down h 0
  end;
  payload

let clear h = h.size <- 0

(* In-place heapsort over a plain float array: all comparisons and swaps
   run on unboxed doubles, where [Array.sort Float.compare] would box
   both floats at every comparison (4 minor words each — the dominant
   allocation of large Monte Carlo runs).  Restricted to NaN-free input;
   on such input the result is element-for-element identical to
   [Array.sort Float.compare] (equal floats are indistinguishable). *)
let sort_floats (a : float array) =
  let n = Array.length a in
  let sift_down limit root =
    let r = ref root in
    let continue_ = ref true in
    while !continue_ do
      let child = (2 * !r) + 1 in
      if child >= limit then continue_ := false
      else begin
        let child =
          if child + 1 < limit
             && Array.unsafe_get a child < Array.unsafe_get a (child + 1)
          then child + 1
          else child
        in
        if Array.unsafe_get a !r < Array.unsafe_get a child then begin
          let tmp = Array.unsafe_get a !r in
          Array.unsafe_set a !r (Array.unsafe_get a child);
          Array.unsafe_set a child tmp;
          r := child
        end
        else continue_ := false
      end
    done
  in
  for root = (n / 2) - 1 downto 0 do
    sift_down n root
  done;
  for last = n - 1 downto 1 do
    let tmp = Array.unsafe_get a 0 in
    Array.unsafe_set a 0 (Array.unsafe_get a last);
    Array.unsafe_set a last tmp;
    sift_down last 0
  done
