(* In-memory span recorder for traced benchmark runs.

   A span is one timed call into a layer's public function, made from
   the benchmark, or one interval reported by a program clock hook
   ([Fleet.build_timing], [Cosim.phase_times]).  Spans stay in memory
   until the run ends; the analysis below turns them into per-layer
   self times and checks that every parent is exactly covered by its
   own self time plus its descendants'. *)

type span = { id : int; parent : int option; name : string; start : float; stop : float }

type t = { clock : unit -> float; mutable next_id : int; mutable finished : span list }

let create ~clock = { clock; next_id = 0; finished = [] }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let record t ?parent name ~start ~stop =
  let id = fresh_id t in
  t.finished <- { id; parent; name; start; stop } :: t.finished;
  id

(* [with_span t ?parent name f] times [f id], where [id] is the new
   span's identifier for children to name as their parent. *)
let with_span t ?parent name f =
  let id = fresh_id t in
  let start = t.clock () in
  let result = f id in
  let stop = t.clock () in
  t.finished <- { id; parent; name; start; stop } :: t.finished;
  result

let spans t = List.sort (fun a b -> Int.compare a.id b.id) t.finished

let duration s = s.stop -. s.start

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, _ =
    List.fold_left
      (fun (total, reach) (a, b) ->
        if b <= reach then (total, reach)
        else (total +. (b -. Float.max a reach), b))
      (0.0, Float.neg_infinity) sorted
  in
  total

(* A finished run's spans with a parent -> children index. *)
type tree = { all : span list; kids : (int, span list) Hashtbl.t }

let tree t =
  let all = spans t in
  let kids = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p -> Hashtbl.replace kids p (s :: Option.value ~default:[] (Hashtbl.find_opt kids p))
      | None -> ())
    all;
  { all; kids }

let children tr s = Option.value ~default:[] (Hashtbl.find_opt tr.kids s.id)

(* Duration minus the part of the span's interval its children cover. *)
let self_time tr s =
  duration s
  -. covered ~lo:s.start ~hi:s.stop (List.map (fun c -> (c.start, c.stop)) (children tr s))

(* Self time of [s] plus that of every descendant: equal to [duration s]
   exactly when no two siblings overlap and every child stays inside
   its parent. *)
let rec subtree_self tr s =
  List.fold_left (fun acc c -> acc +. subtree_self tr c) (self_time tr s) (children tr s)

(* Every span with children whose subtree self times do not add up to
   its duration within [tol] seconds: [(name, duration, subtree sum)]. *)
let unbalanced ?(tol = 1e-6) tr =
  List.filter_map
    (fun s ->
      if children tr s = [] then None
      else
        let sum = subtree_self tr s in
        if Float.abs (sum -. duration s) > tol then Some (s.name, duration s, sum) else None)
    tr.all

(* Total self time per span name, in first-seen order. *)
let self_by_name tr =
  let totals = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun s ->
      let v = self_time tr s in
      match Hashtbl.find_opt totals s.name with
      | Some acc -> Hashtbl.replace totals s.name (acc +. v)
      | None ->
        Hashtbl.add totals s.name v;
        order := s.name :: !order)
    tr.all;
  List.rev_map (fun name -> (name, Hashtbl.find totals name)) !order

(* One JSON object per span, for the run's span file. *)
let to_jsonl tr =
  let b = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "{\"id\":%d,\"parent\":%s,\"name\":%S,\"start\":%.9f,\"end\":%.9f}\n"
           s.id
           (match s.parent with Some p -> string_of_int p | None -> "null")
           s.name s.start s.stop))
    tr.all;
  Buffer.contents b

(* Clock hook for a program's wall-clock accumulators.

   The program reads the hook's clock before and after each timed stage
   and adds the difference to one named accumulator.  At every clock
   read the hook compares the accumulators with their previous values:
   an accumulator that grew by [d] since the last read was fed by an
   interval ending at that read, so the interval is [(last - d, last)].
   This recovers the stage intervals without knowing the program's
   call pattern. *)
type hook = {
  now : unit -> float;
  mutable fields : (string * (unit -> float)) array;
  mutable seen : float array;
  mutable last : float option;
  mutable intervals : (string * float * float) list;
}

let hook ~now = { now; fields = [||]; seen = [||]; last = None; intervals = [] }

(* Name the accumulators to watch; call once, before the first read. *)
let watch h fields =
  h.fields <- Array.of_list fields;
  h.seen <- Array.map (fun (_, get) -> get ()) h.fields

let attribute h =
  match h.last with
  | None -> ()
  | Some at ->
    Array.iteri
      (fun i (name, get) ->
        let v = get () in
        let d = v -. h.seen.(i) in
        if d > 0.0 then h.intervals <- (name, at -. d, at) :: h.intervals;
        h.seen.(i) <- v)
      h.fields

let hook_clock h () =
  attribute h;
  let t = h.now () in
  h.last <- Some t;
  t

(* The intervals recovered so far, in time order. *)
let hook_intervals h =
  attribute h;
  h.last <- None;
  List.rev h.intervals
