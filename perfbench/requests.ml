(* Seeded request stream for the serve-sweep workload.

   The stream is what one client sends an [amblib-serve/1] session in a
   closed loop.  Every request carries what a correct answer must look
   like, so the benchmark can check each response without recomputing
   it.  Fresh grids never share a cell with any other grid: each draws
   its seeds from a block reserved for its stream position, so whether a
   cell is cached depends only on the stream's repeats and on the
   pre-seeded store, both of which the generator knows. *)

type kind =
  | Fresh of { cells : int; errors : int; preseeded : bool }
      (** a run grid seen for the first time; [preseeded] grids are
          already in the store the session opens *)
  | Repeat of int  (** the stream index of the request it repeats *)
  | Malformed  (** must be answered with [status = "error"] *)
  | Stats

type request = { line : string; kind : kind }

type t = {
  requests : request array;
  preseed : string list;  (** run requests that fill the store before the session *)
}

let pick rng arr = arr.(Random.State.int rng (Array.length arr))

(* [k] distinct values drawn from [arr], in draw order. *)
let distinct rng k arr =
  let rec go acc =
    if List.length acc = k then List.rev acc
    else
      let v = pick rng arr in
      go (if List.mem v acc then acc else v :: acc)
  in
  go []

let json_list render = function
  | [ v ] -> render v
  | vs -> "[" ^ String.concat "," (List.map render vs) ^ "]"

let int_json = string_of_int
let str_json s = "\"" ^ s ^ "\""

(* What a fresh grid costs is fixed by its shape: fleet size, horizons
   and how many values each axis takes.  Shapes come from one fixed
   stream, identical for every seed, so every seed runs the same
   multiset of work; the seed decides the order, the cell seeds (which
   place the nodes and phase the reports), the fault instants and
   nodes, and which earlier grid a repeat resends. *)
type shape = {
  leaves : int;
  relays : int;
  tags : int;
  hours : int list;
  policies : string list;
  links : string list;
  diurnals : string list;
  plans : [ `None | `Crash | `Fade | `Bscale | `Crash_bscale | `Bad ] list;
  nseeds : int;
  preseeded : bool;
}

let shape rng =
  let leaves = 2 + Random.State.int rng 15 in
  let relays = Random.State.int rng 4 in
  let tags = if Random.State.int rng 10 < 3 then 1 + Random.State.int rng 6 else 0 in
  (* Two of the axes below get two values; the rest one. *)
  let widen = distinct rng 2 [| `Hours; `Policy; `Link; `Diurnal; `Fault; `Seeds |] in
  let width axis = if List.mem axis widen && Random.State.bool rng then 2 else 1 in
  let plan_kind () = pick rng [| `None; `None; `Crash; `Fade; `Bscale; `Crash_bscale |] in
  let first = if Random.State.int rng 20 = 0 then `Bad else plan_kind () in
  let plans =
    if width `Fault = 1 then [ first ]
    else
      (* a second plan of another kind, so the two plans never coincide *)
      let rec second () =
        let k = plan_kind () in
        if k = first then second () else k
      in
      [ first; second () ]
  in
  {
    leaves;
    relays;
    tags;
    hours = distinct rng (width `Hours) [| 1; 2; 3; 4; 6; 8; 12 |];
    policies = distinct rng (width `Policy) [| "min-energy"; "min-hop" |];
    links = distinct rng (width `Link) [| "cached"; "mac:1"; "mac:2" |];
    diurnals =
      distinct rng (width `Diurnal) [| "office"; "living-room"; "outdoor"; "constant"; "none" |];
    plans;
    nseeds = width `Seeds;
    preseeded = Random.State.int rng 10 = 0;
  }

(* One fault plan of the given kind (node 0 is the sink, relays come
   next, then leaves, then tags).  [`Bad] crashes a node the fleet does
   not have, which the runner turns into an error row for every cell of
   that plan. *)
let fault_plan rng sh kind =
  let nodes = 1 + sh.relays + sh.leaves + sh.tags in
  let leaf () = 1 + sh.relays + Random.State.int rng sh.leaves in
  let hour () = 1 + Random.State.int rng 5 in
  let crash () =
    let node = if sh.relays > 0 then 1 + Random.State.int rng sh.relays else leaf () in
    Printf.sprintf "crash:%d@%d" node (hour ())
  in
  let bscale () = Printf.sprintf "bscale:%d:0.%d" (leaf ()) (1 + Random.State.int rng 8) in
  match kind with
  | `None -> "none"
  | `Crash -> crash ()
  | `Fade ->
    let a = leaf () in
    let b = if sh.relays > 0 then 1 + Random.State.int rng sh.relays else 0 in
    Printf.sprintf "fade:%d-%d:%d@%d" a b (10 + Random.State.int rng 20) (hour ())
  | `Bscale -> bscale ()
  | `Crash_bscale -> crash () ^ "+" ^ bscale ()
  | `Bad -> Printf.sprintf "crash:%d@%d" (nodes + Random.State.int rng 8) (hour ())

(* The request line of a grid of shape [sh] whose cell seeds start at
   [seed_block], with its cell and error-row counts. *)
let grid_line rng sh ~seed_block =
  let plans = List.map (fault_plan rng sh) sh.plans in
  let seeds = List.init sh.nseeds (fun i -> seed_block + i) in
  let per_plan =
    List.length sh.hours * List.length sh.policies * List.length sh.links
    * List.length sh.diurnals * sh.nseeds
  in
  let errors = if List.mem `Bad sh.plans then per_plan else 0 in
  let line =
    Printf.sprintf
      "{\"op\":\"run\",\"name\":\"sweep\",\"leaves\":%d,\"relays\":%d,\"tags\":%d,\"hours\":%s,\
       \"policy\":%s,\"link\":%s,\"diurnal\":%s,\"fault\":%s,\"seeds\":%s}"
      sh.leaves sh.relays sh.tags (json_list int_json sh.hours) (json_list str_json sh.policies)
      (json_list str_json sh.links) (json_list str_json sh.diurnals) (json_list str_json plans)
      (json_list int_json seeds)
  in
  (line, per_plan * List.length plans, errors)

let malformed =
  [|
    "{\"op\":\"run\",\"leaves\":[4,";
    "{\"op\":\"explode\"}";
    "{\"op\":\"run\",\"leaves\":-3}";
    "{\"op\":\"run\",\"policy\":\"fastest\"}";
    "{\"op\":\"run\",\"colour\":\"red\"}";
    "[1,2,3]";
    "";
    "{\"leaves\":4}";
  |]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [generate ~seed ~count]: 70 % fresh grids (one in ten of them
   pre-seeded), 25 % repeats of earlier grids, 3 % malformed and 2 %
   [stats] requests, in a seeded order that opens with a fresh grid. *)
let generate ~seed ~count =
  let rng = Random.State.make [| 0x5e7e; seed |] in
  let n_fresh = Stdlib.max 1 (count * 70 / 100) in
  let n_repeat = count * 25 / 100 and n_malformed = count * 3 / 100 in
  let kinds =
    Array.init (count - 1) (fun i ->
        if i < n_fresh - 1 then `Fresh
        else if i < n_fresh - 1 + n_repeat then `Repeat
        else if i < n_fresh - 1 + n_repeat + n_malformed then `Malformed
        else `Stats)
  in
  shuffle rng kinds;
  let shapes =
    let fixed = Random.State.make [| 0x5e7e |] in
    Array.init n_fresh (fun _ -> shape fixed)
  in
  shuffle rng shapes;
  let block = 1_000_000 * (1 + (abs seed mod 1000)) in
  let runs = ref [] and nruns = ref 0 and preseed = ref [] in
  let requests =
    Array.init count (fun i ->
        match if i = 0 then `Fresh else kinds.(i - 1) with
        | `Fresh ->
          let sh = shapes.(!nruns) in
          let line, cells, errors = grid_line rng sh ~seed_block:(block + (4 * i)) in
          if sh.preseeded then preseed := line :: !preseed;
          runs := i :: !runs;
          incr nruns;
          { line; kind = Fresh { cells; errors; preseeded = sh.preseeded } }
        | `Repeat -> { line = ""; kind = Repeat (List.nth !runs (Random.State.int rng !nruns)) }
        | `Malformed -> { line = pick rng malformed; kind = Malformed }
        | `Stats -> { line = "{\"op\":\"stats\"}"; kind = Stats })
  in
  (* A repeat sends the very bytes of the request it repeats. *)
  Array.iteri
    (fun i r ->
      match r.kind with
      | Repeat first -> requests.(i) <- { r with line = requests.(first).line }
      | _ -> ())
    requests;
  { requests; preseed = List.rev !preseed }
