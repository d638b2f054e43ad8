(* Per-node neighbour rows rebuilt from the [Spatial] pair kernels, for
   holding them to the all-pairs scan of [Topology_reference].

   The slots are cut into ranges at [cuts]; each range is counted into
   its own [deg] / [up] arrays and filled from its own cursors, laid out
   as the CSR build lays them out (each row's span filled downwards,
   the later ranges' shares at its end).  Every range's cursors must
   end exactly on its share's first slot, so a kernel pair that one
   pass meets and the other misses fails here, not as a shifted row. *)

open Amb_net

type rows = {
  deg : int array;  (** summed over the ranges *)
  up : int array;
  nbrs : (int * float) list array;  (** ascending ids, each with its distance *)
}

let rows index ~range_m ~cuts =
  let n = Spatial.node_count index in
  let bounds = List.sort_uniq compare ((0 :: cuts) @ [ n ]) in
  let rec ranges = function a :: (b :: _ as rest) -> (a, b) :: ranges rest | _ -> [] in
  let ranges = Array.of_list (ranges bounds) in
  let parts = Array.length ranges in
  let deg_p = Array.init parts (fun _ -> Array.make n 0) in
  let up_p = Array.init parts (fun _ -> Array.make n 0) in
  Array.iteri
    (fun p (lo, hi) -> Spatial.count_pairs index ~range_m lo hi ~deg:deg_p.(p) ~up:up_p.(p))
    ranges;
  let sum a i = Array.fold_left (fun acc x -> acc + x.(i)) 0 a in
  let deg = Array.init n (sum deg_p) and up = Array.init n (sum up_p) in
  let base = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    base.(i + 1) <- base.(i) + up.(i)
  done;
  (* Range [p]'s share of row [i] ends where the later ranges' begin. *)
  let share_end p i =
    let c = ref base.(i + 1) in
    for q = parts - 1 downto p + 1 do
      c := !c - up_p.(q).(i)
    done;
    !c
  in
  let ids = Array.make base.(n) (-1) and dists = Array.make base.(n) Float.nan in
  Array.iteri
    (fun p (lo, hi) ->
      let cursor = Array.init n (share_end p) in
      Spatial.fill_pairs index ~range_m lo hi ~cursor ~ids ~dists;
      for i = 0 to n - 1 do
        if cursor.(i) <> share_end p i - up_p.(p).(i) then
          failwith (Printf.sprintf "slots [%d, %d): row %d filled %d of %d" lo hi i
                      (share_end p i - cursor.(i)) up_p.(p).(i))
      done)
    ranges;
  let nbrs = Array.make n [] in
  for i = 0 to n - 1 do
    for k = base.(i) to base.(i + 1) - 1 do
      let j = ids.(k) and d = dists.(k) in
      if j <= i then failwith (Printf.sprintf "row %d lists %d in its upper half" i j);
      nbrs.(i) <- (j, d) :: nbrs.(i);
      nbrs.(j) <- (i, d) :: nbrs.(j)
    done
  done;
  { deg; up; nbrs = Array.map (List.sort compare) nbrs }

(* Evenly spaced cut points splitting [n] slots into [parts] ranges. *)
let even_cuts n parts = List.init (Stdlib.max 0 (parts - 1)) (fun p -> (p + 1) * n / parts)
