(** Uniform-grid spatial index over node positions (see .mli).

    Buckets are laid out CSR-style in flat arrays (counting sort), so
    building is O(n + cells) with no per-cell allocation.  Node ids
    inside a cell are ascending (the counting sort fills them in id
    order), which keeps query results deterministic.  The coordinates
    are copied into slot order beside the ids, and cells of one grid row
    occupy consecutive slots, so a query scans each grid row of its
    covering ring as one contiguous slot range.

    Candidates are screened on [dx²+dy²] against [range_m²(1∓1e-9)]:
    a pair clearly inside or outside the disc is decided without a
    square root, and [Float.hypot] runs only inside that thin band (and
    wherever the distance itself is reported).  The band is far wider
    than the few-ulp rounding of either computation, so the accepted set
    is exactly [Float.hypot dx dy <= range_m] — the same [Float.hypot]
    as {!Topology.distance}, giving bit-identical distances to the
    brute-force pair scan. *)

type t = {
  xs : float array;  (** by node id *)
  ys : float array;
  sx : float array;  (** [xs] in slot order: [sx.(k) = xs.(order.(k))] *)
  sy : float array;
  cell_m : float;  (** actual cell edge after the cell-count clamp *)
  cols : int;
  rows : int;
  start : int array;  (** cell -> first slot in [order]; length cols*rows+1 *)
  order : int array;  (** node ids grouped by cell, ascending within a cell *)
}

(* Cap the bucket array so a tiny cell size over a huge field cannot
   allocate more cells than nodes justify: past ~4 cells per node the
   grid only wastes memory and cache. *)
let max_cells n = Stdlib.max 64 (4 * Stdlib.max 1 n)

let[@inline] clamp (lo : int) hi v = if v < lo then lo else if v > hi then hi else v

let make ~xs ~ys ~width_m ~height_m ~cell_m =
  let n = Array.length xs in
  if Array.length ys <> n then invalid_arg "Spatial.make: coordinate arrays differ in length";
  if width_m <= 0.0 || height_m <= 0.0 then invalid_arg "Spatial.make: non-positive field";
  if not (cell_m > 0.0) then invalid_arg "Spatial.make: non-positive cell size";
  let cols0 = 1 + int_of_float (width_m /. cell_m)
  and rows0 = 1 + int_of_float (height_m /. cell_m) in
  (* Inflate the cell edge until the grid fits the cell budget. *)
  let budget = max_cells n in
  let cell_m =
    if cols0 * rows0 <= budget then cell_m
    else begin
      let scale = Float.sqrt (Float.of_int (cols0 * rows0) /. Float.of_int budget) in
      cell_m *. scale
    end
  in
  let cols = Stdlib.max 1 (1 + int_of_float (width_m /. cell_m))
  and rows = Stdlib.max 1 (1 + int_of_float (height_m /. cell_m)) in
  let cells = cols * rows in
  let start = Array.make (cells + 1) 0 in
  let cell_of i =
    let cx = clamp 0 (cols - 1) (int_of_float (xs.(i) /. cell_m))
    and cy = clamp 0 (rows - 1) (int_of_float (ys.(i) /. cell_m)) in
    (cy * cols) + cx
  in
  for i = 0 to n - 1 do
    let c = cell_of i in
    start.(c + 1) <- start.(c + 1) + 1
  done;
  for c = 1 to cells do
    start.(c) <- start.(c) + start.(c - 1)
  done;
  let cursor = Array.copy start in
  let order = Array.make n 0 in
  let sx = Array.create_float n and sy = Array.create_float n in
  (* Ascending pass: within each cell the ids come out ascending. *)
  for i = 0 to n - 1 do
    let c = cell_of i in
    let k = cursor.(c) in
    order.(k) <- i;
    sx.(k) <- xs.(i);
    sy.(k) <- ys.(i);
    cursor.(c) <- k + 1
  done;
  { xs; ys; sx; sy; cell_m; cols; rows; start; order }

let node_count t = Array.length t.xs
let cell_m t = t.cell_m

(** [sq_band range_m] — [(lo, hi)] such that, for one pair's [dx, dy],
    [dx*.dx +. dy*.dy < lo] implies [Float.hypot dx dy <= range_m] and
    [> hi] implies the opposite.  Both products and the sum round within
    a few ulps (~1e-16 relative), far inside the 1e-9 margin.  When
    [range_m²] overflows or is subnormal that bound fails, so the band
    then covers everything and [Float.hypot] decides every pair. *)
let sq_band range_m =
  let r2 = range_m *. range_m in
  if Float.is_finite r2 && r2 >= Float.min_float then
    (r2 *. (1.0 -. 1e-9), r2 *. (1.0 +. 1e-9))
  else (Float.neg_infinity, Float.infinity)

(* Run [row lo hi] over the contiguous slot range of every grid row of
   the cell ring covering node [i]'s range disc, rows ascending. *)
let[@inline] iter_ring t i ~range_m row =
  let r_cells = int_of_float (Float.ceil (range_m /. t.cell_m)) in
  let cx = clamp 0 (t.cols - 1) (int_of_float (t.xs.(i) /. t.cell_m))
  and cy = clamp 0 (t.rows - 1) (int_of_float (t.ys.(i) /. t.cell_m)) in
  let x0 = Int.max 0 (cx - r_cells) and x1 = Int.min (t.cols - 1) (cx + r_cells) in
  let y0 = Int.max 0 (cy - r_cells) and y1 = Int.min (t.rows - 1) (cy + r_cells) in
  for gy = y0 to y1 do
    let base = gy * t.cols in
    row t.start.(base + x0) t.start.(base + x1 + 1)
  done

(** [iter_within t i ~range_m f] — call [f j d] for every node [j <> i]
    with [d = distance i j <= range_m].  Visits candidates cell by cell
    (row-major over the covering ring), ids ascending within a cell. *)
let iter_within t i ~range_m f =
  if range_m > 0.0 then begin
    let x = t.xs.(i) and y = t.ys.(i) in
    let _, hi = sq_band range_m in
    iter_ring t i ~range_m (fun lo_slot hi_slot ->
        for k = lo_slot to hi_slot - 1 do
          let dx = t.sx.(k) -. x and dy = t.sy.(k) -. y in
          if not ((dx *. dx) +. (dy *. dy) > hi) then begin
            let j = t.order.(k) in
            if j <> i then begin
              let d = Float.hypot dx dy in
              if d <= range_m then f j d
            end
          end
        done)
  end

(** [neighbors_within t i ~range_m] — ascending ids within range of [i];
    identical to the brute-force ascending pair scan. *)
let neighbors_within t i ~range_m =
  let acc = ref [] in
  iter_within t i ~range_m (fun j _ -> acc := j :: !acc);
  List.sort Stdlib.compare !acc

(** [degree t i ~range_m] — number of nodes within range of [i].  The
    CSR build runs this once per node, so the bulk of candidates is
    counted branch-free: about half the ring is inside, in no order a
    branch predictor could learn. *)
let degree t i ~range_m =
  let c = ref 0 in
  if range_m > 0.0 then begin
    let x = t.xs.(i) and y = t.ys.(i) in
    let lo, hi = sq_band range_m in
    iter_ring t i ~range_m (fun lo_slot hi_slot ->
        for k = lo_slot to hi_slot - 1 do
          let dx = t.sx.(k) -. x and dy = t.sy.(k) -. y in
          let s = (dx *. dx) +. (dy *. dy) in
          let j = t.order.(k) in
          c := !c + (Bool.to_int (s < lo) land Bool.to_int (j <> i));
          if Bool.to_int (s >= lo) land Bool.to_int (s <= hi) = 1
             && j <> i && Float.hypot dx dy <= range_m
          then incr c
        done)
  end;
  !c

(** [fill_above t i ~range_m ids dists pos] — write the ids [j > i] and
    exact distances of the nodes within range of [i] into [ids] /
    [dists] from slot [pos] on, in {!iter_within} order; returns the
    next free slot. *)
let fill_above t i ~range_m ids dists pos =
  let c = ref pos in
  if range_m > 0.0 then begin
    let x = t.xs.(i) and y = t.ys.(i) in
    let lo, hi = sq_band range_m in
    iter_ring t i ~range_m (fun lo_slot hi_slot ->
        for k = lo_slot to hi_slot - 1 do
          let dx = t.sx.(k) -. x and dy = t.sy.(k) -. y in
          let s = (dx *. dx) +. (dy *. dy) in
          if not (s > hi) then begin
            let j = t.order.(k) in
            if j > i && (s < lo || Float.hypot dx dy <= range_m) then begin
              ids.(!c) <- j;
              dists.(!c) <- Float.hypot dx dy;
              incr c
            end
          end
        done)
  end;
  !c
