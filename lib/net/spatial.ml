(** Uniform-grid spatial index over node positions (see .mli).

    Buckets are laid out CSR-style in flat arrays (counting sort), so
    building is O(n + cells) with no per-cell allocation.  Node ids
    inside a cell are ascending (the counting sort fills them in id
    order), which keeps the pair order deterministic.  The coordinates
    are copied into slot order beside the ids, and cells of one grid row
    occupy consecutive slots, so the pair kernels scan each grid row of
    a slot's forward half ring as one contiguous slot range.

    Candidates are screened on [dx²+dy²] against [range_m²(1∓1e-9)]:
    a pair clearly inside or outside the disc is decided without a
    square root, and [Float.hypot] runs only inside that thin band (and
    wherever the distance itself is reported).  The band is far wider
    than the few-ulp rounding of either computation, so the accepted set
    is exactly [Float.hypot dx dy <= range_m] — the same [Float.hypot]
    as {!Topology.distance}, giving bit-identical distances to the
    brute-force pair scan. *)

type t = {
  sx : float array;  (** x in slot order: [sx.(k)] is node [order.(k)]'s *)
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
  { sx; sy; cell_m; cols; rows; start; order }

let node_count t = Array.length t.order
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

(* Cells of the ring around a node's cell that can hold a node within
   [range_m] (at least 1; at most the whole grid). *)
let ring_cells t ~range_m =
  let r = Float.ceil (range_m /. t.cell_m) in
  if r < Float.of_int (t.cols + t.rows) then Stdlib.max 1 (int_of_float r) else t.cols + t.rows

(* The cell holding slot [k] (for [0 <= k < n]): the last cell whose
   first slot is at or before [k]; empty cells before it share its
   first slot. *)
let cell_of_slot t k =
  let lo = ref 0 and hi = ref ((t.cols * t.rows) - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.start.(mid) <= k then lo := mid else hi := mid - 1
  done;
  !lo

(* The pair enumeration both kernels below share, written out in each
   so that no closure sits in the inner loop.  For slot [a] in cell
   [(cx, cy)], scanning a slot range cell by cell, the forward half ring
   is the rest of its grid row from slot [a + 1] through cell [cx + r]
   (one contiguous slot range), then grid rows [cy + 1 .. cy + r] over
   cells [cx - r .. cx + r].  Cells of a grid row take consecutive
   slots in [cx] order, so each unordered pair of nodes whose cells lie
   within [r] of each other on both axes is met exactly once, from the
   lower slot when they share a grid row and from the lower row
   otherwise. *)

(** [count_pairs t ~range_m lo hi ~deg ~up] — see the .mli. *)
let count_pairs t ~range_m lo hi ~deg ~up =
  if range_m > 0.0 && lo < hi then begin
    let r = ring_cells t ~range_m in
    let blo, bhi = sq_band range_m in
    let cols = t.cols and start = t.start and order = t.order and sx = t.sx and sy = t.sy in
    let c = ref (cell_of_slot t lo) and k = ref lo in
    while !k < hi do
      while start.(!c + 1) <= !k do incr c done;
      let cx = !c mod cols and cy = !c / cols in
      let x0 = Int.max 0 (cx - r) and x1 = Int.min (cols - 1) (cx + r) in
      let y1 = Int.min (t.rows - 1) (cy + r) in
      let own_end = start.((cy * cols) + x1 + 1) in
      let cell_end = Int.min hi start.(!c + 1) in
      for a = !k to cell_end - 1 do
        let i = order.(a) and x = sx.(a) and y = sy.(a) in
        let di = ref 0 and ui = ref 0 in
        for gy = cy to y1 do
          let b0 = if gy = cy then a + 1 else start.((gy * cols) + x0) in
          let b1 = if gy = cy then own_end else start.((gy * cols) + x1 + 1) in
          for b = b0 to b1 - 1 do
            let dx = sx.(b) -. x and dy = sy.(b) -. y in
            let s = (dx *. dx) +. (dy *. dy) in
            let j = order.(b) in
            (* Branch-free over the bulk: about a third of the half ring
               is inside, in no order a branch predictor could learn;
               only the thin band between [blo] and [bhi] branches. *)
            let acc =
              if Bool.to_int (s >= blo) land Bool.to_int (s <= bhi) = 1 then
                Bool.to_int (Float.hypot dx dy <= range_m)
              else Bool.to_int (s < blo)
            in
            let j_low = Bool.to_int (j < i) in
            di := !di + acc;
            ui := !ui + (acc land (1 - j_low));
            deg.(j) <- deg.(j) + acc;
            up.(j) <- up.(j) + (acc land j_low)
          done
        done;
        deg.(i) <- deg.(i) + !di;
        up.(i) <- up.(i) + !ui
      done;
      k := cell_end
    done
  end

(** [fill_pairs t ~range_m lo hi ~cursor ~ids ~dists] — see the .mli. *)
let fill_pairs t ~range_m lo hi ~cursor ~ids ~dists =
  if range_m > 0.0 && lo < hi then begin
    let r = ring_cells t ~range_m in
    let blo, bhi = sq_band range_m in
    let cols = t.cols and start = t.start and order = t.order and sx = t.sx and sy = t.sy in
    let c = ref (cell_of_slot t lo) and k = ref lo in
    while !k < hi do
      while start.(!c + 1) <= !k do incr c done;
      let cx = !c mod cols and cy = !c / cols in
      let x0 = Int.max 0 (cx - r) and x1 = Int.min (cols - 1) (cx + r) in
      let y1 = Int.min (t.rows - 1) (cy + r) in
      let own_end = start.((cy * cols) + x1 + 1) in
      let cell_end = Int.min hi start.(!c + 1) in
      for a = !k to cell_end - 1 do
        let i = order.(a) and x = sx.(a) and y = sy.(a) in
        for gy = cy to y1 do
          let b0 = if gy = cy then a + 1 else start.((gy * cols) + x0) in
          let b1 = if gy = cy then own_end else start.((gy * cols) + x1 + 1) in
          for b = b0 to b1 - 1 do
            let dx = sx.(b) -. x and dy = sy.(b) -. y in
            let s = (dx *. dx) +. (dy *. dy) in
            if s < blo || (s <= bhi && Float.hypot dx dy <= range_m) then begin
              let j = order.(b) in
              let l = Int.min i j in
              let p = cursor.(l) - 1 in
              ids.(p) <- i + j - l;
              dists.(p) <- Float.hypot dx dy;
              cursor.(l) <- p
            end
          done
        done
      done;
      k := cell_end
    done
  end
