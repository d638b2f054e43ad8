(** Node placement in a rectangular field (metres).

    Radio-range queries over the positions go through a {!Spatial} grid
    ({!spatial}); {!Routing} builds its in-range rows on one. *)

type position = { x : float; y : float }

type t = {
  width_m : float;
  height_m : float;
  positions : position array;
}

let distance a b = Float.hypot (a.x -. b.x) (a.y -. b.y)

let of_positions ~width_m ~height_m positions =
  if width_m <= 0.0 || height_m <= 0.0 then invalid_arg "Topology.of_positions: non-positive field";
  Array.iter
    (fun p ->
      if p.x < 0.0 || p.x > width_m || p.y < 0.0 || p.y > height_m then
        invalid_arg "Topology.of_positions: node outside field")
    positions;
  { width_m; height_m; positions }

(** [random rng ~nodes ~width_m ~height_m] — uniform random placement. *)
let random rng ~nodes ~width_m ~height_m =
  if nodes <= 0 then invalid_arg "Topology.random: non-positive node count";
  let positions =
    Array.init nodes (fun _ ->
        { x = Amb_sim.Rng.uniform rng 0.0 width_m; y = Amb_sim.Rng.uniform rng 0.0 height_m })
  in
  of_positions ~width_m ~height_m positions

(** [grid ~columns ~rows ~spacing_m] — regular grid, node 0 at the
    origin corner. *)
let grid ~columns ~rows ~spacing_m =
  if columns <= 0 || rows <= 0 then invalid_arg "Topology.grid: non-positive dimensions";
  if spacing_m <= 0.0 then invalid_arg "Topology.grid: non-positive spacing";
  let positions =
    Array.init (columns * rows) (fun i ->
        let c = i mod columns and r = i / columns in
        { x = Float.of_int c *. spacing_m; y = Float.of_int r *. spacing_m })
  in
  of_positions
    ~width_m:(Float.of_int (Stdlib.max 1 (columns - 1)) *. spacing_m)
    ~height_m:(Float.of_int (Stdlib.max 1 (rows - 1)) *. spacing_m)
    positions

(** [star ~leaves ~radius_m] — hub (node 0) surrounded by [leaves] nodes on
    a circle. *)
let star ~leaves ~radius_m =
  if leaves <= 0 then invalid_arg "Topology.star: non-positive leaf count";
  if radius_m <= 0.0 then invalid_arg "Topology.star: non-positive radius";
  let center = { x = radius_m; y = radius_m } in
  let positions =
    Array.init (leaves + 1) (fun i ->
        if i = 0 then center
        else
          let angle = 2.0 *. Float.pi *. Float.of_int (i - 1) /. Float.of_int leaves in
          { x = center.x +. (radius_m *. Float.cos angle);
            y = center.y +. (radius_m *. Float.sin angle) })
  in
  of_positions ~width_m:(2.0 *. radius_m) ~height_m:(2.0 *. radius_m) positions

let node_count topo = Array.length topo.positions
let position topo i = topo.positions.(i)
let pair_distance topo i j = distance topo.positions.(i) topo.positions.(j)

(** [spatial topo ~cell_m] — uniform-grid index over the node positions,
    cell edge ~[cell_m] (callers tie it to the radio range). *)
let spatial topo ~cell_m =
  let n = node_count topo in
  let xs = Array.make n 0.0 and ys = Array.make n 0.0 in
  for i = 0 to n - 1 do
    xs.(i) <- topo.positions.(i).x;
    ys.(i) <- topo.positions.(i).y
  done;
  Spatial.make ~xs ~ys ~width_m:topo.width_m ~height_m:topo.height_m ~cell_m

(** [density topo] — nodes per square metre. *)
let density topo =
  Float.of_int (node_count topo) /. (topo.width_m *. topo.height_m)
