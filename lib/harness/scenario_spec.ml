(** Declarative scenario-grid specs (see .mli for the format contract).

    The parser is hand-rolled on the standard library in the
    {!Amb_report.Report_io} style: no parsing dependency, every failure
    is a [Result.Error] carrying a one-line message with the offending
    line number, and the accepted surface is exactly what {!to_lines}
    can print back.  A spec is a set of axes; the grid is their cross
    product (seeds innermost), expanded by {!Matrix}. *)

open Amb_net

type fault_spec =
  | Crash of { node : int; at_h : float }
  | Fade of { a : int; b : int; db : float; at_h : float }
  | Bscale of { node : int; scale : float }

type link_mode = Off | Cached | Mac of float

type t = {
  name : string;
  leaves : int list;
  relays : int list;
  tags : int list;
  hours : float list;
  policies : Routing.policy list;
  links : link_mode list;
  diurnals : string list;
  budgets_j : float list;
  fault_plans : (string * fault_spec list) list;
  seeds : int list;
}

let diurnal_names = [ "office"; "living-room"; "outdoor"; "constant"; "none" ]

let default =
  {
    name = "scenario";
    leaves = [ 30 ];
    relays = [ 4 ];
    tags = [ 0 ];
    hours = [ 48.0 ];
    policies = [ Routing.Min_energy ];
    links = [ Cached ];
    diurnals = [ "office" ];
    budgets_j = [ 0.5 ];
    fault_plans = [ ("none", []) ];
    seeds = [ 25 ];
  }

(* ------------------------------------------------------------------ *)
(* Canonical rendering — the exact strings the parser accepts, reused
   by the config digest so a cell's identity is its re-parseable
   description. *)

(* The C formatter behind [Printf]'s float conversions, without the
   format parsing. *)
external format_float : string -> float -> string = "caml_format_float"

(* The shortest of %g, %.15g, %.16g and %.17g that reads back to [v]:
   %g alone keeps six significant digits, so 1.0000001 and 1 would
   share a rendering and with it a config digest.  A value %g
   round-trips keeps its %g bytes, so no existing key moves. *)
let float_str v =
  let g = format_float "%g" v in
  if float_of_string g = v then g
  else
    let g15 = format_float "%.15g" v in
    if float_of_string g15 = v then g15
    else
      let g16 = format_float "%.16g" v in
      if float_of_string g16 = v then g16 else format_float "%.17g" v

let fault_str = function
  | Crash { node; at_h } -> Printf.sprintf "crash:%d@%s" node (float_str at_h)
  | Fade { a; b; db; at_h } ->
    Printf.sprintf "fade:%d-%d:%s@%s" a b (float_str db) (float_str at_h)
  | Bscale { node; scale } -> Printf.sprintf "bscale:%d:%s" node (float_str scale)

let plan_str = function
  | [] -> "none"
  | faults -> String.concat "+" (List.map fault_str faults)

let link_str = function
  | Off -> "off"
  | Cached -> "cached"
  | Mac wakeup_s -> Printf.sprintf "mac:%s" (float_str wakeup_s)

(* ------------------------------------------------------------------ *)
(* Scalar parsers                                                      *)

let trim = String.trim

let int_of ~key s =
  match int_of_string_opt (trim s) with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: %S is not an integer" key s)

let count_of ~key s =
  Result.bind (int_of ~key s) (fun v ->
      if v < 0 then Error (Printf.sprintf "%s: %d is negative" key v) else Ok v)

let float_of ~key s =
  match float_of_string_opt (trim s) with
  | Some v when Float.is_finite v -> Ok v
  | Some _ -> Error (Printf.sprintf "%s: %S is not finite" key s)
  | None -> Error (Printf.sprintf "%s: %S is not a number" key s)

let positive_of ~key s =
  Result.bind (float_of ~key s) (fun v ->
      if v <= 0.0 then Error (Printf.sprintf "%s: %g must be positive" key v) else Ok v)

let nonneg_of ~key s =
  Result.bind (float_of ~key s) (fun v ->
      if v < 0.0 then Error (Printf.sprintf "%s: %g is negative" key v) else Ok v)

let policy_of ~key s =
  match trim s with
  | "min-hop" -> Ok Routing.Min_hop
  | "min-energy" -> Ok Routing.Min_energy
  | "max-lifetime" -> Ok Routing.Max_lifetime
  | other ->
    Error
      (Printf.sprintf "%s: unknown policy %S (min-hop, min-energy, max-lifetime)" key other)

let link_of ~key s =
  match trim s with
  | "off" -> Ok Off
  | "cached" -> Ok Cached
  | "mac" -> Ok (Mac 0.5)
  | other when String.length other > 4 && String.sub other 0 4 = "mac:" -> (
    let arg = String.sub other 4 (String.length other - 4) in
    match float_of_string_opt arg with
    | Some w when Float.is_finite w && w > 0.0 -> Ok (Mac w)
    | _ -> Error (Printf.sprintf "%s: mac wake-up %S must be a positive number of seconds" key arg))
  | other -> Error (Printf.sprintf "%s: unknown link mode %S (off, cached, mac, mac:SECONDS)" key other)

let diurnal_of ~key s =
  let v = trim s in
  if List.mem v diurnal_names then Ok v
  else
    Error
      (Printf.sprintf "%s: unknown diurnal profile %S (%s)" key v
         (String.concat ", " diurnal_names))

(* One fault inside a plan, in the `ambient system --fault` syntax. *)
let fault_of ~key s =
  let s = trim s in
  let try_scan fmt f = try Some (Scanf.sscanf s fmt f) with
    | Scanf.Scan_failure _ | Failure _ | End_of_file -> None
  in
  (* The formats' literal prefixes are disjoint, so the one format an
     item can match is the one whose prefix it starts with. *)
  let starts prefix = String.starts_with ~prefix s in
  let parsed =
    if starts "crash:" then try_scan "crash:%d@%f%!" (fun node at_h -> Crash { node; at_h })
    else if starts "fade:" then
      try_scan "fade:%d-%d:%f@%f%!" (fun a b db at_h -> Fade { a; b; db; at_h })
    else if starts "bscale:" then
      try_scan "bscale:%d:%f%!" (fun node scale -> Bscale { node; scale })
    else None
  in
  match parsed with
  | None ->
    Error
      (Printf.sprintf
         "%s: bad fault %S (want crash:NODE@HOURS, fade:A-B:DB@HOURS or bscale:NODE:SCALE)" key s)
  | Some (Crash { node; at_h }) when node < 0 || at_h < 0.0 || not (Float.is_finite at_h) ->
    Error (Printf.sprintf "%s: crash needs a non-negative node and instant, got %S" key s)
  | Some (Fade { a; b; db; at_h })
    when a < 0 || b < 0 || a = b || db < 0.0 || at_h < 0.0
         || not (Float.is_finite db && Float.is_finite at_h) ->
    Error
      (Printf.sprintf "%s: fade needs two distinct non-negative endpoints and non-negative dB/instant, got %S"
         key s)
  | Some (Bscale { node; scale }) when node < 0 || scale <= 0.0 || not (Float.is_finite scale) ->
    Error (Printf.sprintf "%s: bscale needs a non-negative node and positive scale, got %S" key s)
  | Some f -> Ok f

(* A fault plan: `none`, or `+`-separated faults applied together. *)
let plan_of ~key s =
  let s = trim s in
  if s = "none" then Ok ("none", [])
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | piece :: rest -> Result.bind (fault_of ~key piece) (fun f -> go (f :: acc) rest)
    in
    Result.map
      (fun faults -> (plan_str faults, faults))
      (go [] (String.split_on_char '+' s))

(* Seed items: `N` or an `A..B` range (inclusive; empty when A > B, which
   is the legal way to declare a zero-cell grid). *)
let seed_item ~key s =
  let s = trim s in
  match String.index_opt s '.' with
  | Some i
    when i + 1 < String.length s
         && s.[i + 1] = '.'
         && i > 0 ->
    let lo = String.sub s 0 i and hi = String.sub s (i + 2) (String.length s - i - 2) in
    Result.bind (int_of ~key lo) (fun lo ->
        Result.bind (int_of ~key hi) (fun hi ->
            if hi - lo > 100_000 then
              Error (Printf.sprintf "%s: range %d..%d is unreasonably wide" key lo hi)
            else Ok (if hi < lo then [] else List.init (hi - lo + 1) (fun k -> lo + k))))
  | _ -> Result.map (fun v -> [ v ]) (int_of ~key s)

(* ------------------------------------------------------------------ *)
(* Key dispatch                                                        *)

let split_values s = List.map trim (String.split_on_char ',' s)

(* Every item lands in the config digest and the store row (the name
   verbatim), so its length is bounded: a request cannot grow the store
   by what it echoes. *)
let max_item_bytes = 256

let bounded ~key v =
  if String.length v > max_item_bytes then
    Error
      (Printf.sprintf "%s: a value of %d bytes exceeds the %d-byte bound" key (String.length v)
         max_item_bytes)
  else Ok v

let list_of ~key ~item s =
  if trim s = "" then Error (Printf.sprintf "%s: empty value list" key)
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | v :: rest ->
        Result.bind (bounded ~key v) (fun v ->
            Result.bind (item ~key v) (fun x -> go (x :: acc) rest))
    in
    go [] (split_values s)

(* Duplicate seeds collapse to one cell (the store is keyed on
   (config, seed), so re-listing a seed cannot mean anything else). *)
let dedup_ints xs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    xs

let seeds_of ~key s =
  if trim s = "" then Error (Printf.sprintf "%s: empty value list" key)
  else
    let rec go acc = function
      | [] -> Ok (dedup_ints (List.concat (List.rev acc)))
      | v :: rest ->
        Result.bind (bounded ~key v) (fun v ->
            Result.bind (seed_item ~key v) (fun xs -> go (xs :: acc) rest))
    in
    go [] (split_values s)

let apply_key spec key value =
  let ( let* ) = Result.bind in
  match key with
  | "name" ->
    let* v = bounded ~key (trim value) in
    if v = "" then Error "name: empty"
    else if String.exists (fun c -> c = '"' || c = '\\' || Char.code c < 0x20) value then
      Error "name: quotes, backslashes and control characters are not allowed"
    else Ok { spec with name = v }
  | "leaves" ->
    let* v = list_of ~key ~item:count_of value in
    Ok { spec with leaves = v }
  | "relays" ->
    let* v = list_of ~key ~item:count_of value in
    Ok { spec with relays = v }
  | "tags" ->
    let* v = list_of ~key ~item:count_of value in
    Ok { spec with tags = v }
  | "hours" ->
    let* v = list_of ~key ~item:positive_of value in
    Ok { spec with hours = v }
  | "policy" ->
    let* v = list_of ~key ~item:policy_of value in
    Ok { spec with policies = v }
  | "link" ->
    let* v = list_of ~key ~item:link_of value in
    Ok { spec with links = v }
  | "diurnal" ->
    let* v = list_of ~key ~item:diurnal_of value in
    Ok { spec with diurnals = v }
  | "leaf-budget-j" ->
    let* v = list_of ~key ~item:nonneg_of value in
    Ok { spec with budgets_j = v }
  | "fault" ->
    let* v = list_of ~key ~item:plan_of value in
    Ok { spec with fault_plans = v }
  | "seeds" ->
    let* v = seeds_of ~key value in
    Ok { spec with seeds = v }
  | other ->
    Error
      (Printf.sprintf
         "unknown key %S (name, leaves, relays, tags, hours, policy, link, diurnal, \
          leaf-budget-j, fault, seeds)" other)

let cell_count spec =
  List.length spec.leaves * List.length spec.relays * List.length spec.tags
  * List.length spec.hours * List.length spec.policies * List.length spec.links
  * List.length spec.diurnals * List.length spec.budgets_j
  * List.length spec.fault_plans * List.length spec.seeds

let max_cells = 100_000

let validate spec =
  if cell_count spec > max_cells then
    Error (Printf.sprintf "grid has %d cells; the cap is %d" (cell_count spec) max_cells)
  else Ok spec

let parse_kv pairs =
  let rec go spec seen = function
    | [] -> validate spec
    | (key, value) :: rest ->
      if List.mem key seen then Error (Printf.sprintf "duplicate key %S" key)
      else (
        match apply_key spec key value with
        | Ok spec -> go spec (key :: seen) rest
        | Error _ as e -> e)
  in
  go default [] pairs

let parse text =
  let strip_comment line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let rec to_pairs acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      let line = trim (strip_comment line) in
      if line = "" then to_pairs acc (lineno + 1) rest
      else
        match String.index_opt line '=' with
        | None -> Error (Printf.sprintf "line %d: expected `key = value`, got %S" lineno line)
        | Some i ->
          let key = trim (String.sub line 0 i) in
          let value = String.sub line (i + 1) (String.length line - i - 1) in
          if key = "" then Error (Printf.sprintf "line %d: missing key before `=`" lineno)
          else to_pairs ((key, value, lineno) :: acc) (lineno + 1) rest)
  in
  match to_pairs [] 1 (String.split_on_char '\n' text) with
  | Error _ as e -> e
  | Ok pairs ->
    (* Re-run the kv path but keep line numbers in the messages. *)
    let rec go spec seen = function
      | [] -> validate spec
      | (key, value, lineno) :: rest ->
        if List.mem key seen then
          Error (Printf.sprintf "line %d: duplicate key %S" lineno key)
        else (
          match apply_key spec key value with
          | Ok spec -> go spec (key :: seen) rest
          | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
    in
    go default [] pairs

let to_lines spec =
  [
    Printf.sprintf "name = %s" spec.name;
    Printf.sprintf "leaves = %s" (String.concat ", " (List.map string_of_int spec.leaves));
    Printf.sprintf "relays = %s" (String.concat ", " (List.map string_of_int spec.relays));
    Printf.sprintf "tags = %s" (String.concat ", " (List.map string_of_int spec.tags));
    Printf.sprintf "hours = %s" (String.concat ", " (List.map float_str spec.hours));
    Printf.sprintf "policy = %s"
      (String.concat ", " (List.map Routing.policy_name spec.policies));
    Printf.sprintf "link = %s" (String.concat ", " (List.map link_str spec.links));
    Printf.sprintf "diurnal = %s" (String.concat ", " spec.diurnals);
    Printf.sprintf "leaf-budget-j = %s" (String.concat ", " (List.map float_str spec.budgets_j));
    Printf.sprintf "fault = %s" (String.concat ", " (List.map fst spec.fault_plans));
    Printf.sprintf "seeds = %s" (String.concat ", " (List.map string_of_int spec.seeds));
  ]
