(** Declarative scenario-grid specs for the matrix harness.

    A spec is a flat `key = value` file (one pair per line, [#] comments,
    blank lines ignored); every key's value is a comma-separated list of
    alternatives and the scenario grid is the cross product of all axes,
    with seeds varying innermost.  Axes:

    {v
    name          = demo                         # grid label (single value)
    leaves        = 8, 16                        # uW sensor-leaf counts
    relays        = 2                            # mW relay counts
    tags          = 0                            # batteryless nW tag counts
    hours         = 12                           # simulation horizons
    policy        = min-energy, min-hop          # routing policies
    link          = cached                       # off | cached | mac | mac:SECONDS
    diurnal       = office                       # office | living-room | outdoor | constant | none
    leaf-budget-j = 0.5                          # 0 = the full coin-cell model
    fault         = none, crash:3@2+fade:1-2:20@4  # `+`-joined plans, comma-separated
    seeds         = 1..4, 10                     # ints and inclusive ranges
    v}

    Missing keys take the `ambient system` defaults.  Duplicate seeds
    collapse to one cell; an inverted range ([5..4]) contributes no
    seeds, which is the legal way to write a zero-cell grid.  Every
    malformed line yields [Error] with the line number — the CLI maps
    that to exit 1. *)

open Amb_net

type fault_spec =
  | Crash of { node : int; at_h : float }
  | Fade of { a : int; b : int; db : float; at_h : float }
  | Bscale of { node : int; scale : float }
      (** the `ambient system --fault` constructors, instants in hours *)

type link_mode =
  | Off
  | Cached
  | Mac of float  (** preamble-sampling MAC at this wake-up interval, seconds *)

type t = {
  name : string;
  leaves : int list;
  relays : int list;
  tags : int list;
  hours : float list;
  policies : Routing.policy list;
  links : link_mode list;
  diurnals : string list;  (** validated profile names, ["none"] for no harvest *)
  budgets_j : float list;
  fault_plans : (string * fault_spec list) list;  (** (canonical text, faults) *)
  seeds : int list;  (** deduplicated, first-occurrence order *)
}

val default : t
(** The one-cell grid of `ambient system`'s defaults (30 leaves, 4
    relays, 48 h, min-energy, cached links, office diurnal, 0.5 J leaf
    buffers, no faults, seed 25). *)

val max_cells : int
(** Expansion cap (100k cells); larger grids are rejected at parse
    time. *)

val max_item_bytes : int
(** 256: the longest name or axis item accepted, counted after trimming.
    A longer one is an [Error] naming the key and the length. *)

val cell_count : t -> int

val parse : string -> (t, string) result
(** Parse a spec document.  Unknown keys, duplicate keys, malformed
    values and over-cap grids all yield [Error] with the line number. *)

val parse_kv : (string * string) list -> (t, string) result
(** The same validation over pre-split pairs — the `ambient serve`
    request path, where the axes arrive as JSON object members. *)

val to_lines : t -> string list
(** The spec back as canonical `key = value` lines ([parse] accepts
    them verbatim). *)

val fault_str : fault_spec -> string
val plan_str : fault_spec list -> string
(** Canonical fault-plan text ("none" for the empty plan). *)

val link_str : link_mode -> string

val float_str : float -> string
(** The canonical number rendering used by {!to_lines} and the config
    digests: the shortest of [%g], [%.15g], [%.16g] and [%.17g] that
    [float_of_string] reads back to the same float, so distinct values
    never share a rendering. *)

val diurnal_names : string list
