(* `ambient` — command-line front end for the toolkit.

   Subcommands:
     graph        print the power-information graph (E1)
     classes      print the device-class table (E28; --keynote for E2)
     classify     classify a power draw into a device class
     experiment   run one or all reconstructed experiments
     case-study   print a case study (A, B, C or D) with its tables
     lifetime     battery/harvester lifetime for a load
     simulate     discrete-event node-lifetime simulation
     map          map the ambient functions onto the smart-home network
     sweep        activation-rate sweep of the reference microwatt node
     system       whole-fleet co-simulation with fault injection
     matrix       declarative scenario grid, resumable via a JSONL store
     serve        resident batch service (JSON requests on stdin)

   Report-producing subcommands take --format text|json|csv; bad
   arguments exit with status 1, a `system` horizon that is not finite
   or exceeds the per-cell cost bound exits with status 2, and so does
   a `matrix` grid over the per-request cost bound. *)

open Cmdliner
open Amb_units

let print_report report = print_string (Amb_core.Report.to_string report)

(* --- output format --- *)

(* Reports are data first, text second: every report-producing subcommand
   takes --format and routes the same typed table through the prose,
   JSON-envelope or CSV renderer. *)
type output_format = Text | Json | Csv

let format_term =
  let doc =
    "Output format: $(b,text) (prose table), $(b,json) (amblib-report/1 envelope) or $(b,csv)."
  in
  Arg.(value
       & opt (enum [ ("text", Text); ("json", Json); ("csv", Csv) ]) Text
       & info [ "format" ] ~docv:"FMT" ~doc)

let emit_report ?id fmt report =
  match fmt with
  | Text -> print_report report
  | Json -> print_string (Amb_core.Report_io.to_json ?id report)
  | Csv -> print_string (Amb_core.Report_io.to_csv report)

(* Several reports in one CSV stream: comment-separated sections. *)
let emit_csv_sections entries =
  List.iteri
    (fun i (id, report) ->
      if i > 0 then print_newline ();
      let title = report.Amb_core.Report.title in
      let already_tagged =
        String.length title > String.length id
        && String.sub title 0 (String.length id) = id
      in
      if already_tagged then Printf.printf "# %s\n" title
      else Printf.printf "# %s: %s\n" id title;
      print_string (Amb_core.Report_io.to_csv report))
    entries

(* --- graph --- *)

let graph_cmd =
  let doc = "Print the power-information graph (experiment E1)." in
  let run fmt = emit_report ~id:"E1" fmt (Amb_core.Experiments.e1 ()) in
  Cmd.v (Cmd.info "graph" ~doc) Term.(const run $ format_term)

(* --- classes --- *)

let classes_cmd =
  let doc =
    "Print the device classes: the keynote's three plus the Ambient-IoT nW tag \
     (experiment E28; $(b,--keynote) restricts to the published E2 table)."
  in
  let keynote =
    Arg.(value & flag
         & info [ "keynote" ] ~doc:"Only the three keynote classes (the published E2 table).")
  in
  let run keynote fmt =
    if keynote then emit_report ~id:"E2" fmt (Amb_core.Experiments.e2 ())
    else emit_report ~id:"E28" fmt (Amb_core.Experiments.e28 ())
  in
  Cmd.v (Cmd.info "classes" ~doc) Term.(const run $ keynote $ format_term)

(* --- classify --- *)

let classify_cmd =
  let doc = "Classify an average power draw (in watts) into a device class." in
  let watts =
    Arg.(required & pos 0 (some float) None & info [] ~docv:"WATTS" ~doc:"average power in watts")
  in
  let run watts =
    let p = Power.watts watts in
    let cls = Amb_core.Device_class.of_power p in
    Printf.printf "%s -> %s\n  energy source: %s\n  design challenge: %s\n"
      (Power.to_string p)
      (Amb_core.Device_class.name cls)
      (Amb_core.Device_class.energy_source cls)
      (Amb_core.Device_class.design_challenge cls)
  in
  Cmd.v (Cmd.info "classify" ~doc) Term.(const run $ watts)

(* --- experiment --- *)

(* Worker-domain count: --jobs beats AMB_JOBS beats sequential.  Output
   is byte-identical at any value (deterministic gather + per-builder
   seeds), so parallelism is safe to enable wherever it helps. *)
let jobs_term =
  let doc = "Build independent experiments on $(docv) worker domains (default: \
             \\$AMB_JOBS, or 1)." in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let resolve_jobs = function
  | Some n when n >= 1 -> n
  | Some n ->
    Printf.eprintf "--jobs expects a positive integer, got %d\n" n;
    exit 1
  | None -> Option.value (Amb_sim.Domain_pool.env_jobs ()) ~default:1

let experiment_cmd =
  let doc = "Run one experiment by id (e.g. E7), or all when no id is given." in
  let id = Arg.(value & pos 0 (some string) None & info [] ~docv:"ID") in
  let run id jobs fmt =
    match id with
    | None -> (
      let results = Amb_core.Experiments.run_all ~jobs:(resolve_jobs jobs) () in
      match fmt with
      | Text ->
        List.iter
          (fun (eid, desc, report) ->
            Printf.printf "=== %s — %s ===\n" eid desc;
            print_report report)
          results
      | Json -> print_string (Amb_core.Report_io.set_to_json results)
      | Csv -> emit_csv_sections (List.map (fun (eid, _, report) -> (eid, report)) results))
    | Some id -> (
      match Amb_core.Experiments.find id with
      | Some (eid, _, build) -> emit_report ~id:eid fmt (build ())
      | None ->
        Printf.eprintf "unknown experiment %s; known: %s\n" id
          (String.concat ", " (List.map (fun (e, _, _) -> e) Amb_core.Experiments.all));
        exit 1)
  in
  Cmd.v (Cmd.info "experiment" ~doc) Term.(const run $ id $ jobs_term $ format_term)

(* --- case-study --- *)

let case_study_cmd =
  let doc = "Print a reconstructed case study: A (uW), B (mW), C (W) or D (nW tag fleet)." in
  let id = Arg.(required & pos 0 (some string) None & info [] ~docv:"A|B|C|D") in
  let run id fmt =
    match Amb_core.Case_study.find id with
    | Some cs -> (
      match fmt with
      | Text -> print_string (Amb_core.Case_study.render cs)
      | Json -> print_string (Amb_core.Case_study.to_json cs)
      | Csv -> emit_csv_sections (Amb_core.Case_study.reports_with_ids cs))
    | None ->
      Printf.eprintf "unknown case study %s (use A, B, C or D)\n" id;
      exit 1
  in
  Cmd.v (Cmd.info "case-study" ~doc) Term.(const run $ id $ format_term)

(* --- lifetime --- *)

let battery_of_name name =
  match Amb_energy.Battery.find name with
  | Some b -> b
  | None -> (
    match String.lowercase_ascii name with
    | "cr2032" | "coin" -> Amb_energy.Battery.cr2032
    | "aa" -> Amb_energy.Battery.two_aa_alkaline
    | "liion" | "li-ion" -> Amb_energy.Battery.liion_phone
    | "lipo" -> Amb_energy.Battery.lipo_wearable
    | _ ->
      Printf.eprintf "unknown battery %s (cr2032, aa, liion, lipo)\n" name;
      exit 1)

let environment_of_name name =
  match
    List.find_opt
      (fun e -> e.Amb_energy.Harvester.name = name)
      Amb_energy.Harvester.environments
  with
  | Some e -> Some e
  | None -> (
    match String.lowercase_ascii name with
    | "office" -> Some Amb_energy.Harvester.office_indoor
    | "home" -> Some Amb_energy.Harvester.home_living_room
    | "outdoor" -> Some Amb_energy.Harvester.outdoor_daylight
    | "industrial" -> Some Amb_energy.Harvester.industrial_machinery
    | "body" -> Some Amb_energy.Harvester.on_body
    | "none" -> None
    | _ ->
      Printf.eprintf "unknown environment %s (office, home, outdoor, industrial, body, none)\n"
        name;
      exit 1)

let lifetime_cmd =
  let doc = "Lifetime of a battery (plus optional PV harvester) under an average load." in
  let load_uw =
    Arg.(required & opt (some float) None & info [ "load-uw" ] ~docv:"UW" ~doc:"average load, uW")
  in
  let battery =
    Arg.(value & opt string "cr2032" & info [ "battery" ] ~docv:"NAME" ~doc:"cr2032, aa, liion, lipo")
  in
  let pv_cm2 =
    Arg.(value & opt float 0.0 & info [ "pv-cm2" ] ~docv:"CM2" ~doc:"solar cell area (0 = none)")
  in
  let env =
    Arg.(value & opt string "office" & info [ "env" ] ~docv:"ENV" ~doc:"harvesting environment")
  in
  let run load_uw battery pv_cm2 env =
    let b = battery_of_name battery in
    let load = Power.microwatts load_uw in
    let supply =
      if pv_cm2 > 0.0 then
        match environment_of_name env with
        | Some e ->
          let cell =
            Amb_energy.Harvester.Photovoltaic
              { area = Area.square_centimetres pv_cm2; efficiency = 0.05 }
          in
          Amb_energy.Supply.harvester_and_battery ~name:"pv+battery" cell e b
        | None -> Amb_energy.Supply.battery_only ~name:battery b
      else Amb_energy.Supply.battery_only ~name:battery b
    in
    let verdict = Amb_energy.Lifetime.evaluate supply load in
    Printf.printf "battery: %s\nload:    %s\nincome:  %s\nverdict: %s\n" b.Amb_energy.Battery.name
      (Power.to_string load)
      (Power.to_string (Amb_energy.Supply.harvest_income supply))
      (Amb_energy.Lifetime.verdict_to_string verdict)
  in
  Cmd.v (Cmd.info "lifetime" ~doc) Term.(const run $ load_uw $ battery $ pv_cm2 $ env)

(* --- simulate --- *)

let simulate_cmd =
  let doc = "Discrete-event lifetime simulation of the reference microwatt node." in
  let rate =
    Arg.(value & opt float (1.0 /. 30.0)
         & info [ "rate" ] ~docv:"HZ" ~doc:"activation rate, events/s")
  in
  let days =
    Arg.(value & opt float 30.0 & info [ "days" ] ~docv:"DAYS" ~doc:"simulation horizon")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED") in
  let poisson =
    Arg.(value & flag & info [ "poisson" ] ~doc:"Poisson activations instead of periodic")
  in
  let harvest = Arg.(value & flag & info [ "harvest" ] ~doc:"include the PV harvester") in
  let run rate days seed poisson harvest =
    let node = Amb_node.Reference_designs.microwatt_node () in
    let act = Amb_node.Reference_designs.microwatt_activation in
    let profile = Amb_node.Node_model.duty_profile node act in
    let supply =
      if harvest then node.Amb_node.Node_model.supply
      else Amb_energy.Supply.battery_only ~name:"cr2032" Amb_energy.Battery.cr2032
    in
    let traffic =
      if poisson then Amb_workload.Traffic.poisson rate
      else Amb_workload.Traffic.periodic (Time_span.seconds (1.0 /. rate))
    in
    let cfg =
      Amb_node.Lifetime_sim.config ~profile ~supply ~activation_traffic:traffic
        ~horizon:(Time_span.days days) ()
    in
    let o = Amb_node.Lifetime_sim.run cfg ~seed in
    Printf.printf
      "lifetime:    %s%s\nactivations: %d\nconsumed:    %s\nharvested:   %s\navg power:   %s\n"
      (Time_span.to_human_string o.Amb_node.Lifetime_sim.lifetime)
      (if o.Amb_node.Lifetime_sim.died then " (battery exhausted)" else " (horizon reached)")
      o.Amb_node.Lifetime_sim.activations
      (Energy.to_string o.Amb_node.Lifetime_sim.energy_consumed)
      (Energy.to_string o.Amb_node.Lifetime_sim.energy_harvested)
      (Power.to_string o.Amb_node.Lifetime_sim.average_power)
  in
  Cmd.v (Cmd.info "simulate" ~doc) Term.(const run $ rate $ days $ seed $ poisson $ harvest)

(* --- map --- *)

let map_cmd =
  let doc = "Map the standard ambient functions onto the smart-home device network (E10)." in
  let run fmt = emit_report ~id:"E10" fmt (Amb_core.Experiments.e10 ()) in
  Cmd.v (Cmd.info "map" ~doc) Term.(const run $ format_term)

(* --- design-space --- *)

let design_space_cmd =
  let doc = "Explore node designs for the autonomous-sensing mission (E22)." in
  let rate =
    Arg.(value & opt float (1.0 /. 30.0)
         & info [ "rate" ] ~docv:"HZ" ~doc:"activation rate, events/s")
  in
  let years =
    Arg.(value & opt float 5.0 & info [ "years" ] ~docv:"Y" ~doc:"required unattended lifetime")
  in
  let env =
    Arg.(value & opt string "office" & info [ "env" ] ~docv:"ENV" ~doc:"harvesting environment")
  in
  let run rate years env fmt =
    let environment =
      match environment_of_name env with
      | Some e -> e
      | None ->
        (* "none" parses (the lifetime command accepts it) but the design
           space needs a harvesting environment — reject rather than
           silently exploring a different mission. *)
        Printf.eprintf "design-space requires a harvesting environment (got %s)\n" env;
        exit 1
    in
    if rate <= 0.0 || years <= 0.0 then begin
      Printf.eprintf "--rate and --years must be positive (got %g, %g)\n" rate years;
      exit 1
    end;
    let mission =
      Amb_core.Design_space.mission ~name:"autonomous sensing" ~environment
        ~activation:Amb_node.Reference_designs.microwatt_activation ~rate
        ~lifetime_target:(Time_span.years years)
        ~class_limit:Amb_core.Device_class.Microwatt ()
    in
    emit_report ~id:"E22" fmt (Amb_core.Design_space.to_report mission);
    if fmt = Text then
      match Amb_core.Design_space.best mission with
      | Some v ->
        Printf.printf "\nrecommended: %s (%s average)\n"
          v.Amb_core.Design_space.candidate.Amb_core.Design_space.label
          (Power.to_string v.Amb_core.Design_space.average_power)
      | None -> print_endline "\nno feasible design for this mission"
  in
  Cmd.v (Cmd.info "design-space" ~doc) Term.(const run $ rate $ years $ env $ format_term)

(* --- sweep --- *)

let sweep_cmd =
  let doc =
    "Sweep the activation rate of the reference microwatt node: average power, analytic \
     lifetime and supply verdict at log-spaced rates."
  in
  let min_rate =
    Arg.(value & opt float 1e-3 & info [ "min-rate" ] ~docv:"HZ" ~doc:"lowest activation rate, events/s")
  in
  let max_rate =
    Arg.(value & opt float 10.0 & info [ "max-rate" ] ~docv:"HZ" ~doc:"highest activation rate, events/s")
  in
  let points =
    Arg.(value & opt int 9 & info [ "points" ] ~docv:"N" ~doc:"number of sweep points")
  in
  let battery =
    Arg.(value & opt string "cr2032" & info [ "battery" ] ~docv:"NAME" ~doc:"cr2032, aa, liion, lipo")
  in
  let pv_cm2 =
    Arg.(value & opt float 0.0 & info [ "pv-cm2" ] ~docv:"CM2" ~doc:"solar cell area (0 = none)")
  in
  let env =
    Arg.(value & opt string "office" & info [ "env" ] ~docv:"ENV" ~doc:"harvesting environment")
  in
  let run min_rate max_rate points battery pv_cm2 env fmt =
    if min_rate <= 0.0 || max_rate < min_rate then begin
      Printf.eprintf "need 0 < --min-rate <= --max-rate (got %g, %g)\n" min_rate max_rate;
      exit 1
    end;
    if points < 2 then begin
      Printf.eprintf "--points must be at least 2, got %d\n" points;
      exit 1
    end;
    let b = battery_of_name battery in
    let supply =
      if pv_cm2 > 0.0 then
        match environment_of_name env with
        | Some e ->
          let cell =
            Amb_energy.Harvester.Photovoltaic
              { area = Area.square_centimetres pv_cm2; efficiency = 0.05 }
          in
          Amb_energy.Supply.harvester_and_battery ~name:"pv+battery" cell e b
        | None -> Amb_energy.Supply.battery_only ~name:battery b
      else Amb_energy.Supply.battery_only ~name:battery b
    in
    let node =
      { (Amb_node.Reference_designs.microwatt_node ()) with Amb_node.Node_model.supply }
    in
    let act = Amb_node.Reference_designs.microwatt_activation in
    let ratio = max_rate /. min_rate in
    let rates =
      List.init points (fun i ->
          min_rate *. (ratio ** (float_of_int i /. float_of_int (points - 1))))
    in
    let rows =
      List.map
        (fun rate ->
          let avg = Amb_node.Node_model.average_power node act ~rate in
          let lifetime = Amb_node.Node_model.lifetime node act ~rate in
          let verdict = Amb_energy.Lifetime.evaluate supply avg in
          [ Amb_core.Report.cell_float ~digits:4 rate;
            Amb_core.Report.cell_power avg;
            Amb_core.Report.cell_time lifetime;
            Amb_core.Report.cell_text (Amb_energy.Lifetime.verdict_to_string verdict) ])
        rates
    in
    let report =
      Amb_core.Report.make
        ~title:
          (Printf.sprintf "Activation-rate sweep: microwatt node on %s%s" b.Amb_energy.Battery.name
             (if pv_cm2 > 0.0 then Printf.sprintf " + %g cm^2 PV (%s)" pv_cm2 env else ""))
        ~header:[ "rate (/s)"; "avg power"; "lifetime"; "verdict" ]
        ~notes:
          [ Printf.sprintf "%d log-spaced rates in [%g, %g] /s; analytic duty-cycle model" points
              min_rate max_rate ]
        rows
    in
    emit_report ~id:"SWEEP" fmt report
  in
  Cmd.v
    (Cmd.info "sweep" ~doc)
    Term.(const run $ min_rate $ max_rate $ points $ battery $ pv_cm2 $ env $ format_term)

(* --- system --- *)

(* Fault specs arrive as compact strings so scenarios fit on one command
   line; each maps to one Fault_plan constructor. *)
let fault_of_spec spec =
  let parsed =
    try
      Some
        (Scanf.sscanf spec "crash:%d@%f%!" (fun node h ->
             Amb_system.Fault_plan.Node_crash { node; at = Time_span.hours h }))
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> (
      try
        Some
          (Scanf.sscanf spec "fade:%d-%d:%f@%f%!" (fun a b db h ->
               Amb_system.Fault_plan.Link_fade { a; b; db; at = Time_span.hours h }))
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> (
        try
          Some
            (Scanf.sscanf spec "bscale:%d:%f%!" (fun node scale ->
                 Amb_system.Fault_plan.Battery_scale { node; scale }))
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> None))
  in
  match parsed with
  | Some f -> f
  | None ->
    Printf.eprintf
      "bad fault spec %s (want crash:NODE@HOURS, fade:A-B:DB@HOURS or bscale:NODE:SCALE)\n" spec;
    exit 1

let check_fault_nodes ~node_count fault =
  let check n =
    if n < 0 || n >= node_count then begin
      Printf.eprintf "fault references node %d but the fleet has nodes 0..%d\n" n (node_count - 1);
      exit 1
    end
  in
  (match fault with
  | Amb_system.Fault_plan.Node_crash { node; _ } -> check node
  | Amb_system.Fault_plan.Link_fade { a; b; _ } ->
    check a;
    check b;
    if a = b then begin
      Printf.eprintf "fade needs two distinct endpoints, got %d-%d\n" a b;
      exit 1
    end
  | Amb_system.Fault_plan.Battery_scale { node; scale } ->
    check node;
    if scale <= 0.0 then begin
      Printf.eprintf "battery scale must be positive, got %g\n" scale;
      exit 1
    end);
  fault

let diurnal_of_name name =
  match String.lowercase_ascii name with
  | "office" -> Some Amb_energy.Day_profile.office_lighting
  | "living-room" | "living_room" | "home" -> Some Amb_energy.Day_profile.living_room_lighting
  | "outdoor" -> Some Amb_energy.Day_profile.outdoor_diurnal
  | "constant" -> Some Amb_energy.Day_profile.constant
  | "none" -> None
  | _ ->
    Printf.eprintf "unknown diurnal profile %s (office, living-room, outdoor, constant, none)\n"
      name;
    exit 1

let system_cmd =
  let doc =
    "Whole-fleet co-simulation on one clock: a W sink, mW relays, uW leaves and (optionally) \
     batteryless nW backscatter tags trade packets while their batteries drain, harvest and \
     die; faults are injectable."
  in
  let leaves =
    Arg.(value & opt int 30 & info [ "leaves" ] ~docv:"N" ~doc:"number of uW sensor leaves")
  in
  let relays =
    Arg.(value & opt int 4 & info [ "relays" ] ~docv:"N" ~doc:"number of mW relays on the inner ring")
  in
  let tags =
    Arg.(value & opt int 0
         & info [ "tags" ] ~docv:"N"
             ~doc:"number of batteryless nW backscatter tags served by the W-node sink")
  in
  let hours =
    Arg.(value & opt float 48.0 & info [ "hours" ] ~docv:"H" ~doc:"simulation horizon in hours")
  in
  let seed = Arg.(value & opt int 25 & info [ "seed" ] ~docv:"SEED" ~doc:"layout and phase seed") in
  let policy =
    let doc = "Routing policy: $(b,min-hop), $(b,min-energy) or $(b,max-lifetime)." in
    Arg.(value
         & opt
             (enum
                [ ("min-hop", Amb_net.Routing.Min_hop);
                  ("min-energy", Amb_net.Routing.Min_energy);
                  ("max-lifetime", Amb_net.Routing.Max_lifetime) ])
             Amb_net.Routing.Min_energy
         & info [ "policy" ] ~docv:"POLICY" ~doc)
  in
  let budget =
    Arg.(value & opt float 0.5
         & info [ "leaf-budget-j" ] ~docv:"J"
             ~doc:"usable leaf energy buffer in joules (0 = the full coin-cell model)")
  in
  let diurnal =
    Arg.(value & opt string "office"
         & info [ "diurnal" ] ~docv:"ENV"
             ~doc:"harvest profile: office, living-room, outdoor, constant or none")
  in
  let faults =
    Arg.(value & opt_all string []
         & info [ "fault" ] ~docv:"SPEC"
             ~doc:
               "Inject a fault (repeatable): $(b,crash:NODE\\@HOURS), \
                $(b,fade:A-B:DB\\@HOURS) or $(b,bscale:NODE:SCALE).")
  in
  let run leaves relays tags hours seed policy budget diurnal fault_specs fmt =
    if leaves < 0 || relays < 0 || tags < 0 || leaves + tags < 1 then begin
      Printf.eprintf
        "need non-negative counts with at least one leaf or tag (got %d leaves, %d relays, %d tags)\n"
        leaves relays tags;
      exit 1
    end;
    (* A horizon that could never finish (NaN, infinite, or beyond the
       matrix's per-cell cost bound) is refused before anything is
       built, with its own exit status. *)
    let nodes = leaves + relays + tags + 1 in
    let bound = Amb_harness.Matrix.max_cost_node_hours in
    if not (Float.is_finite hours && Float.of_int nodes *. hours <= bound) then begin
      Printf.eprintf "--hours %g: the run must be finite and at most %g node-hours (%d nodes)\n"
        hours bound nodes;
      exit 2
    end;
    if hours <= 0.0 || budget < 0.0 then begin
      Printf.eprintf "--hours must be positive and --leaf-budget-j non-negative (got %g, %g)\n"
        hours budget;
      exit 1
    end;
    let leaf =
      let base = Amb_system.Fleet.microwatt_leaf () in
      if budget > 0.0 then
        { base with Amb_system.Fleet.budget_override = Some (Energy.joules budget) }
      else base
    in
    let fleet = Amb_system.Fleet.make ~leaf ~leaves ~relays ~tags ~seed () in
    let node_count = Amb_system.Fleet.node_count fleet in
    let faults =
      List.map (fun spec -> check_fault_nodes ~node_count (fault_of_spec spec)) fault_specs
    in
    let cfg =
      Amb_system.Cosim.config ~policy ?diurnal:(diurnal_of_name diurnal) ~faults ~fleet
        ~horizon:(Time_span.hours hours) ()
    in
    let o = Amb_system.Cosim.run cfg ~seed in
    let title =
      if tags = 0 then
        Printf.sprintf "Fleet co-simulation: %d leaves, %d relays, %.0f h, %s routing, seed %d"
          leaves relays hours (Amb_net.Routing.policy_name policy) seed
      else
        Printf.sprintf
          "Fleet co-simulation: %d leaves, %d relays, %d tags, %.0f h, %s routing, seed %d"
          leaves relays tags hours (Amb_net.Routing.policy_name policy) seed
    in
    emit_report ~id:"SYSTEM" fmt (Amb_system.System_metrics.report ~title fleet o)
  in
  Cmd.v
    (Cmd.info "system" ~doc)
    Term.(const run $ leaves $ relays $ tags $ hours $ seed $ policy $ budget $ diurnal $ faults
          $ format_term)

(* --- matrix / serve --- *)

let load_store = function
  | None -> Amb_harness.Result_store.in_memory ()
  | Some path -> (
    match Amb_harness.Result_store.load path with
    | Ok store -> store
    | Error msg ->
      Printf.eprintf "cannot load store: %s\n" msg;
      exit 1)

let store_term =
  Arg.(value & opt (some string) None
       & info [ "store" ] ~docv:"FILE"
           ~doc:"Append-only JSONL result store; completed cells found in it are \
                 served from cache, new rows are appended (resumable).")

let matrix_cmd =
  let doc = "Run a declarative scenario grid (spec file) on the domain pool." in
  let man =
    [ `S Manpage.s_description;
      `P "Reads a $(b,key = value) scenario spec (comma-separated alternatives \
          per axis, seeds innermost), expands the cross product, and runs one \
          co-simulation per cell, longest-expected-first.  Each cell emits one \
          amblib-matrix-row/1 JSON line carrying its config digest and the \
          amblib report digest; cells already present in $(b,--store) are \
          answered from it, so an interrupted run resumes where it stopped and \
          the merged store is byte-identical to an uninterrupted one." ]
  in
  let spec_arg =
    Arg.(required & opt (some string) None
         & info [ "spec" ] ~docv:"FILE" ~doc:"Scenario spec file ($(b,-) for stdin).")
  in
  let expect_cached =
    Arg.(value & flag
         & info [ "expect-cached" ]
             ~doc:"Exit 1 unless every cell was served from the store (the \
                   matrix-smoke second pass).")
  in
  let run spec_path store_path jobs expect_cached fmt =
    let text =
      match spec_path with
      | "-" -> In_channel.input_all stdin
      | path -> (
        match In_channel.with_open_bin path In_channel.input_all with
        | text -> text
        | exception Sys_error msg ->
          Printf.eprintf "cannot read spec: %s\n" msg;
          exit 1)
    in
    let spec =
      match Amb_harness.Scenario_spec.parse text with
      | Ok spec -> spec
      | Error msg ->
        Printf.eprintf "bad spec: %s\n" msg;
        exit 1
    in
    (match Amb_harness.Matrix.check_request spec with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "spec refused: %s\n" msg;
      exit 2);
    let store = load_store store_path in
    let rows, stats =
      Amb_harness.Matrix.execute ~jobs:(resolve_jobs jobs) ~store spec
    in
    Amb_harness.Result_store.close store;
    (match fmt with
    | Json ->
      (* The run summary as one amblib-matrix-run/1 object, rows inline. *)
      let b = Buffer.create 4096 in
      Buffer.add_string b
        (Printf.sprintf
           "{\"schema\":\"amblib-matrix-run/1\",\"cells\":%d,\"ran\":%d,\"cached\":%d,\
            \"errors\":%d,\"rows\":["
           stats.Amb_harness.Matrix.cells stats.Amb_harness.Matrix.ran
           stats.Amb_harness.Matrix.cached stats.Amb_harness.Matrix.errors);
      Array.iteri
        (fun i (_, line, _) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b line)
        rows;
      Buffer.add_string b "]}\n";
      print_string (Buffer.contents b)
    | Text | Csv ->
      Array.iter
        (fun (cell, line, origin) ->
          let status =
            match Amb_harness.Result_store.entry_of_line line with
            | Ok e -> e.Amb_harness.Result_store.status
            | Error _ -> "error"
          in
          Printf.printf "%s seed %-6d %-5s %s\n"
            (String.sub (Amb_harness.Matrix.config_digest cell) 0 8)
            cell.Amb_harness.Matrix.seed status
            (match origin with
            | Amb_harness.Matrix.Hit -> "(cached)"
            | Amb_harness.Matrix.Ran | Amb_harness.Matrix.Failed -> "(ran)"))
        rows;
      Printf.printf "matrix: %d cells, %d ran, %d cached, %d errors\n"
        stats.Amb_harness.Matrix.cells stats.Amb_harness.Matrix.ran
        stats.Amb_harness.Matrix.cached stats.Amb_harness.Matrix.errors);
    if expect_cached && stats.Amb_harness.Matrix.ran > 0 then begin
      Printf.eprintf "--expect-cached: %d cells were not in the store\n"
        stats.Amb_harness.Matrix.ran;
      exit 1
    end
  in
  Cmd.v (Cmd.info "matrix" ~doc ~man)
    Term.(const run $ spec_arg $ store_term $ jobs_term $ expect_cached $ format_term)

let serve_cmd =
  let doc = "Resident batch service: one JSON request per line on stdin." in
  let man =
    [ `S Manpage.s_description;
      `P "Reads amblib-serve/1 requests (one JSON object per line) from stdin \
          and answers each on stdout: $(b,ping), $(b,stats), $(b,quit), and \
          $(b,run) with scenario axes as members.  Grids run on a resident \
          domain pool and results are cached by (config digest, seed) — \
          backed by $(b,--store) when given — so repeated queries never \
          recompute.  Malformed requests get an error response; the loop \
          only ends on quit or end of input." ]
  in
  let run store_path jobs =
    let jobs = resolve_jobs jobs in
    let store = load_store store_path in
    let finish server =
      Amb_harness.Serve.serve server stdin stdout;
      Amb_harness.Result_store.close store
    in
    if jobs > 1 then
      Amb_sim.Domain_pool.with_pool ~jobs (fun pool ->
          finish (Amb_harness.Serve.create ~pool ~jobs ~store ()))
    else finish (Amb_harness.Serve.create ~jobs ~store ())
  in
  Cmd.v (Cmd.info "serve" ~doc ~man) Term.(const run $ store_term $ jobs_term)

(* --- roadmap --- *)

let roadmap_cmd =
  let doc = "Print the ten-year silicon/vision timeline (E23)." in
  let run fmt = emit_report ~id:"E23" fmt (Amb_core.Experiments.e23 ()) in
  Cmd.v (Cmd.info "roadmap" ~doc) Term.(const run $ format_term)

(* --- full-report --- *)

let full_report_cmd =
  let doc = "Render the whole reproduction (case studies + all experiments) as one document." in
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"write to FILE instead of stdout")
  in
  let run output jobs =
    let buffer = Buffer.create 65536 in
    Buffer.add_string buffer
      "# amblib reproduction report\n\n\
       Reconstruction of \"IC Design Challenges for Ambient Intelligence\"\n\
       (Aarts & Roovers, DATE 2003).  See DESIGN.md for the substitution\n\
       rationale and EXPERIMENTS.md for expected-shape vs measured.\n\n";
    List.iter
      (fun cs -> Buffer.add_string buffer (Amb_core.Case_study.render cs ^ "\n"))
      Amb_core.Case_study.all;
    Buffer.add_string buffer "# All experiments\n\n";
    List.iter
      (fun (id, desc, report) ->
        Buffer.add_string buffer (Printf.sprintf "<!-- %s: %s -->\n" id desc);
        Buffer.add_string buffer (Amb_core.Report.to_string report ^ "\n"))
      (Amb_core.Experiments.run_all ~jobs:(resolve_jobs jobs) ());
    match output with
    | None -> print_string (Buffer.contents buffer)
    | Some path -> (
      match open_out path with
      | oc ->
        output_string oc (Buffer.contents buffer);
        close_out oc;
        Printf.printf "wrote %s (%d bytes)\n" path (Buffer.length buffer)
      | exception Sys_error msg ->
        Printf.eprintf "cannot write %s: %s\n" path msg;
        exit 1)
  in
  Cmd.v (Cmd.info "full-report" ~doc) Term.(const run $ output $ jobs_term)

let main_cmd =
  let doc = "ambient-intelligence IC design exploration toolkit" in
  let info = Cmd.info "ambient" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ graph_cmd; classes_cmd; classify_cmd; experiment_cmd; case_study_cmd; lifetime_cmd;
      simulate_cmd; map_cmd; design_space_cmd; sweep_cmd; system_cmd; matrix_cmd;
      serve_cmd; roadmap_cmd; full_report_cmd ]

(* cmdliner reports its own parse errors with exit 124; fold every
   failure to 1 so callers see one error status for any bad argument. *)
let () = exit (match Cmd.eval main_cmd with 0 -> 0 | _ -> 1)
