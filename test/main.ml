(* Test runner: one alcotest section per library, plus integration and
   property-based suites. *)

let () =
  Alcotest.run "amblib"
    [ ("units", Test_units.suite);
      ("tech", Test_tech.suite);
      ("energy", Test_energy.suite);
      ("circuit", Test_circuit.suite);
      ("sim", Test_sim.suite);
      ("parallel", Test_parallel.suite);
      ("radio", Test_radio.suite);
      ("net", Test_net.suite);
      ("workload", Test_workload.suite);
      ("node", Test_node.suite);
      ("core", Test_core.suite);
      ("extensions", Test_extensions.suite);
      ("extensions2", Test_extensions2.suite);
      ("simulators", Test_simulators.suite);
      ("design space", Test_design_space.suite);
      ("integration", Test_integration.suite);
      ("properties", Test_properties.suite);
      ("properties2", Test_properties2.suite);
      ("coverage", Test_coverage.suite);
      ("coexistence", Test_coexistence.suite);
      ("failure injection", Test_failure_injection.suite);
      ("route repair", Test_route_repair.suite);
      ("system", Test_system.suite);
      ("golden", Test_golden.suite);
      ("report io", Test_report_io.suite);
      ("typed golden", Test_typed_golden.suite);
      ("city scale", Test_city_scale.suite);
      ("forward fast", Test_forward_fast.suite);
      ("harness", Test_harness.suite);
      ("store scan", Test_store_scan.suite);
    ]
