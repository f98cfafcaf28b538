let () =
  Alcotest.run "vmht"
    [
      ("util", Test_util.suite);
      ("sim", Test_sim.suite);
      ("par", Test_par.suite);
      ("obs", Test_obs.suite);
      ("lang", Test_lang.suite);
      ("inline", Test_inline.suite);
      ("ir", Test_ir.suite);
      ("passes", Test_passes.suite);
      ("licm", Test_licm.suite);
      ("dataflow", Test_dataflow.suite);
      ("hls", Test_hls.suite);
      ("rtl", Test_rtl.suite);
      ("rtl-eval", Test_rtl_eval.suite);
      ("pipeliner", Test_pipeliner.suite);
      ("mem", Test_mem.suite);
      ("vm", Test_vm.suite);
      ("runtime", Test_runtime.suite);
      ("core", Test_core.suite);
      ("isolation", Test_isolation.suite);
      ("system", Test_system.suite);
      ("determinism", Test_determinism.suite);
      ("fault", Test_fault.suite);
    ]
