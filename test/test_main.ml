let () =
  Alcotest.run "cbmf"
    (List.concat
       [ Test_vec.suite;
         Test_mat.suite;
         Test_chol.suite;
         Test_qr.suite;
         Test_complex.suite;
         Test_prob.suite;
         Test_basis.suite;
         Test_circuit.suite;
         Test_mna.suite;
         Test_testbench.suite;
         Test_model.suite;
         Test_core.suite;
         Test_parallel.suite;
         Test_robust.suite;
         Test_serve.suite;
         Test_synthetic.suite;
         Test_recovery.suite;
         Test_engine_stress.suite;
         Test_posterior_oracle.suite;
         Test_active.suite;
         Test_frontend_oracle.suite;
         Test_fuzz.suite;
         Test_integration.suite ])
