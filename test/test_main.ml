(* Aggregated test runner. Suites live one per module; each exposes
   [suite : string * unit Alcotest.test_case list]. *)

let () =
  Alcotest.run "rme"
    [
      Test_bitword.suite;
      Test_util.suite;
      Test_bitset.suite;
      Test_json.suite;
      Test_memory.suite;
      Test_cache_diff.suite;
      Test_snapshot.suite;
      Test_prog.suite;
      Test_harness.suite;
      Test_harness_diff.suite;
      Test_checker.suite;
      Test_locks.suite;
      Test_locks_crash.suite;
      Test_system_crash.suite;
      Test_km.suite;
      Test_partite.suite;
      Test_lemmas.suite;
      Test_hiding.suite;
      Test_machine.suite;
      Test_adversary.suite;
      Test_schedule.suite;
      Test_experiments.suite;
      Test_tables.suite;
      Test_trace.suite;
      Test_parallel.suite;
      Test_resilience.suite;
      Test_cli.suite;
    ]
