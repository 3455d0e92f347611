(* Resilience: the step budget flags a deliberately deadlocked lock
   instead of hanging. *)

module H = Rme_sim.Harness
module Rmr = Rme_memory.Rmr

let test_step_budget_flags_deadlock () =
  (* The default budget formula must flag a deadlocked lock as timed
     out — never loop. *)
  Alcotest.(check int) "budget formula exposed" (20_000 + (4_000 * 2 * 2))
    (H.default_step_budget ~n:2);
  let cfg = H.default_config ~n:2 ~width:8 Rmr.Cc in
  let r = H.run cfg Test_harness.deadlock_factory in
  Alcotest.(check bool) "flagged timed out" true r.H.timed_out;
  Alcotest.(check bool) "not ok" false r.H.ok;
  Alcotest.(check int) "stopped at the budget" (H.default_step_budget ~n:2) r.H.steps

let suite =
  ( "resilience",
    [
      Alcotest.test_case "harness: step budget flags a deadlocked lock" `Quick
        test_step_budget_flags_deadlock;
    ] )
