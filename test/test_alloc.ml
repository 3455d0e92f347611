(* Allocation guard: minor-heap words allocated per harness step.

   A harness step allocates nothing but the lock program's next
   continuation (Stepper), so words per step measure how a lock's
   program resumes. Each lock program builds one [Prog.Step] per step
   whose continuation is the rest of its body (Prog.K); a return to
   monadic binds, which rewrap the next program once per enclosing
   [let*], roughly doubles the figure and fails these ceilings. Each
   run is made twice and only the second is measured, so one-time
   set-up (lazy tables, first-use buffers) is excluded. *)

module H = Rme_sim.Harness
module Lock_intf = Rme_sim.Lock_intf
module Rmr = Rme_memory.Rmr

let config ~n ~width model =
  {
    (H.default_config ~n ~width model) with
    superpassages = 2;
    policy = H.Random_policy 7;
  }

let words_per_step ~n ~width model factory =
  let cfg = config ~n ~width model in
  ignore (H.run cfg factory);
  let before = Gc.minor_words () in
  let r = H.run cfg factory in
  let words = Gc.minor_words () -. before in
  if not r.H.ok then Alcotest.failf "%s: run failed" factory.Lock_intf.name;
  words /. float_of_int r.H.steps

let case name ~n ~width model factory ~ceiling =
  Alcotest.test_case name `Quick (fun () ->
      let w = words_per_step ~n ~width model factory in
      if w > ceiling then
        Alcotest.failf "%s: %.1f words per step, ceiling %.1f" name w ceiling)

let suite =
  ( "alloc",
    [
      case "KM n=256 w=4 CC words per step" ~n:256 ~width:4 Rmr.Cc
        Rme_locks.Katzan_morrison.factory ~ceiling:36.;
      case "KM n=256 w=4 DSM words per step" ~n:256 ~width:4 Rmr.Dsm
        Rme_locks.Katzan_morrison.factory ~ceiling:36.;
      case "peterson-tree n=16 words per step" ~n:16 ~width:8 Rmr.Cc
        Rme_locks.Peterson_tree.factory ~ceiling:28.;
      case "rtournament n=16 words per step" ~n:16 ~width:8 Rmr.Cc
        Rme_locks.Rtournament.factory ~ceiling:44.;
    ] )
