(* Watch the lower-bound proof run.

     dune exec examples/adversary_demo.exe

   The adversary of Section 3 builds an execution round by round: every
   active process is driven to an RMR-incurring step, contention is
   classified, and processes are hidden (behind indistinguishable
   crash-and-recover executions), finished, or removed — without any
   active process ever discovering another, entering the critical
   section, or crashing. Survivors of round i have incurred i RMRs, so
   the number of rounds is a lower bound on the algorithm's RMR
   complexity. This demo narrates the construction against each
   recoverable lock and re-checks the paper's invariants (I1)-(I10) on
   the materialised schedule table. *)

module A = Rme_core.Adversary
module T = Rme_core.Schedule_table
module Rmr = Rme_memory.Rmr
module Intset = Rme_util.Intset

let narrate (factory : Rme_sim.Lock_intf.factory) =
  let n = 64 and width = 8 in
  let cfg = A.default_config ~n ~width Rmr.Cc in
  Printf.printf "=== %s (n=%d, w=%d, k=%d, CC) ===\n" factory.Rme_sim.Lock_intf.name
    n width cfg.A.k;
  let r = A.run cfg factory in
  List.iter
    (fun (ri : A.round_info) ->
      let what =
        match ri.A.kind with
        | A.Low_contention ->
            "low contention: an independent set of the conflict graph steps"
        | A.High_read -> "high contention, read case: unobservable reads step"
        | A.High_hide ->
            "high contention, hide case: steps hidden behind crash-recoveries"
      in
      Printf.printf "  round %2d: %-66s %4d -> %4d active (%d finished, %d removed)\n"
        ri.A.index what ri.A.active_before ri.A.active_after ri.A.newly_finished
        ri.A.newly_removed)
    r.A.rounds;
  Printf.printf
    "  => %d rounds completed; %d survivors each incurred >= %d RMRs without\n\
    \     entering the CS or crashing (Theorem 1 predicts >= %.2f).\n"
    r.A.rounds_completed
    (Intset.cardinal r.A.survivors)
    r.A.survivor_min_rmrs r.A.predicted_lower_bound;
  Printf.printf "  => %d step observations re-verified identical across replays.\n"
    r.A.replay_checked_steps;
  (* Materialise the sigma_round table at a small n and check I1-I10. *)
  let small = A.run { (A.default_config ~n:8 ~width:16 Rmr.Cc) with A.k = 4 } factory in
  let report = T.check small.A.schedule in
  Printf.printf "  => invariants at n=8: %s\n\n"
    (Format.asprintf "%a" T.pp_report report);
  float_of_int r.A.rounds_completed >= r.A.predicted_lower_bound && T.ok report

let () =
  let ok = List.for_all narrate Rme_locks.Registry.recoverable in
  exit (if ok then 0 else 1)
