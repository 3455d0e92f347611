(* Tests for the workload harness: scheduling, crash injection, passage
   accounting, and — crucially — that the mutual-exclusion checker
   actually catches broken locks. *)

module H = Rme_sim.Harness
module Lock_intf = Rme_sim.Lock_intf
module Prog = Rme_sim.Prog
module Rmr = Rme_memory.Rmr
module Memory = Rme_memory.Memory

(* A "lock" that excludes nobody: everyone walks straight into the CS. *)
let broken_lock =
  {
    Lock_intf.name = "broken";
    recoverable = true;
    min_width = (fun ~n:_ -> 1);
    make =
      (fun memory ~n:_ ->
        let scratch = Memory.alloc memory ~init:0 in
        {
          Lock_intf.entry = (fun ~pid -> Prog.write scratch (pid land 1));
          exit = (fun ~pid -> Prog.write scratch (pid land 1));
          recover = (fun ~pid:_ k -> k Lock_intf.Resume_entry);
          system_epoch = None;
        });
  }

(* A lock whose entry spins forever: deadlock-freedom must fail. *)
let stuck_lock =
  {
    Lock_intf.name = "stuck";
    recoverable = false;
    min_width = (fun ~n:_ -> 1);
    make =
      (fun memory ~n:_ ->
        let never = Memory.alloc memory ~init:0 in
        {
          Lock_intf.entry =
            (fun ~pid:_ -> Prog.K.await never (fun v -> v = 1) @@ fun _ -> Prog.return ());
          exit = (fun ~pid:_ -> Prog.return ());
          recover = (fun ~pid:_ k -> k Lock_intf.Resume_entry);
          system_epoch = None;
        });
  }

(* A lock whose entry churns a counter forever: every turn is a real
   step, so only the step budget can end the run. Shared with the
   resilience suite and the engine tests (the memo records such a cell
   as timed out). *)
let deadlock_factory : Lock_intf.factory =
  {
    Lock_intf.name = "toy-deadlock";
    recoverable = false;
    min_width = (fun ~n:_ -> 1);
    make =
      (fun mem ~n:_ ->
        let cell = Memory.alloc mem ~init:0 in
        let rec churn () = Prog.K.faa cell 1 @@ fun _ -> churn () in
        {
          Lock_intf.entry = (fun ~pid:_ -> churn ());
          exit = (fun ~pid:_ -> Prog.return ());
          recover = (fun ~pid:_ k -> k Lock_intf.Resume_entry);
          system_epoch = None;
        });
  }

let cfg ?(n = 4) ?(w = 16) ?(sp = 2) model =
  { (H.default_config ~n ~width:w model) with superpassages = sp }

let test_broken_lock_flagged () =
  let r = H.run { (cfg Rmr.Cc) with policy = H.Random_policy 5 } broken_lock in
  Alcotest.(check bool) "violations reported" true (r.H.violations <> []);
  Alcotest.(check bool) "not ok" false r.H.ok

let test_stuck_lock_flagged () =
  let r = H.run (cfg ~sp:1 Rmr.Cc) stuck_lock in
  Alcotest.(check bool) "incomplete" false r.H.completed;
  Alcotest.(check bool) "not ok" false r.H.ok

let test_single_process () =
  let r = H.run (cfg ~n:1 Rmr.Cc) Rme_locks.Tas.factory in
  Alcotest.(check bool) "ok" true r.H.ok;
  Alcotest.(check int) "2 cs entries" 2 r.H.procs.(0).H.cs_entries

let test_superpassage_counts () =
  let r = H.run (cfg ~n:5 ~sp:3 Rmr.Cc) Rme_locks.Mcs.factory in
  Alcotest.(check bool) "ok" true r.H.ok;
  Array.iter
    (fun (p : H.proc_stats) ->
      Alcotest.(check int) "3 passages each" 3 p.H.passages;
      Alcotest.(check int) "3 cs entries each" 3 p.H.cs_entries)
    r.H.procs

let test_cs_rmr_excluded () =
  (* A single uncontended process through rcas: entry = status write +
     read + CAS, exit = status write + read + lock write + status write.
     The CS step must not be in the passage count. *)
  let r = H.run (cfg ~n:1 ~sp:1 Rmr.Dsm) Rme_locks.Rcas.factory in
  Alcotest.(check bool) "ok" true r.H.ok;
  (* In DSM with n=1: status words are own-segment (local), lock word is
     unowned (remote): read + CAS + read + write = 4 RMRs. *)
  Alcotest.(check int) "passage RMRs exclude the CS step" 4
    r.H.procs.(0).H.max_passage_rmr

let test_crash_injection_counts () =
  let c =
    {
      (cfg ~n:4 ~sp:3 Rmr.Cc) with
      crashes = H.Crash_prob { prob = 0.05; seed = 3 };
      max_crashes_per_process = 2;
      policy = H.Random_policy 1;
    }
  in
  let r = H.run c Rme_locks.Rcas.factory in
  Alcotest.(check bool) "ok" true r.H.ok;
  Alcotest.(check bool) "some crashes happened" true (r.H.total_crashes > 0);
  Array.iter
    (fun (p : H.proc_stats) ->
      Alcotest.(check bool) "cap respected" true (p.H.crashes <= 2))
    r.H.procs

let test_crash_script () =
  let c =
    {
      (cfg ~n:2 ~sp:1 Rmr.Cc) with
      crashes = H.Crash_script [ (0, 0) ];
      record_trace = true;
    }
  in
  let r = H.run c Rme_locks.Rcas.factory in
  Alcotest.(check bool) "ok" true r.H.ok;
  Alcotest.(check int) "p0 crashed once" 1 r.H.procs.(0).H.crashes;
  Alcotest.(check int) "p1 did not crash" 0 r.H.procs.(1).H.crashes;
  (* A crash splits the super-passage into two passages. *)
  Alcotest.(check int) "p0 has 2 passages" 2 r.H.procs.(0).H.passages

let test_crash_on_first_recovery_step () =
  (* Two back-to-back scripted crashes: the first aborts p0's entry, the
     second fires on the very first step of the recovery passage that
     follows. Super-passage bookkeeping must not double-count: every
     super-passage still enters the CS exactly once, and each crash adds
     exactly one passage. *)
  let sp = 2 in
  let c =
    {
      (cfg ~n:2 ~sp Rmr.Cc) with
      crashes = H.Crash_script [ (0, 0); (1, 0) ];
      max_crashes_per_process = 2;
      record_trace = true;
    }
  in
  let r = H.run c Rme_locks.Rcas.factory in
  Alcotest.(check bool) "ok" true r.H.ok;
  Alcotest.(check int) "p0 crashed twice" 2 r.H.procs.(0).H.crashes;
  (let sections =
     match r.H.trace with
     | None -> []
     | Some t ->
         let acc = ref [] in
         Rme_sim.Trace.iter
           (function
             | Rme_sim.Trace.Crash { pid = 0; section } -> acc := section :: !acc
             | _ -> ())
           t;
         List.rev !acc
   in
   match sections with
   | [ first; second ] ->
       Alcotest.(check string) "first crash in entry" "entry"
         (Rme_sim.Trace.section_name first);
       Alcotest.(check string) "second crash on first recovery step" "recovery"
         (Rme_sim.Trace.section_name second)
   | l -> Alcotest.failf "expected 2 crash events, got %d" (List.length l));
  Alcotest.(check int) "p1 did not crash" 0 r.H.procs.(1).H.crashes;
  Alcotest.(check int) "each crash adds exactly one passage" (sp + 2)
    r.H.procs.(0).H.passages;
  Alcotest.(check int) "one CS entry per super-passage, no double-count" sp
    r.H.procs.(0).H.cs_entries;
  (* The offline checker agrees the trace is legal. *)
  match Rme_sim.Checker.check_result r with
  | None -> Alcotest.fail "no trace"
  | Some rep ->
      Alcotest.(check bool) "checker clean" true (Rme_sim.Checker.ok rep)

let test_crash_rejected_for_nonrecoverable () =
  let c = { (cfg Rmr.Cc) with crashes = H.Crash_prob { prob = 0.1; seed = 1 } } in
  Alcotest.check_raises "refuses"
    (Invalid_argument "Harness.run: lock mcs is not recoverable; cannot inject crashes")
    (fun () -> ignore (H.run c Rme_locks.Mcs.factory))

let test_individual_crashes_rejected_for_system_wide () =
  List.iter
    (fun crashes ->
      let c = { (cfg Rmr.Cc) with crashes } in
      Alcotest.check_raises "refuses"
        (Invalid_argument
           "Harness.run: lock epoch-mcs is for system-wide crashes only; cannot inject \
            individual crashes")
        (fun () -> ignore (H.run c Rme_locks.Epoch_mcs.factory)))
    [ H.Crash_prob { prob = 0.05; seed = 1 }; H.Crash_script [ (3, 0) ] ]

let test_width_rejected () =
  let c = cfg ~n:300 ~w:4 Rmr.Cc in
  Alcotest.check_raises "refuses"
    (Invalid_argument "Harness.run: lock mcs needs width >= 9 for n = 300 (got 4)")
    (fun () -> ignore (H.run c Rme_locks.Mcs.factory))

let test_trace_recorded () =
  let c = { (cfg ~n:2 ~sp:1 Rmr.Cc) with record_trace = true } in
  let r = H.run c Rme_locks.Tas.factory in
  match r.H.trace with
  | None -> Alcotest.fail "trace missing"
  | Some t ->
      Alcotest.(check bool) "has events" true (Rme_sim.Trace.length t > 0);
      (* every event belongs to a real process *)
      Rme_sim.Trace.iter
        (fun e ->
          let pid = Rme_sim.Trace.pid_of_event e in
          Alcotest.(check bool) "pid in range" true (pid >= 0 && pid < 2))
        t

let test_trace_filter () =
  let t = Rme_sim.Trace.create () in
  Rme_sim.Trace.record t (Rme_sim.Trace.Crash { pid = 0; section = Rme_sim.Trace.Entry });
  Rme_sim.Trace.record t (Rme_sim.Trace.Crash { pid = 1; section = Rme_sim.Trace.Exit });
  let t' = Rme_sim.Trace.filter_pids t ~keep:(fun p -> p = 1) in
  Alcotest.(check int) "filtered" 1 (Rme_sim.Trace.length t')

let test_deterministic_runs () =
  let run () =
    let c = { (cfg ~n:6 ~sp:2 Rmr.Cc) with policy = H.Random_policy 77 } in
    let r = H.run c Rme_locks.Katzan_morrison.factory in
    (r.H.steps, r.H.max_passage_rmr, r.H.mean_passage_rmr)
  in
  Alcotest.(check bool) "identical reruns" true (run () = run ())

let test_round_robin_vs_random_both_ok () =
  List.iter
    (fun policy ->
      let c = { (cfg ~n:6 ~sp:2 Rmr.Dsm) with policy } in
      let r = H.run c Rme_locks.Rtournament.factory in
      Alcotest.(check bool) "ok" true r.H.ok)
    [ H.Round_robin; H.Random_policy 9; H.Random_policy 1234 ]

(* A lock whose entry is one cyclic program: resuming its continuation
   builds nothing, so every word a step allocates would be the stepper's
   own or the memory layer's. *)
let cyclic_lock op =
  {
    Lock_intf.name = "cyclic";
    recoverable = false;
    min_width = (fun ~n:_ -> 1);
    make =
      (fun memory ~n:_ ->
        let cell = Memory.alloc memory ~init:0 in
        let rec loop = Prog.Step (cell, op, fun _ -> loop) in
        {
          Lock_intf.entry = (fun ~pid:_ -> loop);
          exit = (fun ~pid:_ -> Prog.return ());
          recover = (fun ~pid:_ k -> k Lock_intf.Resume_entry);
          system_epoch = None;
        });
  }

let test_step_allocates_nothing () =
  let module S = Rme_sim.Stepper in
  let module Op = Rme_memory.Op in
  List.iter
    (fun model ->
      List.iter
        (fun op ->
          let st =
            S.create ~n:2 ~width:16 ~model ~superpassages:1 ~cs:None (cyclic_lock op)
          in
          for pid = 0 to 1 do
            S.settle st ~pid ~on_boundary:(fun _ _ -> ())
          done;
          let steps () =
            for i = 1 to 100_000 do
              ignore (S.step st ~pid:(i land 1))
            done
          in
          steps ();
          let before = Gc.minor_words () in
          steps ();
          let after = Gc.minor_words () in
          let baseline = Gc.minor_words () -. after in
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s %s: words over 10^5 steps" (Rmr.model_name model)
               (Op.name op))
            0.
            (after -. before -. baseline))
        [ Op.Read; Op.Write 1; Op.Faa 1; Op.Cas { expected = 0; desired = 1 }; Op.Fas 3 ])
    Rmr.all_models

(* A recoverable lock for one process whose [recover] reads once, then
   passes [decision] on, whatever memory holds: entry is two writes,
   exit one, so its steps are entry 0-1, the CS 2 and exit 3. *)
let scripted_lock decision =
  {
    Lock_intf.name = "scripted-" ^ Lock_intf.resume_name decision;
    recoverable = true;
    min_width = (fun ~n:_ -> 2);
    make =
      (fun memory ~n:_ ->
        let cell = Memory.alloc memory ~init:0 in
        {
          Lock_intf.entry =
            (fun ~pid:_ -> Prog.K.write cell 1 @@ fun _ -> Prog.write cell 2);
          exit = (fun ~pid:_ -> Prog.write cell 0);
          recover = (fun ~pid:_ k -> Prog.K.read cell @@ fun _ -> k decision);
          system_epoch = None;
        });
  }

(* One super-passage of [scripted_lock decision] with a scripted crash
   before step [at]: the sections of its steps and crash in order, with
   the stepper's boundaries between them. *)
let scripted_events decision ~at =
  let module S = Rme_sim.Stepper in
  let st =
    S.create ~n:1 ~width:8 ~model:Rmr.Cc ~superpassages:1 ~cs:None
      (scripted_lock decision)
  in
  let seen = ref [] in
  let note x = seen := x :: !seen in
  let on_boundary _ = function
    | S.Begin_superpassage -> note "begin"
    | S.Enter_cs -> note "enter-cs"
    | S.Leave_cs -> note "leave-cs"
    | S.End_superpassage -> note "end"
  in
  let rec go i =
    S.settle st ~pid:0 ~on_boundary;
    if S.poised_loc st ~pid:0 >= 0 then begin
      if i = at then begin
        note "crash";
        S.crash st ~pid:0
      end
      else begin
        note (Rme_sim.Trace.section_name (S.procs st).(0).S.section);
        ignore (S.step st ~pid:0)
      end;
      go (i + 1)
    end
  in
  go 0;
  List.rev !seen

(* The same run through the harness, crashing by [Crash_script]. *)
let run_scripted decision ~at =
  H.run
    {
      (cfg ~n:1 ~sp:1 Rmr.Cc) with
      crashes = H.Crash_script [ (at, 0) ];
      allow_cs_crash = true;
    }
    (scripted_lock decision)

let check_events name expected decision ~at =
  Alcotest.(check (list string)) name expected (scripted_events decision ~at)

let test_recover_in_cs () =
  check_events "crash in the CS, then the CS again"
    [ "begin"; "entry"; "entry"; "enter-cs"; "crash"; "recovery"; "enter-cs"; "cs";
      "leave-cs"; "exit"; "end" ]
    Lock_intf.In_cs ~at:2;
  let r = run_scripted Lock_intf.In_cs ~at:2 in
  Alcotest.(check bool) "ok" true r.H.ok;
  Alcotest.(check int) "both CS entries counted" 2 r.H.procs.(0).H.cs_entries

let test_recover_resume_exit () =
  check_events "crash in exit, then exit without leaving the CS again"
    [ "begin"; "entry"; "entry"; "enter-cs"; "cs"; "leave-cs"; "crash"; "recovery";
      "exit"; "end" ]
    Lock_intf.Resume_exit ~at:3;
  let r = run_scripted Lock_intf.Resume_exit ~at:3 in
  Alcotest.(check bool) "ok" true r.H.ok;
  Alcotest.(check int) "one CS entry" 1 r.H.procs.(0).H.cs_entries

let test_recover_resume_entry () =
  check_events "crash mid-entry, then entry from the top"
    [ "begin"; "entry"; "crash"; "recovery"; "entry"; "entry"; "enter-cs"; "cs";
      "leave-cs"; "exit"; "end" ]
    Lock_intf.Resume_entry ~at:1;
  let r = run_scripted Lock_intf.Resume_entry ~at:1 in
  Alcotest.(check bool) "ok" true r.H.ok;
  Alcotest.(check int) "one CS entry" 1 r.H.procs.(0).H.cs_entries

let test_recover_passage_done_before_cs () =
  check_events "crash mid-entry, then the super-passage ends"
    [ "begin"; "entry"; "crash"; "recovery"; "end" ]
    Lock_intf.Passage_done ~at:1;
  let r = run_scripted Lock_intf.Passage_done ~at:1 in
  Alcotest.(check bool) "not ok" false r.H.ok;
  Alcotest.(check (list string)) "the lost request is flagged"
    [ "p0 completed a super-passage without entering the critical section" ]
    r.H.violations

let suite =
  ( "harness",
    [
      Alcotest.test_case "broken lock is flagged" `Quick test_broken_lock_flagged;
      Alcotest.test_case "stuck lock fails progress" `Quick test_stuck_lock_flagged;
      Alcotest.test_case "single process completes" `Quick test_single_process;
      Alcotest.test_case "super-passage accounting" `Quick test_superpassage_counts;
      Alcotest.test_case "CS step excluded from passage RMRs" `Quick test_cs_rmr_excluded;
      Alcotest.test_case "probabilistic crash injection" `Quick test_crash_injection_counts;
      Alcotest.test_case "scripted crash splits passages" `Quick test_crash_script;
      Alcotest.test_case "crash on first recovery step" `Quick
        test_crash_on_first_recovery_step;
      Alcotest.test_case "crashes rejected for non-recoverable" `Quick
        test_crash_rejected_for_nonrecoverable;
      Alcotest.test_case "individual crashes rejected for a system-wide lock" `Quick
        test_individual_crashes_rejected_for_system_wide;
      Alcotest.test_case "insufficient width rejected" `Quick test_width_rejected;
      Alcotest.test_case "trace recording" `Quick test_trace_recorded;
      Alcotest.test_case "trace filtering" `Quick test_trace_filter;
      Alcotest.test_case "determinism" `Quick test_deterministic_runs;
      Alcotest.test_case "policies all correct" `Quick test_round_robin_vs_random_both_ok;
      Alcotest.test_case "stepper: a step of a cyclic program allocates nothing" `Quick
        test_step_allocates_nothing;
      Alcotest.test_case "recover In_cs re-enters the CS" `Quick test_recover_in_cs;
      Alcotest.test_case "recover Resume_exit runs exit" `Quick test_recover_resume_exit;
      Alcotest.test_case "recover Resume_entry reruns entry" `Quick
        test_recover_resume_entry;
      Alcotest.test_case "recover Passage_done before CS" `Quick
        test_recover_passage_done_before_cs;
    ] )
