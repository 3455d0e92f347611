(* Tests for the replayable-schedule substrate, including negative
   tests: a tampered record must make the replay checker raise
   [Diverged], and a tampered schedule must surface as invariant
   violations in the schedule table. *)

module A = Rme_core.Adversary
module S = Rme_core.Schedule
module T = Rme_core.Schedule_table
module Rmr = Rme_memory.Rmr
module Intset = Rme_util.Intset

(* Replay a committed schedule on a new play. *)
let replay ?keep ctx directives =
  let play = S.fresh_play ctx in
  S.replay play ?keep (Rme_util.Vec.of_array directives);
  play

let committed () =
  let cfg = { (A.default_config ~n:8 ~width:16 Rmr.Cc) with A.k = 4 } in
  (A.run cfg Rme_locks.Rcas.factory).A.schedule

let test_full_replay_consistent () =
  let sched = committed () in
  let play = replay sched.A.ctx sched.A.directives in
  Alcotest.(check bool) "assertions performed" true (play.S.checked > 0)

let test_filtered_replay_consistent () =
  (* Dropping any single *removed-eligible* pid keeps the replay
     consistent by construction; here we drop the processes the
     adversary itself never removed and expect consistency for subsets
     containing all finishers. *)
  let sched = committed () in
  let last = List.nth sched.A.metas (List.length sched.A.metas - 1) in
  let keepable = Intset.union last.A.meta_active last.A.meta_finished in
  (* Remove one active process: the construction promises nobody saw it. *)
  match Intset.to_sorted_list last.A.meta_active with
  | [] -> Alcotest.fail "no actives"
  | z :: _ ->
      let keep p = Intset.mem p (Intset.remove z keepable) in
      let play = replay sched.A.ctx ~keep sched.A.directives in
      Alcotest.(check bool) "filtered replay ok" true (play.S.checked > 0)

let test_tampered_record_diverges () =
  let sched = committed () in
  (* Corrupt the first step record's expected old value. *)
  let directives = Array.copy sched.A.directives in
  let idx = ref None in
  Array.iteri
    (fun i (d, r) ->
      if !idx = None then
        match (d, r) with
        | S.D_step _, S.R_step { loc; old_value } ->
            idx := Some (i, d, loc, old_value)
        | _ -> ())
    directives;
  match !idx with
  | None -> Alcotest.fail "no step directive found"
  | Some (i, d, loc, old_value) ->
      directives.(i) <- (d, S.R_step { loc; old_value = old_value + 1 });
      Alcotest.(check bool) "diverges" true
        (try
           ignore (replay sched.A.ctx directives);
           false
         with S.Diverged _ -> true)

let test_tampered_directive_diverges () =
  let sched = committed () in
  let directives = Array.copy sched.A.directives in
  (* Mismatch a directive/record pair. *)
  let idx = ref None in
  Array.iteri
    (fun i (d, _) ->
      if !idx = None then
        match d with S.D_local pid -> idx := Some (i, pid) | _ -> ())
    directives;
  (match !idx with
  | None -> () (* no local directives in this schedule; fine *)
  | Some (i, pid) ->
      directives.(i) <- (S.D_crash pid, S.R_crash);
      (* Crashing a process that then behaves differently must trip some
         later record (or complete inconsistently). *)
      Alcotest.(check bool) "diverges or reports" true
        (try
           ignore (replay sched.A.ctx directives);
           true (* a crash of an inactive-by-then process may be benign *)
         with S.Diverged _ -> true))

let test_pid_of_directive () =
  Alcotest.(check int) "local" 3 (S.pid_of_directive (S.D_local 3));
  Alcotest.(check int) "step" 4
    (S.pid_of_directive (S.D_step { pid = 4; hidden_as = [] }));
  Alcotest.(check int) "crash" 5 (S.pid_of_directive (S.D_crash 5));
  Alcotest.(check int) "complete" 6 (S.pid_of_directive (S.D_complete 6))

let test_table_catches_tampering () =
  (* Shorten a schedule mid-round and point a meta at it with a bogus
     active set: the checker must report violations (I4/I10 style). *)
  let sched = committed () in
  match sched.A.metas with
  | [] -> Alcotest.fail "no rounds"
  | first :: _ ->
      let bogus_meta =
        {
          first with
          A.meta_active =
            (* claim a finished process is active — I4 must fire, or at
               minimum I10 (it stopped incurring RMRs) *)
            Intset.union first.A.meta_active first.A.meta_finished;
        }
      in
      if Intset.is_empty first.A.meta_finished then ()
        (* nothing finished in round 1 for this lock; skip *)
      else begin
        let tampered = { sched with A.metas = [ bogus_meta ] } in
        let rep = T.check tampered in
        Alcotest.(check bool) "violations reported" true (not (T.ok rep))
      end

let test_visible_tracking () =
  let ctx =
    {
      S.n = 2;
      width = 8;
      model = Rmr.Cc;
      factory = Rme_locks.Rcas.factory;
    }
  in
  let play = S.fresh_play ctx in
  (* Step p0 once (rcas entry: status write) and check visibility. *)
  let info = S.do_step play ~pid:0 ~hidden_as:[] in
  Alcotest.(check bool) "writer visible" true
    (Intset.mem 0 (S.visible_at play info.Rme_sim.Trace.loc));
  (* A hidden step attributes visibility to the alphas instead. *)
  let info2 = S.do_step play ~pid:1 ~hidden_as:[ 0 ] in
  let vis = S.visible_at play info2.Rme_sim.Trace.loc in
  Alcotest.(check bool) "hidden stepper invisible" true (not (Intset.mem 1 vis));
  Alcotest.(check bool) "alphas visible" true (Intset.mem 0 vis)

let suite =
  ( "schedule",
    [
      Alcotest.test_case "full replay consistent" `Quick test_full_replay_consistent;
      Alcotest.test_case "filtered replay consistent" `Quick
        test_filtered_replay_consistent;
      Alcotest.test_case "tampered record diverges" `Quick test_tampered_record_diverges;
      Alcotest.test_case "tampered directive tolerated or caught" `Quick
        test_tampered_directive_diverges;
      Alcotest.test_case "pid_of_directive" `Quick test_pid_of_directive;
      Alcotest.test_case "table catches bogus metadata" `Quick
        test_table_catches_tampering;
      Alcotest.test_case "visibility tracking" `Quick test_visible_tracking;
    ] )
