(* Tests for the adversary-controlled machine. *)

module M = Rme_core.Machine
module Rmr = Rme_memory.Rmr
module Op = Rme_memory.Op
module Trace = Rme_sim.Trace

let mk ?(n = 4) ?(w = 16) ?(model = Rmr.Cc) factory = M.create ~n ~width:w ~model factory

let test_initial_phase () =
  let m = mk Rme_locks.Rcas.factory in
  for p = 0 to 3 do
    Alcotest.(check bool) "in entry" true (M.phase m ~pid:p = Trace.Entry);
    Alcotest.(check bool) "poised" true (M.peek m ~pid:p <> None)
  done

let test_peek_then_step_consistent () =
  let m = mk Rme_locks.Rcas.factory in
  match M.peek m ~pid:0 with
  | None -> Alcotest.fail "not poised"
  | Some (loc, _op) ->
      let info = M.step m ~pid:0 in
      Alcotest.(check int) "same loc" loc info.Trace.loc

let test_run_to_completion_solo () =
  let m = mk ~n:1 Rme_locks.Rcas.factory in
  let steps = ref 0 in
  let ok = M.run_to_completion m ~pid:0 ~cap:1000 ~on_step:(fun _ -> incr steps) in
  Alcotest.(check bool) "completed" true ok;
  Alcotest.(check bool) "took steps" true (!steps > 0);
  Alcotest.(check bool) "phase done" true (M.completed m ~pid:0);
  Alcotest.(check int) "entered CS once" 1 (M.cs_entries m ~pid:0)

let test_blocked_completion () =
  (* p0 takes the lock; p1 cannot complete. *)
  let m = mk ~n:2 Rme_locks.Rcas.factory in
  (* run p0 until it is in the CS *)
  let guard = ref 0 in
  while M.phase m ~pid:0 <> Trace.Cs && !guard < 100 do
    ignore (M.step m ~pid:0);
    incr guard
  done;
  Alcotest.(check bool) "p0 in CS" true (M.phase m ~pid:0 = Trace.Cs);
  let ok = M.run_to_completion m ~pid:1 ~cap:500 ~on_step:(fun _ -> ()) in
  Alcotest.(check bool) "p1 blocked" false ok

let test_crash_resets_continuation () =
  let m = mk ~n:2 Rme_locks.Rcas.factory in
  ignore (M.step m ~pid:0);
  M.crash m ~pid:0;
  Alcotest.(check int) "crash counted" 1 (M.crashes m ~pid:0);
  Alcotest.(check bool) "in recovery" true (M.phase m ~pid:0 = Trace.Recovery);
  (* Recovery must lead back to a completable state. *)
  let ok = M.run_to_completion m ~pid:0 ~cap:1000 ~on_step:(fun _ -> ()) in
  Alcotest.(check bool) "completes after crash" true ok

let test_crash_drops_cache () =
  let m = mk ~n:2 ~model:Rmr.Cc Rme_locks.Rcas.factory in
  (* status write then await-read: run two steps so p0 caches the lock word *)
  ignore (M.step m ~pid:0);
  ignore (M.step m ~pid:0);
  let rmrs_before = M.total_rmrs m ~pid:0 in
  M.crash m ~pid:0;
  (* Totals survive the crash; the cache does not (observable via
     poised_rmr on the lock word read in recovery, which is remote again). *)
  Alcotest.(check int) "totals kept" rmrs_before (M.total_rmrs m ~pid:0)

let test_step_on_completed_rejected () =
  let m = mk ~n:1 Rme_locks.Rcas.factory in
  ignore (M.run_to_completion m ~pid:0 ~cap:1000 ~on_step:(fun _ -> ()));
  Alcotest.check_raises "step after done"
    (Invalid_argument "Machine.step: process already completed") (fun () ->
      ignore (M.step m ~pid:0))

let test_width_check () =
  Alcotest.(check bool) "narrow width rejected" true
    (try
       ignore (M.create ~n:300 ~width:4 ~model:Rmr.Cc Rme_locks.Rcas.factory);
       false
     with Invalid_argument _ -> true)

let test_all_complete_sequentially () =
  (* Any lock: run processes to completion one after another. *)
  List.iter
    (fun (factory : Rme_sim.Lock_intf.factory) ->
      let m = mk ~n:4 factory in
      for p = 0 to 3 do
        let ok = M.run_to_completion m ~pid:p ~cap:5_000 ~on_step:(fun _ -> ()) in
        Alcotest.(check bool)
          (Printf.sprintf "%s p%d completes" factory.Rme_sim.Lock_intf.name p)
          true ok
      done)
    Rme_locks.Registry.all

(* Harness and Machine run the same stepper, so replaying a crashy harness
   trace on a machine must reproduce every step, every crash's section
   and every per-process total. *)
let prop_harness_machine_agree =
  let module H = Rme_sim.Harness in
  let locks = Array.of_list Rme_locks.Registry.recoverable in
  QCheck.Test.make ~name:"harness and machine agree step for step" ~count:60
    QCheck.(
      quad (int_range 0 (Array.length locks - 1)) (int_range 2 4) (int_range 0 10_000)
        bool)
    (fun (li, n, seed, dsm) ->
      let factory = locks.(li) and w = 16 in
      let model = if dsm then Rmr.Dsm else Rmr.Cc in
      let r =
        H.run
          {
            (H.default_config ~n ~width:w model) with
            policy = H.Random_policy seed;
            crashes = H.Crash_prob { prob = 0.1; seed = seed + 1 };
            allow_cs_crash = true;
            max_crashes_per_process = 3;
            record_trace = true;
          }
          factory
      in
      let m = M.create ~n ~width:w ~model factory in
      let agree_event = function
        | Trace.Step s ->
            let i = M.step m ~pid:s.pid in
            i.loc = s.loc
            && Op.name i.op = Op.name s.op
            && i.old_value = s.old_value && i.new_value = s.new_value && i.rmr = s.rmr
            && i.section = s.section
        | Trace.Crash { pid; section } ->
            let ph = M.phase m ~pid in
            M.crash m ~pid;
            ph <> Trace.Remainder && ph = section
      in
      let events = Option.fold ~none:[] ~some:Trace.events r.H.trace in
      List.for_all agree_event events
      && Array.for_all
           (fun (s : H.proc_stats) ->
             M.total_rmrs m ~pid:s.H.pid = s.H.total_rmrs
             && M.cs_entries m ~pid:s.H.pid = s.H.cs_entries)
           r.H.procs)

let suite =
  ( "machine",
    [
      Alcotest.test_case "initial phases" `Quick test_initial_phase;
      Alcotest.test_case "peek/step consistency" `Quick test_peek_then_step_consistent;
      Alcotest.test_case "solo completion" `Quick test_run_to_completion_solo;
      Alcotest.test_case "blocked completion hits cap" `Quick test_blocked_completion;
      Alcotest.test_case "crash resets continuation" `Quick test_crash_resets_continuation;
      Alcotest.test_case "crash keeps RMR totals" `Quick test_crash_drops_cache;
      Alcotest.test_case "step after completion rejected" `Quick
        test_step_on_completed_rejected;
      Alcotest.test_case "width checked" `Quick test_width_check;
      Alcotest.test_case "sequential completion, all locks" `Quick
        test_all_complete_sequentially;
      Qc.to_alcotest prop_harness_machine_agree;
    ] )
