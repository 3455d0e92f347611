(* Tests for the in-place reset and snapshot/restore machinery that the
   adversary's replay resume rides on: Memory.checkpoint, Rmr.snapshot,
   Machine.snapshot/reset and Schedule.reset_play. *)

module Memory = Rme_memory.Memory
module Op = Rme_memory.Op
module Rmr = Rme_memory.Rmr
module Machine = Rme_core.Machine
module Schedule = Rme_core.Schedule
module Intset = Rme_util.Intset

let test_memory_checkpoint () =
  let m = Memory.create ~width:16 in
  let a = Memory.alloc m ~init:1 and b = Memory.alloc m ~init:2 in
  ignore (Memory.apply m ~pid:0 a (Op.Write 7));
  let ck = Memory.checkpoint m in
  ignore (Memory.apply m ~pid:1 a (Op.Write 9));
  ignore (Memory.apply m ~pid:1 b (Op.Write 9));
  Memory.restore m ck;
  Alcotest.(check int) "a restored" 7 (Memory.value m a);
  Alcotest.(check int) "b restored" 2 (Memory.value m b);
  Alcotest.(check (option int)) "a accessor restored" (Some 0)
    (Memory.last_accessor m a);
  Alcotest.(check (option int)) "b accessor restored" None
    (Memory.last_accessor m b)

let test_memory_checkpoint_mismatch () =
  let m = Memory.create ~width:16 in
  ignore (Memory.alloc m ~init:0);
  let ck = Memory.checkpoint m in
  let m' = Memory.create ~width:16 in
  Alcotest.(check bool) "mismatched restore rejected" true
    (try
       Memory.restore m' ck;
       false
     with Invalid_argument _ -> true)

let test_rmr_snapshot () =
  List.iter
    (fun model ->
      let r = Rmr.create model ~n:2 in
      let owner = match model with Rmr.Dsm -> Some 0 | Rmr.Cc -> None in
      ignore (Rmr.record r ~pid:0 ~loc:3 ~owner ~is_read:true);
      ignore (Rmr.record r ~pid:1 ~loc:3 ~owner ~is_read:true);
      let snap = Rmr.snapshot r in
      let t0 = Rmr.total r ~pid:0 and t1 = Rmr.total r ~pid:1 in
      let would = Rmr.would_incur r ~pid:1 ~loc:3 ~owner ~is_read:true in
      ignore (Rmr.record r ~pid:0 ~loc:3 ~owner ~is_read:false);
      ignore (Rmr.record r ~pid:1 ~loc:3 ~owner ~is_read:true);
      Rmr.restore r snap;
      Alcotest.(check int) "total p0 restored" t0 (Rmr.total r ~pid:0);
      Alcotest.(check int) "total p1 restored" t1 (Rmr.total r ~pid:1);
      Alcotest.(check bool) "cache state restored" would
        (Rmr.would_incur r ~pid:1 ~loc:3 ~owner ~is_read:true))
    [ Rmr.Cc; Rmr.Dsm ]

let test_rmr_reset () =
  let r = Rmr.create Rmr.Cc ~n:2 in
  ignore (Rmr.record r ~pid:0 ~loc:1 ~owner:None ~is_read:true);
  ignore (Rmr.record r ~pid:1 ~loc:2 ~owner:None ~is_read:false);
  Rmr.reset r;
  Alcotest.(check int) "grand total zero" 0 (Rmr.grand_total r);
  (* Cache emptied: the read that was cached incurs an RMR again. *)
  Alcotest.(check bool) "cache emptied" true
    (Rmr.would_incur r ~pid:0 ~loc:1 ~owner:None ~is_read:true)

(* Drive a machine a few steps, snapshot, drive further, restore: every
   observable (phases, totals, memory values, poised ops) must return to
   the snapshot point, and a re-run from the restored state must take the
   same steps as the first run from the snapshot did. *)
let machine_observables m =
  let n = Machine.n m in
  ( Array.init n (fun pid -> Machine.phase m ~pid),
    Array.init n (fun pid -> Machine.total_rmrs m ~pid),
    Array.init n (fun pid -> Machine.peek m ~pid),
    Memory.snapshot (Machine.memory m) )

let test_machine_snapshot_restore () =
  List.iter
    (fun model ->
      let m =
        Machine.create ~n:3 ~width:16 ~model Rme_locks.Katzan_morrison.factory
      in
      for _ = 1 to 4 do
        ignore (Machine.step m ~pid:0)
      done;
      ignore (Machine.step m ~pid:1);
      Machine.crash m ~pid:1;
      let snap = Machine.snapshot m in
      let before = machine_observables m in
      (* Diverge: more steps, another crash, a completion. *)
      ignore (Machine.step m ~pid:2);
      ignore (Machine.step m ~pid:0);
      Machine.crash m ~pid:0;
      ignore (Machine.run_to_completion m ~pid:0 ~cap:2000 ~on_step:(fun _ -> ()));
      Machine.restore m snap;
      Alcotest.(check bool) "observables restored" true
        (machine_observables m = before);
      Alcotest.(check int) "crash count restored" 1 (Machine.crashes m ~pid:1);
      (* The restored machine must be a live, runnable state. *)
      let ok =
        Machine.run_to_completion m ~pid:0 ~cap:5000 ~on_step:(fun _ -> ())
      in
      Alcotest.(check bool) "runs on after restore" true ok)
    [ Rmr.Cc; Rmr.Dsm ]

let test_machine_reset_equals_fresh () =
  List.iter
    (fun model ->
      let m = Machine.create ~n:3 ~width:16 ~model Rme_locks.Rcas.factory in
      let fresh = machine_observables m in
      ignore (Machine.step m ~pid:0);
      ignore (Machine.step m ~pid:1);
      Machine.crash m ~pid:0;
      ignore (Machine.run_to_completion m ~pid:1 ~cap:2000 ~on_step:(fun _ -> ()));
      Machine.reset m;
      Alcotest.(check bool) "reset equals fresh" true
        (machine_observables m = fresh);
      Alcotest.(check int) "crashes cleared" 0 (Machine.crashes m ~pid:0);
      Alcotest.(check int) "cs entries cleared" 0 (Machine.cs_entries m ~pid:1))
    [ Rmr.Cc; Rmr.Dsm ]

let ctx model : Schedule.context =
  {
    Schedule.n = 3;
    width = 16;
    model;
    factory = Rme_locks.Rcas.factory;
  }

let test_reset_play () =
  let ctx = ctx Rmr.Cc in
  let play = Schedule.fresh_play ctx in
  let fresh = machine_observables play.Schedule.m in
  ignore (Schedule.do_step play ~pid:0 ~hidden_as:[]);
  ignore (Schedule.do_step play ~pid:1 ~hidden_as:[]);
  Schedule.reset_play play;
  Alcotest.(check bool) "machine back to fresh" true
    (machine_observables play.Schedule.m = fresh);
  Alcotest.(check int) "visibility emptied" 0
    (Hashtbl.length play.Schedule.visible);
  Alcotest.(check int) "checked zeroed" 0 play.Schedule.checked

let suite =
  ( "snapshot",
    [
      Alcotest.test_case "memory checkpoint/restore" `Quick
        test_memory_checkpoint;
      Alcotest.test_case "memory checkpoint mismatch" `Quick
        test_memory_checkpoint_mismatch;
      Alcotest.test_case "rmr snapshot/restore (CC+DSM)" `Quick
        test_rmr_snapshot;
      Alcotest.test_case "rmr reset" `Quick test_rmr_reset;
      Alcotest.test_case "machine snapshot/restore (CC+DSM)" `Quick
        test_machine_snapshot_restore;
      Alcotest.test_case "machine reset equals fresh" `Quick
        test_machine_reset_equals_fresh;
      Alcotest.test_case "reset_play" `Quick test_reset_play;
    ] )
