(* Tests for the in-place reset that every replay rides on: Rmr.reset,
   Machine.reset and Schedule.reset_play. Reset is the only way to
   rewind a machine; a state in between is reached again by replaying
   the steps that led to it. *)

module Memory = Rme_memory.Memory
module Rmr = Rme_memory.Rmr
module Machine = Rme_core.Machine
module Schedule = Rme_core.Schedule

let test_rmr_reset () =
  let r = Rmr.create Rmr.Cc ~n:2 in
  ignore (Rmr.record r ~pid:0 ~loc:1 ~owner:None ~is_read:true);
  ignore (Rmr.record r ~pid:1 ~loc:2 ~owner:None ~is_read:false);
  Rmr.reset r;
  Alcotest.(check int) "total p0 zero" 0 (Rmr.total r ~pid:0);
  Alcotest.(check int) "total p1 zero" 0 (Rmr.total r ~pid:1);
  (* Cache emptied: the read that was cached incurs an RMR again. *)
  Alcotest.(check bool) "cache emptied" true
    (Rmr.would_incur r ~pid:0 ~loc:1 ~owner:None ~is_read:true)

(* Every observable of a machine: phases, totals, poised ops and memory
   values. *)
let machine_observables m =
  let n = Machine.n m in
  ( Array.init n (fun pid -> Machine.phase m ~pid),
    Array.init n (fun pid -> Machine.total_rmrs m ~pid),
    Array.init n (fun pid -> Machine.peek m ~pid),
    Memory.snapshot (Machine.memory m) )

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
      Alcotest.test_case "rmr reset" `Quick test_rmr_reset;
      Alcotest.test_case "machine reset equals fresh" `Quick
        test_machine_reset_equals_fresh;
      Alcotest.test_case "reset_play" `Quick test_reset_play;
    ] )
