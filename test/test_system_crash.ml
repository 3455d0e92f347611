(* Tests for the system-wide crash model: the harness's simultaneous
   crash policies and the epoch-MCS lock, which achieves constant RMRs
   per passage in this model — the separation from Theorem 1 the paper's
   conclusion discusses. *)

module H = Rme_sim.Harness
module Rmr = Rme_memory.Rmr
module EM = Rme_locks.Epoch_mcs

let assert_ok name (r : H.result) =
  if not r.H.ok then
    Alcotest.failf "%s: ok=false (completed=%b, violations=%s)" name r.H.completed
      (String.concat "; " r.H.violations)

let base ?(n = 6) ?(w = 16) ?(sp = 3) model =
  { (H.default_config ~n ~width:w model) with superpassages = sp }

let test_crash_free () =
  List.iter
    (fun model ->
      let r = H.run (base model) EM.factory in
      assert_ok "epoch-mcs crash-free" r)
    Rmr.all_models

let test_single_system_crash () =
  List.iter
    (fun s ->
      let c =
        { (base Rmr.Cc) with crashes = H.System_crash_script [ s ] }
      in
      let r = H.run c EM.factory in
      assert_ok (Printf.sprintf "system crash @%d" s) r;
      Alcotest.(check bool) "everyone active crashed" true (r.H.total_crashes >= 1))
    [ 0; 3; 7; 15; 40; 80 ]

let test_every_system_crash_point () =
  (* One system crash at every step of a short run, both models. *)
  List.iter
    (fun model ->
      let crash_free = H.run (base ~n:3 ~sp:1 model) EM.factory in
      assert_ok "baseline" crash_free;
      for s = 0 to crash_free.H.steps - 1 do
        let c =
          {
            (base ~n:3 ~sp:1 model) with
            crashes = H.System_crash_script [ s ];
            allow_cs_crash = true;
          }
        in
        let r = H.run c EM.factory in
        assert_ok
          (Printf.sprintf "epoch-mcs %s system crash @%d" (Rmr.model_name model) s)
          r
      done)
    Rmr.all_models

let test_double_system_crashes () =
  let crash_free = H.run (base ~n:3 ~sp:2 Rmr.Cc) EM.factory in
  let horizon = min 80 crash_free.H.steps in
  let stride = max 1 (horizon / 10) in
  for i = 0 to (horizon / stride) - 1 do
    for j = i to (horizon / stride) - 1 do
      let c =
        {
          (base ~n:3 ~sp:2 Rmr.Cc) with
          crashes = H.System_crash_script [ i * stride; j * stride ];
          allow_cs_crash = true;
        }
      in
      let r = H.run c EM.factory in
      assert_ok (Printf.sprintf "system crashes @%d @%d" (i * stride) (j * stride)) r
    done
  done

let test_crash_storms () =
  List.iter
    (fun seed ->
      let c =
        {
          (base ~n:8 ~sp:3 Rmr.Cc) with
          policy = H.Random_policy seed;
          crashes = H.System_crash_prob { prob = 0.01; seed; max = 6 };
          allow_cs_crash = true;
        }
      in
      let r = H.run c EM.factory in
      assert_ok (Printf.sprintf "system storm %d" seed) r)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* The headline separation: O(1) RMRs per passage *despite* crashes —
   the per-passage maximum does not grow with n (contrast Theorem 1,
   which forces growth in the individual-crash model). *)
let test_constant_rmr_in_n () =
  let max_rmr n =
    let c =
      {
        (base ~n ~sp:2 Rmr.Cc) with
        crashes = H.System_crash_script [ 5; 60 ];
        allow_cs_crash = true;
      }
    in
    let r = H.run c EM.factory in
    assert_ok (Printf.sprintf "n=%d" n) r;
    r.H.max_passage_rmr
  in
  let r8 = max_rmr 8 and r32 = max_rmr 32 and r64 = max_rmr 64 in
  Alcotest.(check bool)
    (Printf.sprintf "constant-ish in n: %d %d %d" r8 r32 r64)
    true
    (r64 <= r8 + 4 && r32 <= r8 + 4)

let test_individual_crash_semantics_guard () =
  (* Epoch-mcs takes system-wide crashes only (the harness rejects
     individual ones for a lock with an epoch counter): two scripted
     system crashes crash each of the 4 processes at most twice. *)
  let c =
    { (base ~n:4 ~sp:2 Rmr.Cc) with crashes = H.System_crash_script [ 4; 9 ] }
  in
  let r = H.run c EM.factory in
  assert_ok "scripted" r;
  (* Two system crashes happened: 4 processes, at most 2 crashes each. *)
  Array.iter
    (fun (p : H.proc_stats) ->
      Alcotest.(check bool) "per-process crash count bounded" true (p.H.crashes <= 2))
    r.H.procs

let suite =
  ( "system-crash",
    [
      Alcotest.test_case "crash-free" `Quick test_crash_free;
      Alcotest.test_case "single system crash" `Quick test_single_system_crash;
      Alcotest.test_case "every system-crash point" `Slow test_every_system_crash_point;
      Alcotest.test_case "double system crashes" `Slow test_double_system_crashes;
      Alcotest.test_case "probabilistic storms" `Quick test_crash_storms;
      Alcotest.test_case "O(1) RMRs in n despite crashes" `Quick test_constant_rmr_in_n;
      Alcotest.test_case "crash accounting" `Quick test_individual_crash_semantics_guard;
    ] )
