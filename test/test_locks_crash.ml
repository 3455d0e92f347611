(* Crash-recovery tests for the recoverable locks: probabilistic crash
   storms, and — the strong one — systematic exploration of every crash
   point: for small n, inject a crash at every global step index for
   every process and check mutual exclusion and progress each time. *)

module H = Rme_sim.Harness
module Lock_intf = Rme_sim.Lock_intf
module Rmr = Rme_memory.Rmr

let recoverable = Rme_locks.Registry.recoverable

let assert_ok name (r : H.result) =
  if not r.H.ok then
    Alcotest.failf "%s: ok=false (completed=%b, violations=%s)" name r.H.completed
      (String.concat "; " r.H.violations)

let base ?(n = 4) ?(w = 16) ?(sp = 2) model =
  { (H.default_config ~n ~width:w model) with superpassages = sp }

(* Probabilistic crash storms over both models and many seeds. *)
let test_crash_storm () =
  List.iter
    (fun (factory : Lock_intf.factory) ->
      List.iter
        (fun model ->
          List.iter
            (fun seed ->
              let c =
                {
                  (base ~n:6 ~sp:3 model) with
                  policy = H.Random_policy seed;
                  crashes = H.Crash_prob { prob = 0.03; seed = seed * 13 };
                  allow_cs_crash = true;
                  max_crashes_per_process = 4;
                }
              in
              let r = H.run c factory in
              assert_ok
                (Printf.sprintf "%s storm seed=%d %s" factory.Lock_intf.name seed
                   (Rmr.model_name model))
                r)
            [ 1; 2; 3; 4; 5 ])
        Rmr.all_models)
    recoverable

(* Systematic single-crash exploration: crash process p at its next step
   after global step s, for every (s, p) within the crash-free execution
   length. *)
let test_every_crash_point () =
  List.iter
    (fun (factory : Lock_intf.factory) ->
      List.iter
        (fun model ->
          let n = 3 in
          let crash_free = H.run (base ~n ~sp:1 model) factory in
          assert_ok "crash-free baseline" crash_free;
          let horizon = crash_free.H.steps in
          for s = 0 to horizon - 1 do
            for p = 0 to n - 1 do
              let c =
                {
                  (base ~n ~sp:1 model) with
                  crashes = H.Crash_script [ (s, p) ];
                  allow_cs_crash = true;
                }
              in
              let r = H.run c factory in
              assert_ok
                (Printf.sprintf "%s %s crash p%d@%d" factory.Lock_intf.name
                   (Rmr.model_name model) p s)
                r
            done
          done)
        Rmr.all_models)
    recoverable

(* Double crashes: same process twice, and two different processes. *)
let test_double_crash_points () =
  List.iter
    (fun (factory : Lock_intf.factory) ->
      let n = 3 in
      let model = Rmr.Cc in
      let crash_free = H.run (base ~n ~sp:1 model) factory in
      let horizon = min 40 crash_free.H.steps in
      let stride = max 1 (horizon / 8) in
      let points = List.init (horizon / stride) (fun i -> i * stride) in
      List.iter
        (fun s1 ->
          List.iter
            (fun s2 ->
              List.iter
                (fun (p1, p2) ->
                  let c =
                    {
                      (base ~n ~sp:1 model) with
                      crashes = H.Crash_script [ (s1, p1); (s2, p2) ];
                      allow_cs_crash = true;
                      max_crashes_per_process = 2;
                    }
                  in
                  let r = H.run c factory in
                  assert_ok
                    (Printf.sprintf "%s crashes p%d@%d p%d@%d"
                       factory.Lock_intf.name p1 s1 p2 s2)
                    r)
                [ (0, 0); (0, 1); (1, 2) ])
            points)
        points)
    recoverable

(* A crash inside the critical section must lead to CS re-entry: the
   process re-enters and the super-passage still completes exactly once
   per configured super-passage (cs_entries may exceed passages). *)
let test_cs_crash_reentry () =
  List.iter
    (fun (factory : Lock_intf.factory) ->
      (* Find the step at which p0 is in the CS by tracing a clean run. *)
      let c0 = { (base ~n:2 ~sp:1 Rmr.Cc) with record_trace = true } in
      let r0 = H.run c0 factory in
      assert_ok "clean" r0;
      let cs_step = ref None in
      (match r0.H.trace with
      | Some t ->
          let idx = ref 0 in
          Rme_sim.Trace.iter
            (fun e ->
              (match e with
              | Rme_sim.Trace.Step { pid = 0; section = Rme_sim.Trace.Cs; _ } ->
                  if !cs_step = None then cs_step := Some !idx
              | _ -> ());
              incr idx)
            t
      | None -> Alcotest.fail "no trace");
      match !cs_step with
      | None -> Alcotest.fail "p0 never reached the CS"
      | Some s ->
          let c =
            {
              (base ~n:2 ~sp:1 Rmr.Cc) with
              crashes = H.Crash_script [ (s, 0) ];
              allow_cs_crash = true;
            }
          in
          let r = H.run c factory in
          assert_ok (factory.Lock_intf.name ^ " cs crash") r;
          Alcotest.(check int) "p0 crashed once" 1 r.H.procs.(0).H.crashes;
          Alcotest.(check bool) "p0 re-entered the CS" true
            (r.H.procs.(0).H.cs_entries >= 1))
    recoverable

(* Crash storms at small word sizes (where every lock has to spell
   process IDs across several words). *)
let test_crash_small_widths () =
  List.iter
    (fun (factory : Lock_intf.factory) ->
      let n = 5 in
      let w = factory.Lock_intf.min_width ~n in
      List.iter
        (fun seed ->
          let c =
            {
              (base ~n ~w ~sp:2 Rmr.Cc) with
              policy = H.Random_policy seed;
              crashes = H.Crash_prob { prob = 0.04; seed };
              allow_cs_crash = true;
              max_crashes_per_process = 3;
            }
          in
          let r = H.run c factory in
          assert_ok (Printf.sprintf "%s w=%d seed=%d" factory.Lock_intf.name w seed) r)
        [ 10; 20; 30 ])
    recoverable

(* Property: across random seeds, recoverable locks stay correct under
   aggressive crash regimes. *)
let prop_crash_robustness =
  QCheck.Test.make ~name:"recoverable locks survive random crash storms" ~count:60
    QCheck.(triple (int_range 2 8) (int_range 0 1000) (int_range 0 2))
    (fun (n, seed, which) ->
      let factory = List.nth recoverable which in
      let model = if seed mod 2 = 0 then Rmr.Cc else Rmr.Dsm in
      let c =
        {
          (base ~n ~sp:2 model) with
          policy = H.Random_policy seed;
          crashes = H.Crash_prob { prob = 0.05; seed = seed + 1 };
          allow_cs_crash = true;
          max_crashes_per_process = 3;
        }
      in
      (H.run c factory).H.ok)

let suite =
  ( "locks-crash",
    [
      Alcotest.test_case "crash storms" `Quick test_crash_storm;
      Alcotest.test_case "every single-crash point" `Slow test_every_crash_point;
      Alcotest.test_case "double-crash grid" `Slow test_double_crash_points;
      Alcotest.test_case "CS crash re-entry" `Quick test_cs_crash_reentry;
      Alcotest.test_case "crashes at minimal widths" `Quick test_crash_small_widths;
      Qc.to_alcotest prop_crash_robustness;
    ] )
