(* Tests for the offline trace checker: it must agree with the live
   harness on every lock, every model, with and without crashes — and it
   must catch tampered traces (differential testing both ways). *)

module H = Rme_sim.Harness
module C = Rme_sim.Checker
module Trace = Rme_sim.Trace
module Rmr = Rme_memory.Rmr
module Op = Rme_memory.Op

let run ?(n = 6) ?(w = 16) ?(sp = 2) ?(crashes = H.No_crashes)
    ?(allow_cs_crash = false) model factory =
  H.run
    {
      (H.default_config ~n ~width:w model) with
      superpassages = sp;
      policy = H.Random_policy 37;
      crashes;
      allow_cs_crash;
      max_crashes_per_process = 3;
      record_trace = true;
    }
    factory

let assert_clean name r =
  match C.check_result r with
  | None -> Alcotest.failf "%s: no trace" name
  | Some rep ->
      if not (C.ok rep) then
        Alcotest.failf "%s: checker errors: %s" name
          (String.concat "; " rep.C.errors);
      Alcotest.(check bool) (name ^ ": steps checked") true (rep.C.steps_checked > 0)

let test_all_locks_validate () =
  List.iter
    (fun (factory : Rme_sim.Lock_intf.factory) ->
      List.iter
        (fun model ->
          let r = run model factory in
          Alcotest.(check bool) "harness ok" true r.H.ok;
          assert_clean
            (Printf.sprintf "%s %s" factory.Rme_sim.Lock_intf.name
               (Rmr.model_name model))
            r)
        Rmr.all_models)
    Rme_locks.Registry.all

let test_crashy_traces_validate () =
  List.iter
    (fun (factory : Rme_sim.Lock_intf.factory) ->
      List.iter
        (fun model ->
          let r =
            run ~sp:3
              ~crashes:(H.Crash_prob { prob = 0.05; seed = 91 })
              ~allow_cs_crash:true model factory
          in
          Alcotest.(check bool) "harness ok" true r.H.ok;
          assert_clean (factory.Rme_sim.Lock_intf.name ^ " crashy") r)
        Rmr.all_models)
    Rme_locks.Registry.recoverable

let test_system_crash_traces_validate () =
  let r =
    run ~sp:3
      ~crashes:(H.System_crash_script [ 8; 50 ])
      ~allow_cs_crash:true Rmr.Cc Rme_locks.Epoch_mcs.factory
  in
  Alcotest.(check bool) "harness ok" true r.H.ok;
  assert_clean "epoch-mcs system crashes" r

(* Tamper with a recorded trace: flip values, RMR flags, and inject a
   foreign CS step; the checker must object every time. *)
let tampered_copy r ~f =
  match r.H.trace with
  | None -> Alcotest.fail "no trace"
  | Some t ->
      let t' = Trace.create () in
      let i = ref 0 in
      Trace.iter
        (fun e ->
          Trace.record t' (f !i e);
          incr i)
        t;
      t'

let recheck r t =
  C.check
    ~n:(Array.length r.H.procs)
    ~width:(Rme_memory.Memory.width r.H.memory)
    ~model:r.H.model
    ~owner:(fun loc -> Rme_memory.Memory.owner r.H.memory loc)
    t

let test_tampered_value_caught () =
  let r = run Rmr.Cc Rme_locks.Mcs.factory in
  let t =
    tampered_copy r ~f:(fun i e ->
        match (i, e) with
        | 3, Trace.Step s -> Trace.Step { s with new_value = s.new_value + 1 }
        | _, e -> e)
  in
  Alcotest.(check bool) "caught" false (C.ok (recheck r t))

let test_tampered_rmr_caught () =
  let r = run Rmr.Dsm Rme_locks.Mcs.factory in
  let t =
    tampered_copy r ~f:(fun i e ->
        match (i, e) with
        | 2, Trace.Step s -> Trace.Step { s with rmr = not s.rmr }
        | _, e -> e)
  in
  Alcotest.(check bool) "caught" false (C.ok (recheck r t))

let test_injected_cs_step_caught () =
  (* Duplicate an existing CS step under a different pid right after the
     original: two processes inside the CS. *)
  let r = run Rmr.Cc Rme_locks.Ticket.factory in
  match r.H.trace with
  | None -> Alcotest.fail "no trace"
  | Some t ->
      let t' = Trace.create () in
      let injected = ref false in
      Trace.iter
        (fun e ->
          Trace.record t' e;
          match e with
          | Trace.Step ({ section = Trace.Cs; pid; _ } as s) when not !injected ->
              injected := true;
              Trace.record t'
                (Trace.Step
                   { s with pid = (pid + 1) mod Array.length r.H.procs })
          | _ -> ())
        t;
      Alcotest.(check bool) "injected" true !injected;
      let rep = recheck r t' in
      Alcotest.(check bool) "caught" false (C.ok rep)

let test_report_counts () =
  let r = run Rmr.Cc Rme_locks.Tas.factory in
  match C.check_result r with
  | None -> Alcotest.fail "no trace"
  | Some rep ->
      Alcotest.(check bool) "events >= steps" true (rep.C.events >= rep.C.steps_checked);
      Alcotest.(check int) "steps = harness steps minus phase-only turns"
        rep.C.steps_checked
        (match r.H.trace with
        | Some t ->
            let c = ref 0 in
            Trace.iter (function Trace.Step _ -> incr c | Trace.Crash _ -> ()) t;
            !c
        | None -> -1)

let prop_checker_agrees =
  let locks = Array.of_list Rme_locks.Registry.all in
  QCheck.Test.make ~name:"offline checker validates every live trace" ~count:40
    QCheck.(triple (int_range 1 8) (int_range 0 10000) (int_range 0 1))
    (fun (n, seed, model_idx) ->
      let factory = locks.(seed mod Array.length locks) in
      let model = if model_idx = 0 then Rmr.Cc else Rmr.Dsm in
      QCheck.assume (Rme_sim.Lock_intf.supports factory ~n ~width:16);
      let r =
        H.run
          {
            (H.default_config ~n ~width:16 model) with
            superpassages = 2;
            policy = H.Random_policy seed;
            record_trace = true;
          }
          factory
      in
      r.H.ok
      && match C.check_result r with Some rep -> C.ok rep | None -> false)

(* Differential property: for random (lock, n, w, crash-prob, seed)
   configs, the live harness and the offline checker must agree — the
   trace validates, and in both cost models the RMR flags recorded in
   the trace sum to exactly the RMRs the harness charged. *)
let prop_differential_rmr_totals =
  let locks = Array.of_list Rme_locks.Registry.recoverable in
  QCheck.Test.make
    ~name:"random crashy configs: trace validates, trace RMRs = charged RMRs"
    ~count:30
    QCheck.(
      quad (int_range 2 6) (int_range 0 8) (int_range 0 25) (int_range 0 100000))
    (fun (n, w_jitter, prob_pct, seed) ->
      let factory = locks.(seed mod Array.length locks) in
      let width =
        min 62 (factory.Rme_sim.Lock_intf.min_width ~n + w_jitter)
      in
      QCheck.assume (Rme_sim.Lock_intf.supports factory ~n ~width);
      let prob = float_of_int prob_pct /. 100.0 in
      List.for_all
        (fun model ->
          let r =
            H.run
              {
                (H.default_config ~n ~width model) with
                superpassages = 2;
                policy = H.Random_policy seed;
                crashes =
                  (if prob = 0.0 then H.No_crashes
                   else H.Crash_prob { prob; seed = seed + 1 });
                allow_cs_crash = true;
                max_crashes_per_process = 3;
                record_trace = true;
              }
              factory
          in
          let checker_ok =
            match C.check_result r with Some rep -> C.ok rep | None -> false
          in
          let trace_rmrs =
            match r.H.trace with
            | None -> -1
            | Some t ->
                let c = ref 0 in
                Trace.iter
                  (function
                    | Trace.Step { rmr; _ } -> if rmr then incr c
                    | Trace.Crash _ -> ())
                  t;
                !c
          in
          let charged =
            Array.fold_left (fun acc (p : H.proc_stats) -> acc + p.H.total_rmrs) 0
              r.H.procs
          in
          r.H.ok && checker_ok && trace_rmrs = charged)
        Rmr.all_models)

(* The adversary's end-of-run witness, re-checked independently: replay
   the committed schedule without the processes the last round had
   removed, record the stepper's events and run the checker over them.
   The witness omits the directives of processes dropped at the last
   commit, whose invalidations the committed execution did include, so
   each survivor's re-derived RMR count is compared with the replay's
   own accounting, not with the stats stashed at commit; it must still
   reach the rounds the adversary reports. *)
let test_adversary_witness_validates () =
  let module A = Rme_core.Adversary in
  let module S = Rme_core.Schedule in
  let module Intset = Rme_util.Intset in
  List.iter
    (fun (factory : Rme_sim.Lock_intf.factory) ->
      List.iter
        (fun model ->
          List.iter
            (fun n ->
              let w = max 8 (factory.min_width ~n) in
              let r = A.run (A.default_config ~n ~width:w model) factory in
              let sched = r.A.schedule in
              let removed =
                List.fold_left (fun _ m -> m.A.meta_removed) Intset.empty sched.A.metas
              in
              let trace = Trace.create () in
              let play = S.fresh_play ~trace sched.A.ctx in
              S.replay play
                ~keep:(fun p -> not (Intset.mem p removed))
                (Rme_util.Vec.of_array sched.A.directives);
              let memory = Rme_core.Machine.memory play.S.m in
              let rep =
                C.check ~n ~width:w ~model ~owner:(Rme_memory.Memory.owner memory) trace
              in
              let name =
                Printf.sprintf "%s n=%d %s" factory.name n (Rmr.model_name model)
              in
              if Trace.length trace = 0 then Alcotest.failf "%s: empty witness" name;
              if not (C.ok rep) then
                Alcotest.failf "%s: checker errors: %s" name
                  (String.concat "; " rep.C.errors);
              let accountant = Rme_core.Machine.rmr play.S.m in
              Intset.iter
                (fun p ->
                  let recount = rep.C.rmrs.(p) in
                  if recount < r.A.rounds_completed then
                    Alcotest.failf "%s: survivor p%d recounts %d RMRs < %d rounds" name p
                      recount r.A.rounds_completed;
                  Alcotest.(check int)
                    (Printf.sprintf "%s: p%d recount = replay total" name p)
                    (Rmr.total accountant ~pid:p) recount)
                r.A.survivors)
            [ 8; 64 ])
        Rmr.all_models)
    Rme_locks.Registry.recoverable

let suite =
  ( "checker",
    [
      Alcotest.test_case "all locks validate" `Quick test_all_locks_validate;
      Alcotest.test_case "crashy traces validate" `Quick test_crashy_traces_validate;
      Alcotest.test_case "system-crash traces validate" `Quick
        test_system_crash_traces_validate;
      Alcotest.test_case "tampered value caught" `Quick test_tampered_value_caught;
      Alcotest.test_case "tampered RMR flag caught" `Quick test_tampered_rmr_caught;
      Alcotest.test_case "injected CS step caught" `Quick test_injected_cs_step_caught;
      Alcotest.test_case "report counts" `Quick test_report_counts;
      Alcotest.test_case "adversary witness validates" `Quick
        test_adversary_witness_validates;
      Qc.to_alcotest prop_checker_agrees;
      Qc.to_alcotest prop_differential_rmr_totals;
    ] )
