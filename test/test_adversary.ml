(* Tests for the lower-bound adversary: against every recoverable lock
   and model it must force at least the Theorem 1 bound, keep survivors
   crash-free and CS-free, and every replay must stay consistent. *)

module A = Rme_core.Adversary
module T = Rme_core.Schedule_table
module Bounds = Rme_core.Bounds
module Rmr = Rme_memory.Rmr
module Intset = Rme_util.Intset

let recoverable = Rme_locks.Registry.recoverable

let run ?(n = 64) ?(w = 8) ?(model = Rmr.Cc) ?k factory =
  let cfg = A.default_config ~n ~width:w model in
  let cfg = match k with Some k -> { cfg with A.k } | None -> cfg in
  (A.run cfg factory, cfg)

let test_meets_bound_all_locks () =
  List.iter
    (fun (factory : Rme_sim.Lock_intf.factory) ->
      List.iter
        (fun model ->
          let r, _ = run ~model factory in
          let name =
            Printf.sprintf "%s %s" factory.Rme_sim.Lock_intf.name (Rmr.model_name model)
          in
          Alcotest.(check bool) (name ^ ": meets Theorem 1 bound") true
            (float_of_int r.A.rounds_completed >= r.A.predicted_lower_bound);
          Alcotest.(check bool) (name ^ ": survivors exist") true
            (not (Intset.is_empty r.A.survivors));
          Alcotest.(check int) (name ^ ": no escapes") 0 r.A.escaped;
          Alcotest.(check bool) (name ^ ": replays checked") true
            (r.A.replay_checked_steps > 0))
        Rmr.all_models)
    recoverable

let test_survivors_have_round_many_rmrs () =
  List.iter
    (fun (factory : Rme_sim.Lock_intf.factory) ->
      let r, _ = run factory in
      Alcotest.(check bool)
        (factory.Rme_sim.Lock_intf.name ^ ": min survivor RMRs >= rounds")
        true
        (r.A.survivor_min_rmrs >= r.A.rounds_completed))
    recoverable

let test_round_bookkeeping () =
  let r, _ = run Rme_locks.Rcas.factory in
  List.iter
    (fun (ri : A.round_info) ->
      Alcotest.(check int) "population conserved" ri.A.active_before
        (ri.A.active_after + ri.A.newly_finished + ri.A.newly_removed);
      Alcotest.(check bool) "rounds make progress or hold" true
        (ri.A.active_after <= ri.A.active_before))
    r.A.rounds;
  Alcotest.(check int) "round list length" r.A.rounds_completed
    (List.length r.A.rounds)

(* The decay bound of Lemma 6: n_i >= n_{i-1} / w^{O(1)} — checked with
   the concrete k: each round keeps at least active_before/(2k) of its
   actives (or ends the construction). *)
let test_decay_bound () =
  List.iter
    (fun (factory : Rme_sim.Lock_intf.factory) ->
      let r, cfg = run factory in
      List.iter
        (fun (ri : A.round_info) ->
          if ri.A.active_after >= 2 then
            Alcotest.(check bool)
              (Printf.sprintf "%s round %d decay: %d -> %d (k=%d)"
                 factory.Rme_sim.Lock_intf.name ri.A.index ri.A.active_before
                 ri.A.active_after cfg.A.k)
              true
              (ri.A.active_after * 2 * cfg.A.k >= ri.A.active_before))
        r.A.rounds)
    recoverable

let test_km_rounds_decrease_with_width () =
  let rounds w =
    let r, _ = run ~n:1024 ~w Rme_locks.Katzan_morrison.factory in
    r.A.rounds_completed
  in
  let r4 = rounds 4 and r8 = rounds 8 and r16 = rounds 16 in
  Alcotest.(check bool)
    (Printf.sprintf "rounds fall with w: %d >= %d >= %d" r4 r8 r16)
    true
    (r4 >= r8 && r8 >= r16);
  Alcotest.(check bool) "strictly falls over the sweep" true (r4 > r16)

let test_rounds_grow_with_n () =
  let rounds n =
    let r, _ = run ~n ~w:8 Rme_locks.Rtournament.factory in
    r.A.rounds_completed
  in
  Alcotest.(check bool) "more processes, more rounds" true (rounds 256 > rounds 16)

let test_k_parameter () =
  (* Larger k merges more processes per hide group: fewer survivors per
     high round but the bound still holds. *)
  List.iter
    (fun k ->
      let r, _ = run ~k Rme_locks.Rcas.factory in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d meets bound" k)
        true
        (float_of_int r.A.rounds_completed >= r.A.predicted_lower_bound))
    [ 9; 16; 32 ]

let test_k_validation () =
  let cfg = { (A.default_config ~n:8 ~width:8 Rmr.Cc) with A.k = 1 } in
  Alcotest.check_raises "k < 2 rejected" (Invalid_argument "Adversary.run: k must be >= 2")
    (fun () -> ignore (A.run cfg Rme_locks.Rcas.factory))

let test_non_recoverable_rejected () =
  let cfg = A.default_config ~n:8 ~width:8 Rmr.Cc in
  Alcotest.check_raises "mcs rejected"
    (Invalid_argument "Adversary.run: lock mcs is not recoverable") (fun () ->
      ignore (A.run cfg Rme_locks.Mcs.factory))

let test_determinism () =
  let go () =
    let r, _ = run ~n:128 Rme_locks.Katzan_morrison.factory in
    (r.A.rounds_completed, Intset.to_sorted_list r.A.survivors, r.A.survivor_min_rmrs)
  in
  Alcotest.(check bool) "identical reruns" true (go () = go ())

let test_schedule_exported () =
  let r, _ = run ~n:16 Rme_locks.Rcas.factory in
  let s = r.A.schedule in
  Alcotest.(check bool) "directives present" true (Array.length s.A.directives > 0);
  Alcotest.(check int) "one meta per round" r.A.rounds_completed
    (List.length s.A.metas);
  (* boundaries are increasing and end at the full schedule *)
  let rec increasing = function
    | a :: b :: rest -> a.A.boundary <= b.A.boundary && increasing (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "boundaries increase" true (increasing s.A.metas)

(* ---------------- schedule-table invariants ---------------- *)

let test_invariants_small_n () =
  List.iter
    (fun (factory : Rme_sim.Lock_intf.factory) ->
      List.iter
        (fun model ->
          let cfg = { (A.default_config ~n:8 ~width:16 model) with A.k = 4 } in
          let r = A.run cfg factory in
          let rep = T.check r.A.schedule in
          if not (T.ok rep) then
            Alcotest.failf "%s %s: %s" factory.Rme_sim.Lock_intf.name
              (Rmr.model_name model)
              (Format.asprintf "%a" T.pp_report rep);
          Alcotest.(check bool) "columns checked" true (rep.T.columns_checked > 0))
        Rmr.all_models)
    recoverable

(* At n = 64 with the default k the committed prefixes are much longer
   than at n = 8, and every column of a checked round is replayed from
   [Machine.reset]. *)
let test_invariants_n64 () =
  List.iter
    (fun (factory : Rme_sim.Lock_intf.factory) ->
      List.iter
        (fun model ->
          let r = A.run (A.default_config ~n:64 ~width:8 model) factory in
          let rep = T.check r.A.schedule in
          let name =
            Printf.sprintf "%s %s" factory.Rme_sim.Lock_intf.name (Rmr.model_name model)
          in
          if not (T.ok rep) then
            Alcotest.failf "%s: %s" name (Format.asprintf "%a" T.pp_report rep);
          Alcotest.(check bool) (name ^ ": rounds checked") true (rep.T.rounds_checked > 0))
        Rmr.all_models)
    recoverable

let test_invariants_n10 () =
  let cfg = { (A.default_config ~n:10 ~width:16 Rmr.Cc) with A.k = 4 } in
  let r = A.run cfg Rme_locks.Rtournament.factory in
  let rep = T.check r.A.schedule in
  Alcotest.(check bool) "no violations" true (T.ok rep);
  Alcotest.(check bool) "thousands of assertions" true (rep.T.assertions > 1000)

(* ---------------- bounds formulas ---------------- *)

let test_bounds_formulas () =
  Alcotest.(check (float 1e-9)) "log2 8" 3.0 (Bounds.log2 8.0);
  Alcotest.(check (float 1e-9)) "log_n 1024" 10.0 (Bounds.log_n ~n:1024);
  Alcotest.(check (float 1e-9)) "km n=256 w=16" 2.0 (Bounds.km_upper ~n:256 ~w:16);
  Alcotest.(check (float 1e-9)) "km n=257 w=16" 3.0 (Bounds.km_upper ~n:257 ~w:16);
  Alcotest.(check (float 1e-9)) "km trivial" 0.0 (Bounds.km_upper ~n:1 ~w:8);
  Alcotest.(check int) "levels b=8 n=64" 2 (Bounds.tree_levels ~n:64 ~b:8);
  Alcotest.(check int) "levels b=8 n=65" 3 (Bounds.tree_levels ~n:65 ~b:8);
  Alcotest.(check int) "levels n=1" 0 (Bounds.tree_levels ~n:1 ~b:8);
  (* min(log_w n, log/loglog): for w >= log n the first term wins *)
  Alcotest.(check bool) "theorem1 <= km" true
    (Bounds.theorem1_lower ~n:4096 ~w:16 <= Bounds.km_upper ~n:4096 ~w:16);
  Alcotest.(check bool) "theorem1 <= log/loglog" true
    (Bounds.theorem1_lower ~n:4096 ~w:2 <= Bounds.log_over_loglog ~n:4096 +. 1e-9);
  Alcotest.(check bool) "crossover near log n" true
    (let c = Bounds.crossover_width ~n:65536 in
     c >= 14 && c <= 18)

let prop_adversary_meets_bound =
  (* Random (lock, n, w, model): the construction always reaches the
     Theorem 1 bound with zero escapes and consistent replays. *)
  let locks = Array.of_list recoverable in
  QCheck.Test.make ~name:"adversary meets the bound for random configurations"
    ~count:25
    QCheck.(triple (int_range 16 256) (int_range 2 32) (int_range 0 100000))
    (fun (n, w, seed) ->
      let factory = locks.(seed mod Array.length locks) in
      let model = if seed mod 2 = 0 then Rmr.Cc else Rmr.Dsm in
      QCheck.assume (Rme_sim.Lock_intf.supports factory ~n ~width:w);
      let cfg = A.default_config ~n ~width:w model in
      let r = A.run cfg factory in
      float_of_int r.A.rounds_completed >= r.A.predicted_lower_bound
      && r.A.escaped = 0
      && r.A.survivor_min_rmrs >= r.A.rounds_completed)

let prop_theorem1_min =
  QCheck.Test.make ~name:"theorem1 formula is the min of its two terms"
    QCheck.(pair (int_range 2 100000) (int_range 2 62))
    (fun (n, w) ->
      let t = Bounds.theorem1_lower ~n ~w in
      t <= Bounds.km_upper ~n ~w +. 1e-9
      && t <= Float.max 1.0 (Bounds.log_over_loglog ~n) +. 1e-9
      && t >= 1.0 -. 1e-9)

let suite =
  ( "adversary",
    [
      Alcotest.test_case "meets Theorem 1 bound (all locks, both models)" `Quick
        test_meets_bound_all_locks;
      Alcotest.test_case "survivor RMRs >= rounds" `Quick
        test_survivors_have_round_many_rmrs;
      Alcotest.test_case "round bookkeeping" `Quick test_round_bookkeeping;
      Alcotest.test_case "per-round decay bound (Lemma 6 shape)" `Quick test_decay_bound;
      Alcotest.test_case "KM: rounds fall with word size" `Quick
        test_km_rounds_decrease_with_width;
      Alcotest.test_case "rounds grow with n" `Quick test_rounds_grow_with_n;
      Alcotest.test_case "k parameter sweep" `Quick test_k_parameter;
      Alcotest.test_case "k validation" `Quick test_k_validation;
      Alcotest.test_case "non-recoverable lock rejected" `Quick
        test_non_recoverable_rejected;
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "schedule exported" `Quick test_schedule_exported;
      Alcotest.test_case "invariants I1-I10 at n=8" `Slow test_invariants_small_n;
      Alcotest.test_case "invariants I1-I10 at n=10" `Slow test_invariants_n10;
      Alcotest.test_case "invariants I1-I10 at n=64, w=8" `Quick test_invariants_n64;
      Alcotest.test_case "bounds formulas" `Quick test_bounds_formulas;
      Qc.to_alcotest prop_adversary_meets_bound;
      Qc.to_alcotest prop_theorem1_min;
    ] )
