(* Crash-free correctness and RMR-shape tests for every lock, in both
   cost models, across schedules. *)

module H = Rme_sim.Harness
module Lock_intf = Rme_sim.Lock_intf
module Rmr = Rme_memory.Rmr
module Registry = Rme_locks.Registry
module Tree = Rme_locks.Tree

let run ?(n = 8) ?(w = 16) ?(sp = 3) ?(policy = H.Round_robin) model factory =
  H.run { (H.default_config ~n ~width:w model) with superpassages = sp; policy } factory

let assert_ok name (r : H.result) =
  if not r.H.ok then
    Alcotest.failf "%s: ok=false (completed=%b, violations=%s)" name r.H.completed
      (String.concat "; " r.H.violations)

(* Every lock, both models, several seeds: mutual exclusion + progress. *)
let test_all_locks_all_models () =
  List.iter
    (fun (factory : Lock_intf.factory) ->
      List.iter
        (fun model ->
          List.iter
            (fun policy ->
              let r = run ~n:8 ~sp:3 ~policy model factory in
              assert_ok factory.Lock_intf.name r)
            [ H.Round_robin; H.Random_policy 42; H.Random_policy 7; H.Random_policy 999 ])
        Rmr.all_models)
    Registry.all

let test_various_n () =
  List.iter
    (fun (factory : Lock_intf.factory) ->
      List.iter
        (fun n ->
          let r = run ~n ~sp:2 ~policy:(H.Random_policy 3) Rmr.Cc factory in
          assert_ok (Printf.sprintf "%s n=%d" factory.Lock_intf.name n) r)
        [ 1; 2; 3; 5; 16; 33 ])
    Registry.all

(* Width edge: every lock at its own minimum width. *)
let test_min_width () =
  List.iter
    (fun (factory : Lock_intf.factory) ->
      let n = 6 in
      let w = factory.Lock_intf.min_width ~n in
      let r = run ~n ~w ~sp:2 ~policy:(H.Random_policy 11) Rmr.Cc factory in
      assert_ok (Printf.sprintf "%s at w=%d" factory.Lock_intf.name w) r)
    Registry.all

(* MCS is the O(1)-RMR lock in DSM: constant per passage regardless of n. *)
let test_mcs_dsm_constant () =
  let rmr_at n =
    let r = run ~n ~sp:2 Rmr.Dsm Rme_locks.Mcs.factory in
    assert_ok "mcs" r;
    r.H.max_passage_rmr
  in
  let r8 = rmr_at 8 and r32 = rmr_at 32 in
  Alcotest.(check bool) "constant in n" true (r32 <= r8 + 1);
  Alcotest.(check bool) "small constant" true (r32 <= 6)

(* The recoverable tournament is O(log n): growth from n to 4n is bounded
   by a constant number of extra levels. *)
let test_rtournament_log_shape () =
  let rmr_at n =
    let r = run ~n ~sp:1 Rmr.Cc Rme_locks.Rtournament.factory in
    assert_ok "rtournament" r;
    r.H.max_passage_rmr
  in
  let r4 = rmr_at 4 and r16 = rmr_at 16 and r64 = rmr_at 64 in
  Alcotest.(check bool) "grows" true (r16 >= r4);
  (* log growth: doubling levels at most triples the cost here *)
  Alcotest.(check bool) "sub-linear" true (r64 < (r4 * 64 / 4));
  Alcotest.(check bool) "roughly log" true (r64 <= 3 * r16)

(* Katzan–Morrison: at fixed n, wider words mean fewer RMRs. *)
let test_km_width_tradeoff () =
  let rmr_at w =
    let r =
      run ~n:64 ~w ~sp:1 ~policy:(H.Random_policy 5) Rmr.Cc
        Rme_locks.Katzan_morrison.factory
    in
    assert_ok "km" r;
    r.H.max_passage_rmr
  in
  let narrow = rmr_at 2 and mid = rmr_at 8 and wide = rmr_at 62 in
  Alcotest.(check bool)
    (Printf.sprintf "monotone-ish: %d >= %d >= %d" narrow mid wide)
    true
    (narrow >= mid && mid >= wide)

(* Ticket lock is FIFO: under round-robin, CS grants follow ticket order. *)
let test_ticket_fifo () =
  let r = run ~n:6 ~sp:1 Rmr.Cc Rme_locks.Ticket.factory in
  assert_ok "ticket" r

(* Tree helper. *)
let test_tree_indexing () =
  Alcotest.(check int) "pow2 of 5" 8 (Tree.pow2_ceil 5);
  Alcotest.(check int) "pow2 of 8" 8 (Tree.pow2_ceil 8);
  Alcotest.(check int) "levels n=1" 0 (Tree.levels ~n:1);
  Alcotest.(check int) "levels n=2" 1 (Tree.levels ~n:2);
  Alcotest.(check int) "levels n=5" 3 (Tree.levels ~n:5);
  Alcotest.(check int) "num_nodes n=8" 7 (Tree.num_nodes ~n:8);
  let path = Tree.path ~n:8 ~pid:5 in
  Alcotest.(check int) "path length" 3 (Array.length path);
  (* leaf 8+5=13 -> node 6 side 1 -> node 3 side 0 -> node 1 side 1 *)
  Alcotest.(check (list (pair int int))) "path content"
    [ (6, 1); (3, 0); (1, 1) ]
    (Array.to_list path)

let test_tree_paths_end_at_root () =
  for n = 2 to 17 do
    for pid = 0 to n - 1 do
      let path = Tree.path ~n ~pid in
      let root, _ = path.(Array.length path - 1) in
      Alcotest.(check int) "root is node 1" 1 root
    done
  done

let test_tree_siblings_differ () =
  (* Two processes sharing their lowest node must arrive on different sides. *)
  let n = 8 in
  let p0 = Tree.path ~n ~pid:0 and p1 = Tree.path ~n ~pid:1 in
  let n0, s0 = p0.(0) and n1, s1 = p1.(0) in
  Alcotest.(check int) "same node" n0 n1;
  Alcotest.(check bool) "different sides" true (s0 <> s1)

let prop_tree_path_valid =
  QCheck.Test.make ~name:"tree paths are parent chains"
    QCheck.(pair (int_range 2 64) (int_range 0 63))
    (fun (n, pid) ->
      QCheck.assume (pid < n);
      let path = Tree.path ~n ~pid in
      let ok = ref true in
      for i = 0 to Array.length path - 2 do
        let node, _ = path.(i) in
        let parent, _ = path.(i + 1) in
        if node / 2 <> parent then ok := false
      done;
      !ok)

(* Registry sanity. *)
let test_registry () =
  Alcotest.(check int) "11 locks" 11 (List.length Registry.all);
  Alcotest.(check int) "5 individually recoverable" 5 (List.length Registry.recoverable);
  Alcotest.(check (list string)) "Theorem 1's locks, in registry order"
    [ "rcas"; "rstamp"; "rtournament"; "katzan-morrison"; "sublog-tournament" ]
    (List.map (fun f -> f.Rme_sim.Lock_intf.name) Registry.recoverable);
  Alcotest.(check int) "1 system-wide" 1 (List.length Registry.system_wide);
  Alcotest.(check bool) "find mcs" true (Registry.find "mcs" <> None);
  Alcotest.(check bool) "find nothing" true (Registry.find "nope" = None);
  Alcotest.(check bool) "names unique" true
    (let names = Registry.names () in
     List.length names = List.length (List.sort_uniq compare names))

(* Fairness: queue locks are FIFO from their doorway (the ticket draw /
   queue enqueue). Measured from the *request* instant, the doorway adds
   at most another n - 1 bypasses, so the bound is 2n - 2. *)
let test_queue_locks_fifo () =
  List.iter
    (fun name ->
      match Registry.find name with
      | None -> Alcotest.failf "missing lock %s" name
      | Some factory ->
          List.iter
            (fun seed ->
              let n = 8 in
              let cfg =
                {
                  (H.default_config ~n ~width:16 Rmr.Cc) with
                  superpassages = 5;
                  policy = H.Random_policy seed;
                }
              in
              let r = H.run cfg factory in
              assert_ok name r;
              Array.iter
                (fun (p : H.proc_stats) ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s seed=%d p%d bypass %d <= 2n-2" name seed
                       p.H.pid p.H.max_bypass)
                    true (p.H.max_bypass <= (2 * n) - 2))
                r.H.procs)
            [ 1; 2; 3; 4; 5 ])
    [ "ticket"; "mcs"; "clh" ]

(* Broad fuzz: random lock, size, width, model, policy — everything must
   stay correct, crash-free. *)
let prop_lock_fuzz =
  let locks = Array.of_list Registry.all in
  QCheck.Test.make ~name:"any lock, any configuration, stays correct" ~count:80
    QCheck.(
      quad (int_range 1 12) (int_range 1 62) (int_range 0 100000) (int_range 0 1))
    (fun (n, w, seed, model_idx) ->
      let factory = locks.(seed mod Array.length locks) in
      let model = if model_idx = 0 then Rmr.Cc else Rmr.Dsm in
      QCheck.assume (Lock_intf.supports factory ~n ~width:w);
      let r = run ~n ~w ~sp:2 ~policy:(H.Random_policy seed) model factory in
      r.H.ok)

(* High contention stress: n processes, many super-passages, random. *)
let test_stress_contention () =
  List.iter
    (fun (factory : Lock_intf.factory) ->
      let r = run ~n:12 ~sp:5 ~policy:(H.Random_policy 2024) Rmr.Cc factory in
      assert_ok (factory.Lock_intf.name ^ " stress") r)
    Registry.all

let suite =
  ( "locks",
    [
      Alcotest.test_case "all locks, all models, several schedules" `Quick
        test_all_locks_all_models;
      Alcotest.test_case "all locks across n" `Quick test_various_n;
      Alcotest.test_case "all locks at minimum width" `Quick test_min_width;
      Alcotest.test_case "mcs O(1) in DSM" `Quick test_mcs_dsm_constant;
      Alcotest.test_case "rtournament O(log n) shape" `Quick test_rtournament_log_shape;
      Alcotest.test_case "km width tradeoff" `Quick test_km_width_tradeoff;
      Alcotest.test_case "ticket completes under contention" `Quick test_ticket_fifo;
      Alcotest.test_case "tree indexing" `Quick test_tree_indexing;
      Alcotest.test_case "tree paths reach root" `Quick test_tree_paths_end_at_root;
      Alcotest.test_case "tree siblings differ" `Quick test_tree_siblings_differ;
      Qc.to_alcotest prop_tree_path_valid;
      Alcotest.test_case "registry" `Quick test_registry;
      Alcotest.test_case "queue locks are FIFO" `Quick test_queue_locks_fifo;
      Qc.to_alcotest prop_lock_fuzz;
      Alcotest.test_case "contention stress" `Slow test_stress_contention;
    ] )
