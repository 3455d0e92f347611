(* Tests for the multicore experiment engine: the domain pool itself,
   the trial-cell memo cache and its counters, and the headline
   guarantee — experiment tables are bit-identical no matter how many
   domains compute the cells. *)

module Pool = Rme_util.Pool
module Engine = Rme_experiments.Engine
module E = Rme_experiments.Experiments
module Table = Rme_util.Table
module H = Rme_sim.Harness
module Rmr = Rme_memory.Rmr

(* ---------------- the domain pool ---------------- *)

let with_pool ~jobs f =
  let p = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let test_pool_map_order () =
  with_pool ~jobs:4 (fun p ->
      (* Uneven work so domains finish out of order; results must still
         land in index order. *)
      let out =
        Pool.map_array p 100 (fun i ->
            let spin = if i mod 7 = 0 then 10_000 else 10 in
            let acc = ref 0 in
            for _ = 1 to spin do
              incr acc
            done;
            ignore !acc;
            i * i)
      in
      Alcotest.(check bool) "order" true
        (Array.to_list out = List.init 100 (fun i -> i * i)))

let test_pool_map_list () =
  with_pool ~jobs:3 (fun p ->
      Alcotest.(check (list int)) "map_list" [ 2; 4; 6; 8 ]
        (Pool.map_list p (fun x -> 2 * x) [ 1; 2; 3; 4 ]))

let test_pool_sequential_paths () =
  with_pool ~jobs:1 (fun p ->
      Alcotest.(check int) "jobs 1" 1 (Pool.jobs p);
      Alcotest.(check bool) "seq map" true
        (Pool.map_array p 5 (fun i -> i) = [| 0; 1; 2; 3; 4 |]));
  with_pool ~jobs:0 (fun p ->
      Alcotest.(check bool) "auto-detect positive" true (Pool.jobs p >= 1);
      Alcotest.(check bool) "empty map" true (Pool.map_array p 0 (fun i -> i) = [||]))

exception Boom of int

let test_pool_exception () =
  with_pool ~jobs:4 (fun p ->
      (match Pool.map_array p 20 (fun i -> if i = 13 then raise (Boom i) else i) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 13 -> ());
      (* The pool must survive a failed map and keep working. *)
      Alcotest.(check bool) "usable after" true
        (Pool.map_array p 8 (fun i -> i + 1) = [| 1; 2; 3; 4; 5; 6; 7; 8 |]))

let test_pool_shutdown_idempotent () =
  let p = Pool.create ~jobs:3 in
  Pool.shutdown p;
  Pool.shutdown p

(* A pool shut down is no longer held by the exit-time registry of
   running pools. Each two-domain pool spawns its helper at its first
   map; one that stayed reachable would leave tens of words behind it. *)
let test_pool_shutdown_releases () =
  let cycle () =
    with_pool ~jobs:2 (fun p -> ignore (Pool.map_array p 4 (fun i -> i)))
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  cycle ();
  let before = live_words () in
  for _ = 1 to 100 do
    cycle ()
  done;
  let grown = live_words () - before in
  Alcotest.(check bool)
    (Printf.sprintf "live words grew by %d over 100 pools" grown)
    true (grown < 500)

(* Chunk sizes come from the task count alone: about four chunks per
   domain, capped at 64. At jobs 4, n = 1000 gives chunk 62, n = 257
   gives 16, n = 100 gives 6 and n = 5 gives 1. *)
let test_pool_chunked () =
  List.iter
    (fun n ->
      with_pool ~jobs:4 (fun p ->
          let out = Pool.map_array p n (fun i -> i * i) in
          Alcotest.(check bool)
            (Printf.sprintf "n = %d keeps order" n)
            true
            (Array.to_list out = List.init n (fun i -> i * i))))
    [ 5; 100; 257; 1000 ]

let test_pool_chunks_contiguous () =
  (* A chunk runs start to end on the domain that claimed it, so two
     neighbouring indices can only run on different domains across a
     chunk boundary — a multiple of 62 for n = 1000 at jobs 4. *)
  with_pool ~jobs:4 (fun p ->
      let ran_on =
        Pool.map_array p 1000 (fun _ ->
            let acc = ref 0 in
            for k = 1 to 2_000 do
              acc := !acc + k
            done;
            ignore (Sys.opaque_identity !acc);
            (Domain.self () :> int))
      in
      for i = 0 to 998 do
        if ran_on.(i) <> ran_on.(i + 1) && (i + 1) mod 62 <> 0 then
          Alcotest.failf "indices %d and %d split across domains inside a chunk" i (i + 1)
      done)

let test_pool_chunked_exception () =
  (* Index 93 lies in the middle of the chunk [62, 124). *)
  with_pool ~jobs:4 (fun p ->
      (match Pool.map_array p 1000 (fun i -> if i = 93 then raise (Boom i) else i) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 93 -> ());
      Alcotest.(check bool) "usable after chunked failure" true
        (Pool.map_array p 8 (fun i -> i + 1) = [| 1; 2; 3; 4; 5; 6; 7; 8 |]))

(* ---------------- the memo cache and counters ---------------- *)

let mk_cell seed =
  Engine.cell ~seed ~n:2 ~width:16 ~model:Rmr.Cc Rme_locks.Tas.factory

let with_engine ~jobs f =
  let e = Engine.create ~jobs () in
  Fun.protect ~finally:(fun () -> Engine.shutdown e) (fun () -> f e)

let test_memo_counters () =
  with_engine ~jobs:2 (fun e ->
      Engine.prefetch e [ mk_cell 1; mk_cell 2; mk_cell 1 ];
      let c = Engine.counters e in
      Alcotest.(check int) "computed = unique misses" 2 c.Engine.computed;
      Alcotest.(check int) "cached = duplicates" 1 c.Engine.cached;
      Engine.prefetch e [ mk_cell 1; mk_cell 2; mk_cell 1 ];
      let c = Engine.counters e in
      Alcotest.(check int) "nothing recomputed" 2 c.Engine.computed;
      Alcotest.(check int) "all served from cache" 4 c.Engine.cached;
      (* [get] of a memoised cell touches no counter. *)
      ignore (Engine.get e (mk_cell 1));
      let c' = Engine.counters e in
      Alcotest.(check bool) "get is counter-neutral" true (c = c');
      (* [get] of a novel cell computes inline. *)
      ignore (Engine.get e (mk_cell 3));
      Alcotest.(check int) "inline miss computes" 3 (Engine.counters e).Engine.computed)

let test_memo_equals_direct () =
  (* The memoised result must be the plain harness result. *)
  with_engine ~jobs:4 (fun e ->
      let cell =
        Engine.cell ~superpassages:2 ~seed:11 ~n:5 ~width:16 ~model:Rmr.Dsm
          Rme_locks.Mcs.factory
      in
      Engine.prefetch e [ cell ];
      let r = Engine.get e cell in
      let direct =
        H.run
          {
            (H.default_config ~n:5 ~width:16 Rmr.Dsm) with
            superpassages = 2;
            policy = H.Random_policy 11;
          }
          Rme_locks.Mcs.factory
      in
      Alcotest.(check bool) "ok" direct.H.ok r.Engine.ok;
      Alcotest.(check int) "max" direct.H.max_passage_rmr r.Engine.max_passage_rmr;
      Alcotest.(check (float 1e-9)) "mean" direct.H.mean_passage_rmr
        r.Engine.mean_passage_rmr)

let test_memo_keys () =
  (* A cell's memo entry is named by every knob of its config: changing
     any single one is a new entry, spelling out a default is not. *)
  with_engine ~jobs:1 (fun e ->
      let rcas = Rme_locks.Rcas.factory in
      let crashes seed = H.Crash_prob { prob = 0.2; seed } in
      let cell ?(seed = 1) ?superpassages ?(crashes = crashes 5) ?allow_cs_crash
          ?max_crashes () =
        Engine.cell ?superpassages ~crashes ?allow_cs_crash ?max_crashes ~seed ~n:2
          ~width:16 ~model:Rmr.Cc rcas
      in
      let variants =
        [
          cell ();
          cell ~seed:2 ();
          cell ~superpassages:2 ();
          cell ~crashes:(crashes 6) ();
          cell ~allow_cs_crash:true ();
          cell ~max_crashes:2 ();
        ]
      in
      Engine.prefetch e variants;
      Alcotest.(check int) "one entry per variant" 6 (Engine.counters e).Engine.computed;
      Engine.prefetch e
        (cell ~superpassages:1 ~allow_cs_crash:false ~max_crashes:1 () :: variants);
      let c = Engine.counters e in
      Alcotest.(check int) "explicit defaults share the entry" 6 c.Engine.computed;
      Alcotest.(check int) "all served from the memo" 7 c.Engine.cached;
      let adv ?k () = Engine.adv_cell ?k ~n:8 ~width:8 ~model:Rmr.Cc rcas in
      let default_k = (Rme_core.Adversary.default_config ~n:8 ~width:8 Rmr.Cc).k in
      Engine.prefetch_adv e [ adv () ];
      Engine.prefetch_adv e [ adv ~k:default_k () ];
      Alcotest.(check int) "~k:<default> shares the default's entry" 7
        (Engine.counters e).Engine.computed;
      Engine.prefetch_adv e [ adv ~k:4 () ];
      Alcotest.(check int) "another k is a new entry" 8
        (Engine.counters e).Engine.computed)

(* ---------------- bit-identical tables at any -j ---------------- *)

let render_all tables = String.concat "\n" (List.map Table.render tables)

(* Render the reduced-parameter versions of E1, E2 and E5 (the shapes
   the issue pins down: crash-free sweeps and the probabilistic-crash
   experiment) on a given engine. *)
let render_suite engine =
  render_all
    (E.e1_lock_landscape ~engine ~ns:[ 2; 4; 8 ] ()
    @ E.e2_word_size_tradeoff ~engine ~ns:[ 8; 16 ] ~ws:[ 2; 8; 32 ] ()
    @ E.e5_crash_cost ~engine ~n:4 ~probs:[ 0.0; 0.05 ] ())

let test_tables_bit_identical () =
  let seq = with_engine ~jobs:1 render_suite in
  let par = with_engine ~jobs:4 render_suite in
  let par' = with_engine ~jobs:4 render_suite in
  Alcotest.(check string) "-j 4 == -j 1" seq par;
  Alcotest.(check string) "-j 4 reruns agree" par par'

let test_adversary_tables_bit_identical () =
  let render engine = render_all (E.e3_adversary_bound ~engine ~ns:[ 32 ] ~ws:[ 8 ] ()) in
  let seq = with_engine ~jobs:1 render in
  let par = with_engine ~jobs:4 render in
  Alcotest.(check string) "adversary cells shard deterministically" seq par

(* ---------------- stuck locks ---------------- *)

let test_deadlocked_cell_times_out () =
  (* Every cell runs under the harness's deterministic step budget, so a
     deadlocked lock is memoised as an explicit timed-out result. *)
  with_engine ~jobs:1 (fun e ->
      let c =
        Engine.cell ~seed:1 ~n:2 ~width:8 ~model:Rmr.Cc Test_harness.deadlock_factory
      in
      let r = Engine.get e c in
      Alcotest.(check bool) "timed out" true r.Engine.timed_out;
      Alcotest.(check bool) "not ok" false r.Engine.ok;
      Alcotest.(check int) "computed once" 1 (Engine.counters e).Engine.computed;
      ignore (Engine.get e c);
      Alcotest.(check int) "second get served from the memo" 1
        (Engine.counters e).Engine.computed)

(* ---------------- cross-experiment cell sharing ---------------- *)

let test_e6_shares_e1_cells () =
  (* E6's defaults (seed 42, n=32, w=16, 2 super-passages) are E1 cells:
     after E1, E6 must be answered entirely from the memo. *)
  with_engine ~jobs:2 (fun e ->
      ignore (E.e1_lock_landscape ~engine:e ());
      let c0 = Engine.counters e in
      ignore (E.e6_model_comparison ~engine:e ());
      let c1 = Engine.counters e in
      Alcotest.(check int) "e6 computes nothing new" 0
        (c1.Engine.computed - c0.Engine.computed);
      Alcotest.(check bool) "e6 hits the cache" true
        (c1.Engine.cached > c0.Engine.cached))

let suite =
  ( "parallel",
    [
      Alcotest.test_case "pool: map_array keeps index order" `Quick test_pool_map_order;
      Alcotest.test_case "pool: map_list keeps order" `Quick test_pool_map_list;
      Alcotest.test_case "pool: sequential and auto paths" `Quick
        test_pool_sequential_paths;
      Alcotest.test_case "pool: task exception propagates" `Quick test_pool_exception;
      Alcotest.test_case "pool: shutdown is idempotent" `Quick
        test_pool_shutdown_idempotent;
      Alcotest.test_case "pool: shutdown releases the pool" `Quick
        test_pool_shutdown_releases;
      Alcotest.test_case "pool: chunked scheduling keeps order" `Quick test_pool_chunked;
      Alcotest.test_case "pool: chunks are contiguous index runs" `Quick
        test_pool_chunks_contiguous;
      Alcotest.test_case "pool: chunked exception propagates" `Quick
        test_pool_chunked_exception;
      Alcotest.test_case "engine: deadlocked cell memoised as timed out" `Quick
        test_deadlocked_cell_times_out;
      Alcotest.test_case "engine: memo counters" `Quick test_memo_counters;
      Alcotest.test_case "engine: memo result = direct harness run" `Quick
        test_memo_equals_direct;
      Alcotest.test_case "engine: memo keys" `Quick test_memo_keys;
      Alcotest.test_case "tables bit-identical at -j 1/-j 4" `Quick
        test_tables_bit_identical;
      Alcotest.test_case "adversary tables bit-identical" `Quick
        test_adversary_tables_bit_identical;
      Alcotest.test_case "e6 served from e1's cells" `Quick test_e6_shares_e1_cells;
    ] )
