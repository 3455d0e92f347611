(* Tests for the multicore experiment engine: the fork-join map itself,
   the trial-cell memo cache and its counters, and the headline
   guarantee — experiment tables are bit-identical no matter how many
   domains compute the cells. *)

module Pool = Rme_util.Pool
module Engine = Rme_experiments.Engine
module E = Rme_experiments.Experiments
module Table = Rme_util.Table
module H = Rme_sim.Harness
module Rmr = Rme_memory.Rmr

(* ---------------- fork-join maps ---------------- *)

let test_pool_map_order () =
  (* Uneven work so domains finish out of order; results must still
     land in index order. *)
  let out =
    Pool.map_array ~jobs:4 100 (fun i ->
        let spin = if i mod 7 = 0 then 10_000 else 10 in
        let acc = ref 0 in
        for _ = 1 to spin do
          incr acc
        done;
        ignore !acc;
        i * i)
  in
  Alcotest.(check bool) "order" true (Array.to_list out = List.init 100 (fun i -> i * i))

let test_pool_map_list () =
  Alcotest.(check (list int)) "map_list" [ 2; 4; 6; 8 ]
    (Pool.map_list ~jobs:3 (fun x -> 2 * x) [ 1; 2; 3; 4 ])

(* [jobs <= 1] runs every task in the caller; only the engine resolves
   [jobs = 0] to the host's domain count. *)
let test_pool_sequential_paths () =
  let self () = (Domain.self () :> int) in
  let me = self () in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d runs in the caller" jobs)
        true
        (Pool.map_array ~jobs 5 (fun _ -> self ()) = Array.make 5 me))
    [ 1; 0; -3 ];
  Alcotest.(check bool) "one task runs in the caller" true
    (Pool.map_array ~jobs:4 1 (fun _ -> self ()) = [| me |]);
  Alcotest.(check bool) "empty map" true (Pool.map_array ~jobs:4 0 (fun i -> i) = [||]);
  Alcotest.(check int) "engine jobs 1" 1 (Engine.jobs (Engine.create ~jobs:1 ()));
  Alcotest.(check bool) "engine auto-detect positive" true
    (Engine.jobs (Engine.create ~jobs:0 ()) >= 1)

exception Boom of int

let test_pool_exception () =
  (match Pool.map_array ~jobs:4 20 (fun i -> if i = 13 then raise (Boom i) else i) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom 13 -> ());
  Alcotest.(check bool) "next map unaffected" true
    (Pool.map_array ~jobs:4 8 (fun i -> i + 1) = [| 1; 2; 3; 4; 5; 6; 7; 8 |])

(* Every map joins its helpers before it returns, raising or not. 200
   maps whose helpers stayed alive would pass OCaml 5.1's cap of 128
   live domains, and a helper kept reachable after its map would leave
   words behind it. *)
let test_pool_no_domain_outlives_map () =
  let running = Atomic.make 0 and most = Atomic.make 0 in
  let task i =
    let now = Atomic.fetch_and_add running 1 + 1 in
    let rec raise_most () =
      let m = Atomic.get most in
      if now > m && not (Atomic.compare_and_set most m now) then raise_most ()
    in
    raise_most ();
    Domain.cpu_relax ();
    Atomic.decr running;
    i
  in
  let map k =
    let f i = if k = 100 && i = 2 then raise (Boom i) else task i in
    match Pool.map_array ~jobs:2 4 f with
    | out -> Alcotest.(check bool) "map result" true (out = [| 0; 1; 2; 3 |])
    | exception Boom 2 -> Alcotest.(check int) "only map 100 raises" 100 k
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  map 0;
  let before = live_words () in
  for k = 1 to 200 do
    map k
  done;
  let grown = live_words () - before in
  Alcotest.(check bool)
    (Printf.sprintf "live words grew by %d over 200 maps" grown)
    true (grown < 500);
  Alcotest.(check bool) "at most two tasks at once" true (Atomic.get most <= 2);
  Alcotest.(check bool) "normal map after" true
    (Pool.map_array ~jobs:2 8 (fun i -> i + 1) = [| 1; 2; 3; 4; 5; 6; 7; 8 |])

(* Chunk sizes come from the task count alone: about four chunks per
   domain, capped at 64. At jobs 4, n = 1000 gives chunk 62, n = 257
   gives 16, n = 100 gives 6 and n = 5 gives 1. *)
let test_pool_chunked () =
  List.iter
    (fun n ->
      let out = Pool.map_array ~jobs:4 n (fun i -> i * i) in
      Alcotest.(check bool)
        (Printf.sprintf "n = %d keeps order" n)
        true
        (Array.to_list out = List.init n (fun i -> i * i)))
    [ 5; 100; 257; 1000 ]

let test_pool_chunks_contiguous () =
  (* A chunk runs start to end on the domain that claimed it, so two
     neighbouring indices can only run on different domains across a
     chunk boundary — a multiple of 62 for n = 1000 at jobs 4. *)
  let ran_on =
    Pool.map_array ~jobs:4 1000 (fun _ ->
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
  done

let test_pool_chunked_exception () =
  (* Index 93 lies in the middle of the chunk [62, 124). *)
  (match Pool.map_array ~jobs:4 1000 (fun i -> if i = 93 then raise (Boom i) else i) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom 93 -> ());
  Alcotest.(check bool) "next map after chunked failure" true
    (Pool.map_array ~jobs:4 8 (fun i -> i + 1) = [| 1; 2; 3; 4; 5; 6; 7; 8 |])

(* ---------------- the memo cache and counters ---------------- *)

let mk_cell seed =
  Engine.cell ~seed ~n:2 ~width:16 ~model:Rmr.Cc Rme_locks.Tas.factory

let test_memo_counters () =
  let e = Engine.create ~jobs:2 () in
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
  Alcotest.(check int) "inline miss computes" 3 (Engine.counters e).Engine.computed

let test_memo_equals_direct () =
  (* The memoised result must be the plain harness result. *)
  let e = Engine.create ~jobs:4 () in
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
    r.Engine.mean_passage_rmr

let test_memo_keys () =
  (* A cell's memo entry is named by every knob of its config: changing
     any single one is a new entry, spelling out a default is not. *)
  let e = Engine.create ~jobs:1 () in
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
    (Engine.counters e).Engine.computed

(* A task of [Engine.map] may batch cells through the same engine, as
   perfbench's small-n-crash workload does: each task's inner prefetch
   of three distinct cells is itself a parallel map at jobs 2. *)
let test_nested_engine () =
  let run jobs =
    let e = Engine.create ~jobs () in
    let out =
      Engine.map e
        (fun t ->
          let cells = List.init 3 (fun j -> mk_cell ((10 * t) + j)) in
          Engine.prefetch e cells;
          List.map (Engine.get e) cells)
        [ 1; 2; 3; 4 ]
    in
    (out, Engine.counters e)
  in
  let seq, seq_counters = run 1 and par, par_counters = run 2 in
  Alcotest.(check bool) "results equal -j 1" true (seq = par);
  Alcotest.(check bool) "counters equal -j 1" true (seq_counters = par_counters);
  Alcotest.(check int) "every cell computed once" 12 par_counters.Engine.computed

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
  let seq = render_suite (Engine.create ~jobs:1 ()) in
  let par = render_suite (Engine.create ~jobs:4 ()) in
  let par' = render_suite (Engine.create ~jobs:4 ()) in
  Alcotest.(check string) "-j 4 == -j 1" seq par;
  Alcotest.(check string) "-j 4 reruns agree" par par'

let test_adversary_tables_bit_identical () =
  let render engine = render_all (E.e3_adversary_bound ~engine ~ns:[ 32 ] ~ws:[ 8 ] ()) in
  let seq = render (Engine.create ~jobs:1 ()) in
  let par = render (Engine.create ~jobs:4 ()) in
  Alcotest.(check string) "adversary cells shard deterministically" seq par

(* ---------------- stuck locks ---------------- *)

let test_deadlocked_cell_times_out () =
  (* Every cell runs under the harness's deterministic step budget, so a
     deadlocked lock is memoised as an explicit timed-out result. *)
  let e = Engine.create ~jobs:1 () in
  let c =
    Engine.cell ~seed:1 ~n:2 ~width:8 ~model:Rmr.Cc Test_harness.deadlock_factory
  in
  let r = Engine.get e c in
  Alcotest.(check bool) "timed out" true r.Engine.timed_out;
  Alcotest.(check bool) "not ok" false r.Engine.ok;
  Alcotest.(check int) "computed once" 1 (Engine.counters e).Engine.computed;
  ignore (Engine.get e c);
  Alcotest.(check int) "second get served from the memo" 1
    (Engine.counters e).Engine.computed

(* ---------------- cross-experiment cell sharing ---------------- *)

let test_e6_shares_e1_cells () =
  (* E6's defaults (seed 42, n=32, w=16, 2 super-passages) are E1 cells:
     after E1, E6 must be answered entirely from the memo. *)
  let e = Engine.create ~jobs:2 () in
  ignore (E.e1_lock_landscape ~engine:e ());
  let c0 = Engine.counters e in
  ignore (E.e6_model_comparison ~engine:e ());
  let c1 = Engine.counters e in
  Alcotest.(check int) "e6 computes nothing new" 0
    (c1.Engine.computed - c0.Engine.computed);
  Alcotest.(check bool) "e6 hits the cache" true
    (c1.Engine.cached > c0.Engine.cached)

let suite =
  ( "parallel",
    [
      Alcotest.test_case "pool: map_array keeps index order" `Quick test_pool_map_order;
      Alcotest.test_case "pool: map_list keeps order" `Quick test_pool_map_list;
      Alcotest.test_case "pool: sequential and auto paths" `Quick
        test_pool_sequential_paths;
      Alcotest.test_case "pool: task exception propagates" `Quick test_pool_exception;
      Alcotest.test_case "pool: no domain outlives a map" `Quick
        test_pool_no_domain_outlives_map;
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
      Alcotest.test_case "engine: nested batches inside map" `Quick test_nested_engine;
      Alcotest.test_case "tables bit-identical at -j 1/-j 4" `Quick
        test_tables_bit_identical;
      Alcotest.test_case "adversary tables bit-identical" `Quick
        test_adversary_tables_bit_identical;
      Alcotest.test_case "e6 served from e1's cells" `Quick test_e6_shares_e1_cells;
    ] )
