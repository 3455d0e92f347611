(* Tests for the operation algebra, the w-bit memory, CC cache state and
   RMR accounting in both models. *)

module Op = Rme_memory.Op
module Memory = Rme_memory.Memory
module Cache = Rme_memory.Cache
module Rmr = Rme_memory.Rmr
module Intset = Rme_util.Intset

(* ---------------- operations ---------------- *)

let test_op_read () =
  Alcotest.(check int) "read keeps value" 5 (Op.next_value ~width:8 Op.Read 5);
  Alcotest.(check bool) "read is a read" true (Op.is_read Op.Read)

let test_op_write () =
  Alcotest.(check int) "write stores" 9 (Op.next_value ~width:8 (Op.Write 9) 5);
  Alcotest.(check int) "write truncates" 1 (Op.next_value ~width:4 (Op.Write 17) 5);
  Alcotest.(check bool) "write not a read" false (Op.is_read (Op.Write 9))

let test_op_cas () =
  Alcotest.(check int) "cas success" 7
    (Op.next_value ~width:8 (Op.Cas { expected = 5; desired = 7 }) 5);
  Alcotest.(check int) "cas failure" 5
    (Op.next_value ~width:8 (Op.Cas { expected = 6; desired = 7 }) 5)

let test_op_fas () =
  Alcotest.(check int) "fas stores" 3 (Op.next_value ~width:8 (Op.Fas 3) 200)

let test_op_faa () =
  Alcotest.(check int) "faa adds" 8 (Op.next_value ~width:8 (Op.Faa 3) 5);
  Alcotest.(check int) "faa wraps" 1 (Op.next_value ~width:4 (Op.Faa 2) 15);
  Alcotest.(check int) "faa negative" 4 (Op.next_value ~width:4 (Op.Faa (-1)) 5);
  Alcotest.(check int) "fai" 6 (Op.next_value ~width:8 Op.fai 5)

let test_op_rmw () =
  let double = Op.Rmw { name = "double"; f = (fun ~width:_ v -> v * 2) } in
  Alcotest.(check int) "rmw applies" 10 (Op.next_value ~width:8 double 5);
  Alcotest.(check int) "rmw truncated" 4 (Op.next_value ~width:4 double 10)

(* ---------------- memory ---------------- *)

let test_memory_alloc_and_apply () =
  let m = Memory.create ~width:8 in
  let l = Memory.alloc m ~init:5 in
  Alcotest.(check int) "initial value" 5 (Memory.value m l);
  Alcotest.(check (option int)) "no accessor yet" None (Memory.last_accessor m l);
  let old = Memory.apply m ~pid:3 l (Op.Faa 2) in
  Alcotest.(check int) "returns pre-op value" 5 old;
  Alcotest.(check int) "stored" 7 (Memory.value m l);
  Alcotest.(check (option int)) "accessor recorded" (Some 3) (Memory.last_accessor m l)

let test_memory_width_enforced () =
  let m = Memory.create ~width:3 in
  let l = Memory.alloc m ~init:100 in
  Alcotest.(check int) "init truncated" 4 (Memory.value m l);
  ignore (Memory.apply m ~pid:0 l (Op.Write 255));
  Alcotest.(check int) "write truncated" 7 (Memory.value m l)

let test_memory_owner () =
  let m = Memory.create ~width:8 in
  let l0 = Memory.alloc m ~owner:2 ~init:0 in
  let l1 = Memory.alloc m ~init:0 in
  Alcotest.(check (option int)) "owned" (Some 2) (Memory.owner m l0);
  Alcotest.(check (option int)) "unowned" None (Memory.owner m l1)

let test_memory_reset () =
  let m = Memory.create ~width:8 in
  let l = Memory.alloc m ~init:9 in
  ignore (Memory.apply m ~pid:1 l (Op.Write 4));
  Memory.reset_values m;
  Alcotest.(check int) "value restored" 9 (Memory.value m l);
  Alcotest.(check (option int)) "accessor cleared" None (Memory.last_accessor m l)

let test_memory_alloc_array () =
  let m = Memory.create ~width:8 in
  let ls = Memory.alloc_array m ~init:1 ~len:4 in
  Alcotest.(check int) "length" 4 (Array.length ls);
  Alcotest.(check int) "distinct handles" 4
    (List.length (List.sort_uniq compare (Array.to_list ls)))

(* ---------------- cache (CC) ---------------- *)

let test_cache_read_installs () =
  let c = Cache.create ~n:2 in
  Alcotest.(check bool) "first read is RMR" true (Cache.access c ~pid:0 ~loc:7 ~is_read:true);
  Alcotest.(check bool) "copy installed" true (Cache.has_copy c ~pid:0 ~loc:7);
  Alcotest.(check bool) "second read cached" false (Cache.access c ~pid:0 ~loc:7 ~is_read:true)

let test_cache_write_invalidates () =
  let c = Cache.create ~n:3 in
  ignore (Cache.access c ~pid:0 ~loc:7 ~is_read:true);
  ignore (Cache.access c ~pid:1 ~loc:7 ~is_read:true);
  Alcotest.(check bool) "write is RMR" true (Cache.access c ~pid:2 ~loc:7 ~is_read:false);
  Alcotest.(check bool) "p0 invalidated" false (Cache.has_copy c ~pid:0 ~loc:7);
  Alcotest.(check bool) "p1 invalidated" false (Cache.has_copy c ~pid:1 ~loc:7)

let test_cache_write_does_not_install () =
  let c = Cache.create ~n:2 in
  ignore (Cache.access c ~pid:0 ~loc:3 ~is_read:false);
  Alcotest.(check bool) "writer holds no copy" false (Cache.has_copy c ~pid:0 ~loc:3)

let test_cache_crash_drops () =
  let c = Cache.create ~n:2 in
  ignore (Cache.access c ~pid:0 ~loc:1 ~is_read:true);
  ignore (Cache.access c ~pid:0 ~loc:2 ~is_read:true);
  Cache.drop_process c ~pid:0;
  Alcotest.(check bool) "dropped 1" false (Cache.has_copy c ~pid:0 ~loc:1);
  Alcotest.(check bool) "dropped 2" false (Cache.has_copy c ~pid:0 ~loc:2);
  Alcotest.(check bool) "valid set empty" true (Intset.is_empty (Cache.valid_set c ~pid:0))

(* ---------------- RMR accounting ---------------- *)

let test_rmr_dsm () =
  let r = Rmr.create Rmr.Dsm ~n:2 in
  Alcotest.(check bool) "own segment is local" false
    (Rmr.record r ~pid:0 ~loc:5 ~owner:(Some 0) ~is_read:false);
  Alcotest.(check bool) "foreign segment is remote" true
    (Rmr.record r ~pid:0 ~loc:6 ~owner:(Some 1) ~is_read:true);
  Alcotest.(check bool) "unowned is remote" true
    (Rmr.record r ~pid:0 ~loc:7 ~owner:None ~is_read:true);
  Alcotest.(check int) "total" 2 (Rmr.total r ~pid:0)

let test_rmr_cc () =
  let r = Rmr.create Rmr.Cc ~n:2 in
  Alcotest.(check bool) "first read remote" true
    (Rmr.record r ~pid:0 ~loc:5 ~owner:None ~is_read:true);
  Alcotest.(check bool) "cached read local" false
    (Rmr.record r ~pid:0 ~loc:5 ~owner:None ~is_read:true);
  Alcotest.(check bool) "any write remote" true
    (Rmr.record r ~pid:0 ~loc:5 ~owner:None ~is_read:false);
  Alcotest.(check bool) "read after own write remote again" true
    (Rmr.record r ~pid:0 ~loc:5 ~owner:None ~is_read:true)

let test_rmr_would_incur () =
  let r = Rmr.create Rmr.Cc ~n:1 in
  Alcotest.(check bool) "would (uncached)" true
    (Rmr.would_incur r ~pid:0 ~loc:9 ~owner:None ~is_read:true);
  Alcotest.(check int) "would does not count" 0 (Rmr.total r ~pid:0);
  ignore (Rmr.record r ~pid:0 ~loc:9 ~owner:None ~is_read:true);
  Alcotest.(check bool) "would (cached)" false
    (Rmr.would_incur r ~pid:0 ~loc:9 ~owner:None ~is_read:true)

let test_rmr_passage () =
  let r = Rmr.create Rmr.Dsm ~n:1 in
  ignore (Rmr.record r ~pid:0 ~loc:1 ~owner:None ~is_read:true);
  ignore (Rmr.record r ~pid:0 ~loc:2 ~owner:None ~is_read:true);
  Alcotest.(check int) "passage" 2 (Rmr.passage r ~pid:0);
  Rmr.start_passage r ~pid:0;
  Alcotest.(check int) "passage reset" 0 (Rmr.passage r ~pid:0);
  Alcotest.(check int) "total kept" 2 (Rmr.total r ~pid:0)

let test_rmr_crash_drops_cache () =
  let r = Rmr.create Rmr.Cc ~n:1 in
  ignore (Rmr.record r ~pid:0 ~loc:1 ~owner:None ~is_read:true);
  Rmr.on_crash r ~pid:0;
  Alcotest.(check bool) "cache gone after crash" true
    (Rmr.would_incur r ~pid:0 ~loc:1 ~owner:None ~is_read:true)

let prop_op_truncated =
  QCheck.Test.make ~name:"every op result fits the word"
    QCheck.(triple (int_range 1 20) (int_bound 10000) (int_bound 1000000))
    (fun (w, v, x) ->
      let module B = Rme_util.Bitword in
      let v = B.truncate ~width:w v in
      List.for_all
        (fun op ->
          let r = Op.next_value ~width:w op v in
          r >= 0 && r <= B.mask w)
        [
          Op.Read;
          Op.Write x;
          Op.Fas x;
          Op.Faa x;
          Op.Faa (-x);
          Op.Cas { expected = v; desired = x };
          Op.Rmw { name = "sq"; f = (fun ~width:_ u -> (u * u) + x) };
        ])

let suite =
  ( "memory",
    [
      Alcotest.test_case "op: read" `Quick test_op_read;
      Alcotest.test_case "op: write" `Quick test_op_write;
      Alcotest.test_case "op: cas" `Quick test_op_cas;
      Alcotest.test_case "op: fas" `Quick test_op_fas;
      Alcotest.test_case "op: faa wraps" `Quick test_op_faa;
      Alcotest.test_case "op: arbitrary rmw" `Quick test_op_rmw;
      Alcotest.test_case "memory: alloc/apply" `Quick test_memory_alloc_and_apply;
      Alcotest.test_case "memory: width enforced" `Quick test_memory_width_enforced;
      Alcotest.test_case "memory: ownership" `Quick test_memory_owner;
      Alcotest.test_case "memory: reset" `Quick test_memory_reset;
      Alcotest.test_case "memory: alloc_array" `Quick test_memory_alloc_array;
      Alcotest.test_case "cache: read installs" `Quick test_cache_read_installs;
      Alcotest.test_case "cache: non-read invalidates all" `Quick test_cache_write_invalidates;
      Alcotest.test_case "cache: write installs nothing" `Quick test_cache_write_does_not_install;
      Alcotest.test_case "cache: crash drops" `Quick test_cache_crash_drops;
      Alcotest.test_case "rmr: DSM rule" `Quick test_rmr_dsm;
      Alcotest.test_case "rmr: CC rule" `Quick test_rmr_cc;
      Alcotest.test_case "rmr: would_incur" `Quick test_rmr_would_incur;
      Alcotest.test_case "rmr: passage counters" `Quick test_rmr_passage;
      Alcotest.test_case "rmr: crash semantics" `Quick test_rmr_crash_drops_cache;
      Qc.to_alcotest prop_op_truncated;
    ] )
