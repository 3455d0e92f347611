(* Tests for the process programs: the monad and the continuation-passing
   primitives. *)

module Prog = Rme_sim.Prog
module Memory = Rme_memory.Memory
module Op = Rme_memory.Op
open Prog.Infix

(* Run a program to completion against a memory, as process [pid]. *)
let rec interp m ~pid = function
  | Prog.Return x -> x
  | Prog.Step (loc, op, k) -> interp m ~pid (k (Memory.apply m ~pid loc op))

let test_return () =
  let m = Memory.create ~width:8 in
  Alcotest.(check int) "return" 42 (interp m ~pid:0 (Prog.return 42))

let test_read_write () =
  let m = Memory.create ~width:8 in
  let l = Memory.alloc m ~init:7 in
  let p =
    let* v = Prog.read l in
    let* () = Prog.write l (v + 1) in
    Prog.read l
  in
  Alcotest.(check int) "sequencing" 8 (interp m ~pid:0 p)

let test_cas_result () =
  let m = Memory.create ~width:8 in
  let l = Memory.alloc m ~init:5 in
  Alcotest.(check bool) "cas success" true
    (interp m ~pid:0 (Prog.K.cas l ~expected:5 ~desired:9 Prog.return));
  Alcotest.(check bool) "cas failure" false
    (interp m ~pid:0 (Prog.K.cas l ~expected:5 ~desired:9 Prog.return));
  Alcotest.(check int) "value" 9 (Memory.value m l)

let test_fas_faa () =
  let m = Memory.create ~width:8 in
  let l = Memory.alloc m ~init:5 in
  Alcotest.(check int) "fas returns old" 5 (interp m ~pid:0 (Prog.K.fas l 1 Prog.return));
  Alcotest.(check int) "faa returns old" 1 (interp m ~pid:0 (Prog.K.faa l 10 Prog.return));
  Alcotest.(check int) "fai returns old" 11 (interp m ~pid:0 (Prog.K.fai l Prog.return));
  Alcotest.(check int) "value" 12 (Memory.value m l)

let test_peek () =
  let l = 3 in
  let p = Prog.write l 5 in
  (match Prog.peek p with
  | Some (loc, Op.Write 5) -> Alcotest.(check int) "loc" l loc
  | Some _ | None -> Alcotest.fail "expected poised write");
  Alcotest.(check bool) "returned program peeks None" true
    (Prog.peek (Prog.return ()) = None)

let test_peek_does_not_execute () =
  let m = Memory.create ~width:8 in
  let l = Memory.alloc m ~init:0 in
  let p = Prog.write l 9 in
  ignore (Prog.peek p);
  Alcotest.(check int) "unchanged" 0 (Memory.value m l)

let test_await_spins () =
  (* [K.await] re-reads one location per scheduler step. *)
  let m = Memory.create ~width:8 in
  let l = Memory.alloc m ~init:0 in
  let p = ref (Prog.K.await l (fun v -> v = 3) (fun _ -> Prog.return ())) in
  let step () =
    match !p with
    | Prog.Step (loc, op, k) -> p := k (Memory.apply m ~pid:0 loc op)
    | Prog.Return () -> Alcotest.fail "returned early"
  in
  step ();
  step ();
  Alcotest.(check bool) "still spinning" true (Prog.peek !p <> None);
  ignore (Memory.apply m ~pid:1 l (Op.Write 3));
  step ();
  Alcotest.(check bool) "done after condition" true (Prog.peek !p = None)

let test_bind_associativity () =
  (* bind (bind m f) g behaves as bind m (fun x -> bind (f x) g). *)
  let mem () =
    let m = Memory.create ~width:8 in
    (m, Memory.alloc m ~init:1)
  in
  let f v = Prog.K.faa 0 v Prog.return in
  let g v = Prog.K.faa 0 (v * 2) Prog.return in
  let m1, _ = mem () and m2, _ = mem () in
  let left = Prog.bind (Prog.bind (Prog.read 0) f) g in
  let right = Prog.bind (Prog.read 0) (fun x -> Prog.bind (f x) g) in
  Alcotest.(check int) "same result" (interp m1 ~pid:0 left) (interp m2 ~pid:0 right);
  Alcotest.(check int) "same memory" (Memory.value m1 0) (Memory.value m2 0)

let test_map () =
  let m = Memory.create ~width:8 in
  let l = Memory.alloc m ~init:20 in
  let p = Prog.map (fun v -> v + 1) (Prog.read l) in
  Alcotest.(check int) "map applies" 21 (interp m ~pid:0 p)

(* Each continuation-passing primitive poises the operation of the
   one-step program it stands for, built here by hand as a [Step], and
   hands its continuation the same value. *)
let test_k_matches_monadic () =
  let module K = Prog.K in
  let same name (oracle : int Prog.t) (cps : int Prog.t) =
    Alcotest.(check bool) (name ^ ": same poised op") true
      (Prog.peek oracle = Prog.peek cps);
    let run p =
      let m = Memory.create ~width:8 in
      let l = Memory.alloc m ~init:5 in
      assert (l = 0);
      let v = interp m ~pid:0 p in
      (v, Memory.value m l)
    in
    Alcotest.(check (pair int int)) (name ^ ": same result") (run oracle) (run cps)
  in
  let ret v = Prog.return v in
  let step op k = Prog.Step (0, op, k) in
  same "read" (step Op.Read ret) (K.read 0 ret);
  same "write" (step (Op.Write 9) ret) (K.write 0 9 ret);
  same "cas"
    (step (Op.Cas { expected = 5; desired = 7 }) (fun old -> ret (Bool.to_int (old = 5))))
    (K.cas 0 ~expected:5 ~desired:7 (fun b -> ret (Bool.to_int b)));
  same "fas" (step (Op.Fas 3) ret) (K.fas 0 3 ret);
  same "faa" (step (Op.Faa 3) ret) (K.faa 0 3 ret);
  same "fai" (step Op.fai ret) (K.fai 0 ret);
  same "op" (step (Op.Faa 2) ret) (K.op 0 (Op.Faa 2) ret);
  let rec spin = Prog.Step (0, Op.Read, fun v -> if v = 5 then ret v else spin) in
  same "await" spin (K.await 0 (fun v -> v = 5) ret);
  same "@@ sequencing"
    (step (Op.Faa 1) (fun v -> step (Op.Faa v) ret))
    (K.faa 0 1 @@ fun v -> K.faa 0 v ret)

(* [K.await] re-reads with one [Read] step per spin, the same step
   each time, and resumes into its continuation once the value fits. *)
let test_k_await_spins () =
  let m = Memory.create ~width:8 in
  let l = Memory.alloc m ~init:0 in
  let first = Prog.K.await l (fun v -> v = 3) (fun v -> Prog.return (v * 10)) in
  let step = function
    | Prog.Step (loc, op, k) -> k (Memory.apply m ~pid:0 loc op)
    | Prog.Return _ -> Alcotest.fail "returned early"
  in
  let p = step first in
  Alcotest.(check bool) "spin is the same step" true (p == first);
  ignore (Memory.apply m ~pid:1 l (Op.Write 3));
  match step p with
  | Prog.Return v -> Alcotest.(check int) "continuation gets the value" 30 v
  | Prog.Step _ -> Alcotest.fail "still spinning"

let suite =
  ( "prog",
    [
      Alcotest.test_case "return" `Quick test_return;
      Alcotest.test_case "read/write sequencing" `Quick test_read_write;
      Alcotest.test_case "cas returns success" `Quick test_cas_result;
      Alcotest.test_case "fas/faa/fai return old values" `Quick test_fas_faa;
      Alcotest.test_case "peek reveals poised op" `Quick test_peek;
      Alcotest.test_case "peek has no effect" `Quick test_peek_does_not_execute;
      Alcotest.test_case "await spins one read per step" `Quick test_await_spins;
      Alcotest.test_case "bind associativity" `Quick test_bind_associativity;
      Alcotest.test_case "map" `Quick test_map;
      Alcotest.test_case "K primitives match monadic steps" `Quick
        test_k_matches_monadic;
      Alcotest.test_case "K.await spins on one step" `Quick test_k_await_spins;
    ] )
