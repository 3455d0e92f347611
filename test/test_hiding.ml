(* Tests for the Process-Hiding Lemma, including a run with the paper's
   exact constants (ell = 1, delta = 1: binary-valued objects, groups of
   108, 27^4 tuples per group) and adversarially-chosen discovery sets. *)

module Hiding = Rme_core.Hiding
module Intset = Rme_util.Intset
module Splitmix = Rme_util.Splitmix
module Bitword = Rme_util.Bitword

(* Operation families as f_y functions on tuples (step order = tuple
   order). Lemma 2 needs each to keep an ell-bit object's value in
   [0, 2^ell). *)
let f_fas ~y e = if Array.length e = 0 then y else e.(Array.length e - 1) mod 2

(* Katzan–Morrison's bit-setting pattern on an ell-bit word. *)
let f_or ~ell ~y e = Array.fold_left (fun acc p -> acc lor (1 lsl (p mod ell))) y e

let f_faa ~width ~y e =
  Array.fold_left (fun acc p -> Bitword.add ~width acc (1 + (p mod 3))) y e

let f_parity ~y e = Array.fold_left (fun acc p -> acc lxor (p land 1)) y e

let families =
  [ ("fas", f_fas); ("or", f_or ~ell:1); ("faa-w1", f_faa ~width:1); ("parity", f_parity) ]

(* Every family keeps the value in [0, 2^ell) at ell = 1, from every
   starting value and on random tuples of random length. *)
let test_families_closed () =
  let values = 2 in
  let rng = Splitmix.create 17 in
  List.iter
    (fun (name, f) ->
      for _ = 1 to 1000 do
        let e = Array.init (Splitmix.int rng 9) (fun _ -> Splitmix.int rng 1000) in
        for y = 0 to values - 1 do
          let y' = f ~y e in
          if y' < 0 || y' >= values then
            Alcotest.failf "%s: f_%d of a %d-tuple is %d, outside [0, %d)" name y
              (Array.length e) y' values
        done
      done)
    families

let groups_for p m =
  let g = Hiding.min_group_size p in
  Array.init m (fun i -> Array.init g (fun j -> (i * (g + 7)) + j))

let test_paper_params_values () =
  let p = Hiding.paper_params ~ell:1 ~delta:1.0 in
  Alcotest.(check int) "k = 4ell" 4 p.Hiding.k;
  Alcotest.(check int) "subgroup = 27" 27 p.Hiding.subgroup_size;
  Alcotest.(check int) "group size 108" 108 (Hiding.min_group_size p);
  Alcotest.(check (float 1e-9)) "s" 22.5 p.Hiding.s;
  (match Hiding.check_params p with
  | Ok () -> ()
  | Error m -> Alcotest.failf "paper params rejected: %s" m);
  let p2 = Hiding.paper_params ~ell:2 ~delta:1.5 in
  Alcotest.(check int) "k = 8" 8 p2.Hiding.k;
  Alcotest.(check int) "subgroup = 81" 81 p2.Hiding.subgroup_size;
  match Hiding.check_params p2 with
  | Ok () -> ()
  | Error m -> Alcotest.failf "ell=2 params rejected: %s" m

let test_param_validation () =
  Alcotest.(check bool) "ell 0 rejected" true
    (try
       ignore (Hiding.paper_params ~ell:0 ~delta:1.0);
       false
     with Invalid_argument _ -> true);
  let p = Hiding.paper_params ~ell:1 ~delta:1.0 in
  Alcotest.(check bool) "weak margin rejected" true
    (match Hiding.check_params { p with subgroup_size = 5; s = 5.0 /. 1.2 } with
    | Error _ -> true
    | Ok () -> false)

let solve_and_verify ?(m = 3) p f =
  let groups = groups_for p m in
  let t = Hiding.solve p ~groups ~f ~y0:0 in
  (match Hiding.verify t ~f with
  | Ok () -> ()
  | Error e -> Alcotest.failf "verify failed: %s" e);
  (t, groups)

(* MD5 of a solution: every group's A, d, y, V, U and F, F in list
   order (which the solver's table order decides). *)
let solution_digest (t : Hiding.t) =
  let b = Buffer.create 4096 in
  let ints l = List.iter (Printf.bprintf b " %d") l in
  Array.iter
    (fun (g : Hiding.group_solution) ->
      Printf.bprintf b "group %d d=%d y=%d a=" g.index g.d g.y;
      ints (Array.to_list g.a);
      Buffer.add_string b "\nv=";
      ints (Intset.to_sorted_list g.v);
      Buffer.add_string b "\nu=";
      ints (Intset.to_sorted_list g.u);
      Buffer.add_string b "\nf=";
      List.iter
        (fun e ->
          Buffer.add_string b " [";
          ints (Array.to_list e);
          Buffer.add_string b " ]")
        g.f_edges;
      Buffer.add_char b '\n')
    t.Hiding.groups;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* One digest per family of the three-group solution below. A change
   that moves one changes the Process-Hiding output, not just its cost. *)
let paper_digests =
  [
    ("fas", "524c6189a36e1b343c8ac0c08e65fc13");
    ("or", "d7114a0afc72c03c908395f7e6e76610");
    ("faa-w1", "449df66c5a0d36bf35575537798eae5f");
    ("parity", "c4eaa13820cc451ab39364de6a686957");
  ]

(* Paper constants with four operation families. The FAS family is the
   one the Chan–Woelfel lower bound handles; OR is the Katzan–Morrison
   bit-setting pattern at width 1; parity is a genuinely arbitrary op. *)
let test_solve_paper_constants () =
  let p = Hiding.paper_params ~ell:1 ~delta:1.0 in
  List.iter
    (fun (name, f) ->
      let t, groups = solve_and_verify p f in
      Alcotest.(check int) (name ^ ": all groups solved") 3 (Array.length t.Hiding.groups);
      Alcotest.(check string) (name ^ ": solution digest")
        (List.assoc name paper_digests) (solution_digest t);
      (* Adversarial D within budget: hit as many V-complements as possible. *)
      let v = Hiding.all_v t in
      let budget = int_of_float (p.Hiding.delta *. float_of_int (Intset.cardinal v)) in
      let rng = Splitmix.create 4242 in
      let pool = Array.concat (Array.to_list groups) in
      Splitmix.shuffle rng pool;
      let d =
        Array.sub pool 0 (min budget (Array.length pool))
        |> Array.fold_left (fun acc x -> Intset.add x acc) Intset.empty
      in
      let hs = Hiding.query t ~d in
      Alcotest.(check bool) (name ^ ": |I_D| >= m/2") true (2 * List.length hs >= 3);
      match Hiding.verify_query t ~f ~d hs with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: query verify failed: %s" name e)
    families

(* Target one group's hidden-candidate pool explicitly: the lemma must
   still hand back at least m/2 groups. *)
let test_targeted_discovery () =
  let p = Hiding.paper_params ~ell:1 ~delta:1.0 in
  let t, _groups = solve_and_verify ~m:4 (p : Hiding.params) f_fas in
  let g0 = t.Hiding.groups.(0) in
  (* Discover all of group 0's candidates: U_0 minus V_0. *)
  let d = Intset.diff g0.Hiding.u g0.Hiding.v in
  let budget =
    p.Hiding.delta *. float_of_int (Intset.cardinal (Hiding.all_v t))
  in
  if float_of_int (Intset.cardinal d) <= budget then begin
    let hs = Hiding.query t ~d in
    Alcotest.(check bool) "group 0 yields no hidden process" true
      (not (List.exists (fun h -> h.Hiding.index = 0) hs));
    Alcotest.(check bool) "|I_D| >= m/2" true (2 * List.length hs >= 4);
    match Hiding.verify_query t ~f:f_fas ~d hs with
    | Ok () -> ()
    | Error e -> Alcotest.failf "query verify failed: %s" e
  end

let test_empty_discovery () =
  let p = Hiding.paper_params ~ell:1 ~delta:1.0 in
  let t, _ = solve_and_verify p (f_or ~ell:1) in
  let hs = Hiding.query t ~d:Intset.empty in
  Alcotest.(check int) "every group yields a hidden process" 3 (List.length hs);
  List.iter
    (fun h ->
      let g = t.Hiding.groups.(h.Hiding.index) in
      Alcotest.(check bool) "z outside V" true (not (Intset.mem h.Hiding.z g.Hiding.v));
      Alcotest.(check bool) "B inside V" true
        (Array.for_all (fun b -> Intset.mem b g.Hiding.v) h.Hiding.b))
    hs

let test_value_chaining () =
  (* y_i must chain: f_{y_{i-1}}(A_i) = y_i, verified via y_after. *)
  let p = Hiding.paper_params ~ell:1 ~delta:1.0 in
  let t, _ = solve_and_verify p f_parity in
  Array.iteri
    (fun i g ->
      let y_prev = Hiding.y_after t i in
      Alcotest.(check int)
        (Printf.sprintf "group %d chains" i)
        g.Hiding.y
        (f_parity ~y:y_prev g.Hiding.a))
    t.Hiding.groups

let test_group_too_small () =
  let p = Hiding.paper_params ~ell:1 ~delta:1.0 in
  let groups = [| Array.init 50 (fun i -> i) |] in
  Alcotest.(check bool) "small group rejected" true
    (try
       ignore (Hiding.solve p ~groups ~f:f_fas ~y0:0);
       false
     with Invalid_argument _ -> true)

(* Solve once; the property then varies only the discovery set. *)
let shared_solution =
  lazy
    (let p = Hiding.paper_params ~ell:1 ~delta:1.0 in
     let groups = groups_for p 3 in
     let t = Hiding.solve p ~groups ~f:f_fas ~y0:0 in
     (p, groups, t))

let prop_random_discovery_sets =
  (* For random within-budget D, the guarantees always hold. *)
  QCheck.Test.make ~name:"hiding query verifies for random D" ~count:50
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let p, groups, t = Lazy.force shared_solution in
      let v = Hiding.all_v t in
      let budget = int_of_float (p.Hiding.delta *. float_of_int (Intset.cardinal v)) in
      let rng = Splitmix.create seed in
      let pool = Array.concat (Array.to_list groups) in
      Splitmix.shuffle rng pool;
      let d =
        Array.sub pool 0 (Splitmix.int rng (budget + 1))
        |> Array.fold_left (fun acc x -> Intset.add x acc) Intset.empty
      in
      let hs = Hiding.query t ~d in
      2 * List.length hs >= 3 && Hiding.verify_query t ~f:f_fas ~d hs = Ok ())

let suite =
  ( "hiding",
    [
      Alcotest.test_case "paper constants" `Quick test_paper_params_values;
      Alcotest.test_case "parameter validation" `Quick test_param_validation;
      Alcotest.test_case "op families keep values in [0, 2^ell)" `Quick
        test_families_closed;
      Alcotest.test_case "solve with paper constants (4 op families)" `Slow
        test_solve_paper_constants;
      Alcotest.test_case "targeted discovery set" `Slow test_targeted_discovery;
      Alcotest.test_case "empty discovery set" `Slow test_empty_discovery;
      Alcotest.test_case "value chaining" `Slow test_value_chaining;
      Alcotest.test_case "undersized group rejected" `Quick test_group_too_small;
      Qc.to_alcotest prop_random_discovery_sets;
    ] )
