(* Tests for hypergraph representation and the Definition 3 operators. *)

module P = Rme_core.Partite
module Intset = Rme_util.Intset

let parts2 = [| [| 1; 2 |]; [| 10; 20 |] |]

let test_complete () =
  let h = P.complete ~parts:parts2 in
  Alcotest.(check int) "4 edges" 4 (List.length h.P.edges);
  Alcotest.(check int) "2 parts" 2 (Array.length h.P.parts);
  Alcotest.(check bool) "contains (1,10)" true
    (List.exists (fun e -> e = [| 1; 10 |]) h.P.edges)

let test_complete_three_parts () =
  let h = P.complete ~parts:[| [| 1 |]; [| 2; 3 |]; [| 4; 5; 6 |] |] in
  Alcotest.(check int) "6 edges" 6 (List.length h.P.edges)

let test_sigma_pi () =
  (* pi_z is the set of tails of sigma_z, the edges that contain z. *)
  let h = P.complete ~parts:parts2 in
  let sigma = List.filter (fun e -> e.(0) = 1) h.P.edges in
  let p = P.pi_z ~part:0 ~z:1 h.P.edges in
  Alcotest.(check (list (array int))) "pi = tails of sigma"
    (List.map (P.tail_key ~part:0) sigma) p;
  Alcotest.(check (list (array int))) "pi strips z" [ [| 10 |]; [| 20 |] ] p;
  Alcotest.(check bool) "pi arity" true (List.for_all (fun e -> Array.length e = 1) p)

let test_pi_dedups () =
  (* Two identical edges would project to the same tail. *)
  let edges = [ [| 1; 10 |]; [| 1; 10 |] ] in
  let p = P.pi_z ~part:0 ~z:1 edges in
  Alcotest.(check int) "set semantics" 1 (List.length p)

let test_pi_middle_part () =
  let h = P.complete ~parts:[| [| 1; 2 |]; [| 3; 4 |]; [| 5 |] |] in
  let p = P.pi_z ~part:1 ~z:3 h.P.edges in
  Alcotest.(check int) "2 tails" 2 (List.length p);
  Alcotest.(check bool) "tail skips middle" true
    (List.for_all (fun e -> Array.length e = 2 && e.(1) = 5) p)

let test_vertices_of_edges () =
  let u = P.vertices_of_edges [ [| 1; 10 |]; [| 2; 10 |] ] in
  Alcotest.(check bool) "union" true (Intset.equal u (Intset.of_list [ 1; 2; 10 ]))

let test_tail_key () =
  Alcotest.(check (array int)) "drop first" [| 2; 3 |] (P.tail_key ~part:0 [| 1; 2; 3 |]);
  Alcotest.(check (array int)) "drop middle" [| 1; 3 |] (P.tail_key ~part:1 [| 1; 2; 3 |])

let test_group_by_value () =
  let h = P.complete ~parts:parts2 in
  let tbl = P.group_by_value h.P.edges ~f:(fun e -> e.(1)) in
  Alcotest.(check int) "two classes" 2 (Hashtbl.length tbl);
  Alcotest.(check int) "class size" 2 (List.length (Hashtbl.find tbl 10))

(* 16 parts of 108, as Hiding would build at ell = 4: 108^16 wraps
   native ints to a negative number, so a product guard would pass. *)
let test_complete_cap () =
  let parts = Array.init 16 (fun i -> Array.init 108 (fun j -> (108 * i) + j)) in
  Alcotest.check_raises "16 x 108 rejected"
    (Invalid_argument "Partite.complete: too many edges (over 2^30)") (fun () ->
      ignore (P.complete ~parts));
  let fits sizes = P.within_cap ~count:(List.length sizes) ~size:(List.nth sizes) in
  Alcotest.(check bool) "2^15 * 2^15 fits" true (fits [ 1 lsl 15; 1 lsl 15 ]);
  Alcotest.(check bool) "2^15 * (2^15 + 1) does not" false
    (fits [ 1 lsl 15; (1 lsl 15) + 1 ]);
  Alcotest.(check bool) "max_int * 2 does not" false (fits [ max_int; 2 ]);
  Alcotest.(check bool) "an empty part has no edges" true
    ((P.complete ~parts:[| [| 1; 2 |]; [||] |]).P.edges = [])

let prop_complete_count =
  QCheck.Test.make ~name:"complete hypergraph has product-many edges"
    QCheck.(pair (int_range 1 4) (int_range 1 4))
    (fun (a, b) ->
      let parts = [| Array.init a (fun i -> i); Array.init b (fun i -> 100 + i) |] in
      List.length (P.complete ~parts).P.edges = a * b)

let suite =
  ( "partite",
    [
      Alcotest.test_case "complete 2-partite" `Quick test_complete;
      Alcotest.test_case "complete 3-partite" `Quick test_complete_three_parts;
      Alcotest.test_case "sigma and pi" `Quick test_sigma_pi;
      Alcotest.test_case "pi is a set" `Quick test_pi_dedups;
      Alcotest.test_case "pi on middle part" `Quick test_pi_middle_part;
      Alcotest.test_case "vertex union" `Quick test_vertices_of_edges;
      Alcotest.test_case "tail keys" `Quick test_tail_key;
      Alcotest.test_case "group by value" `Quick test_group_by_value;
      Alcotest.test_case "edge cap survives overflow" `Quick test_complete_cap;
      Qc.to_alcotest prop_complete_count;
    ] )
