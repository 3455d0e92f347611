(* Tests for Lemma 4 and Lemma 5: unit cases plus randomized hypergraphs
   whose outcomes are independently re-verified against the statements. *)

module P = Rme_core.Partite
module L4 = Rme_core.Lemma4
module L5 = Rme_core.Lemma5
module Splitmix = Rme_util.Splitmix
module Intset = Rme_util.Intset

let mk_parts sizes =
  let base = ref 0 in
  Array.map
    (fun s ->
      let p = Array.init s (fun i -> !base + i) in
      base := !base + s + 100;
      p)
    (Array.of_list sizes)

(* Random sub-hypergraph of the complete one, with at least [min_edges]. *)
let random_edges rng parts ~keep_prob ~min_edges =
  let all = (P.complete ~parts).P.edges in
  let kept = List.filter (fun _ -> Splitmix.float rng < keep_prob) all in
  if List.length kept >= min_edges then kept
  else begin
    (* top up deterministically *)
    let missing = min_edges - List.length kept in
    let extra =
      List.filteri (fun i e -> i < missing && not (List.mem e kept)) all
    in
    kept @ extra
  end

(* ---------------- Lemma 4 ---------------- *)

let check_l4 ~s ~eps ~parts ~edges =
  let outcome = L4.solve ~s ~eps ~parts ~edges in
  match L4.verify ~s ~eps ~parts ~edges outcome with
  | Ok () -> outcome
  | Error m -> Alcotest.failf "Lemma4 verification failed: %s" m

let test_l4_single_vertex_union () =
  (* All edges share the same X_1 vertex: case (a) with |Z| = 1. *)
  let parts = mk_parts [ 2; 3 ] in
  let edges = List.map (fun i -> [| parts.(0).(0); parts.(1).(i) |]) [ 0; 1; 2 ] in
  match check_l4 ~s:2.0 ~eps:0.0 ~parts ~edges with
  | L4.Union_small { zs; union } ->
      Alcotest.(check bool) "|Z| <= 2" true (List.length zs <= 2);
      Alcotest.(check bool) "union large" true
        (float_of_int (List.length union) >= 3.0 /. 2.0)
  | L4.Intersect_large _ -> Alcotest.fail "expected case (a)"

let test_l4_complete_bipartite () =
  let parts = mk_parts [ 4; 4 ] in
  let edges = (P.complete ~parts).P.edges in
  ignore (check_l4 ~s:3.4 ~eps:0.2 ~parts ~edges)

let test_l4_intersection_case () =
  (* Complete bipartite 6 x 4 with s = 5: every projection is the same
     4-tail set, so |p_i ∪ p_j| = 4 < |E|/s = 4.8 for all pairs — case
     (a) is unreachable and every tail intersects all six projections. *)
  let parts = mk_parts [ 6; 4 ] in
  let edges = (P.complete ~parts).P.edges in
  match check_l4 ~s:5.0 ~eps:0.2 ~parts ~edges with
  | L4.Intersect_large { zs; witness = _ } ->
      (* threshold: s(1+eps)(1-2eps) = 5 * 1.2 * 0.6 = 3.6 *)
      Alcotest.(check bool) "many vertices" true (List.length zs >= 4);
      Alcotest.(check bool) "Z within X_1" true
        (List.for_all (fun z -> Array.exists (fun v -> v = z) parts.(0)) zs)
  | L4.Union_small { zs; union } ->
      Alcotest.failf "expected case (b), got (a) with |Z|=%d |U|=%d"
        (List.length zs) (List.length union)

let test_l4_pair_counts_shared_tails_once () =
  (* X_1 = {x0, x1, x2}: x0 and x1 project onto the same three tails, x2
     onto three others. |E| = 9 and s = 2.5, so case (a) needs 3.6 tails:
     no single vertex has them, {x0, x1} covers only 3 (6 if the shared
     tails were counted twice), and {x0, x2} is the first Z with 6. *)
  let parts = mk_parts [ 3; 6 ] in
  let x = parts.(0) and t = parts.(1) in
  let edges =
    List.concat_map
      (fun (z, tails) -> List.map (fun i -> [| x.(z); t.(i) |]) tails)
      [ (0, [ 0; 1; 2 ]); (1, [ 0; 1; 2 ]); (2, [ 3; 4; 5 ]) ]
  in
  match check_l4 ~s:2.5 ~eps:0.2 ~parts ~edges with
  | L4.Union_small { zs; union } ->
      Alcotest.(check (list int)) "Z = {x0, x2}" [ x.(0); x.(2) ] zs;
      Alcotest.(check int) "|union|" 6 (List.length union)
  | L4.Intersect_large _ -> Alcotest.fail "expected case (a)"

let test_l4_full_scan_then_intersection () =
  (* X_1 = {x0..x4}: ten tails shared by all five, plus one private tail
     each. |E| = 55 and s = 5/1.2, so case (a) needs 13.2 tails. The 15
     distinct tails are enough to run the search, but a pair covers
     only 12: every candidate is tried, then case (b) returns all five
     with a shared tail. *)
  let parts = mk_parts [ 5; 15 ] in
  let x = parts.(0) and t = parts.(1) in
  let edges =
    List.concat_map
      (fun z -> List.map (fun i -> [| x.(z); t.(i) |]) (List.init 10 Fun.id @ [ 10 + z ]))
      [ 0; 1; 2; 3; 4 ]
  in
  match check_l4 ~s:(5.0 /. 1.2) ~eps:0.2 ~parts ~edges with
  | L4.Intersect_large { zs; witness } ->
      Alcotest.(check (list int)) "Z = X_1" (Array.to_list x) zs;
      Alcotest.(check bool) "witness is a shared tail" true (witness.(0) < t.(10))
  | L4.Union_small { zs; union } ->
      Alcotest.failf "expected case (b), got (a) with |Z|=%d |U|=%d"
        (List.length zs) (List.length union)

let test_l4_preconditions () =
  let parts = mk_parts [ 4; 2 ] in
  let edges = (P.complete ~parts).P.edges in
  Alcotest.(check bool) "bad eps rejected" true
    (try
       ignore (L4.solve ~s:4.0 ~eps:0.7 ~parts ~edges);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "oversized X_1 rejected" true
    (try
       ignore (L4.solve ~s:2.0 ~eps:0.1 ~parts ~edges);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "no edges rejected" true
    (try
       ignore (L4.solve ~s:4.0 ~eps:0.1 ~parts ~edges:[]);
       false
     with Invalid_argument _ -> true)

(* Brute force over Lemma 4's case (a): the first Z with |Z| <= 2 whose
   projections cover |E|/s tails, singletons before pairs, each in X_1
   order; [None] when no Z does. *)
let first_covering_z ~s ~parts ~edges =
  let x1 = Array.to_list parts.(0) in
  let covers zs =
    let union = List.concat_map (fun z -> P.pi_z ~part:0 ~z edges) zs in
    float_of_int (List.length (List.sort_uniq compare union))
    >= float_of_int (List.length edges) /. s
  in
  let pairs =
    List.concat
      (List.mapi
         (fun i z1 -> List.filteri (fun j _ -> j > i) x1 |> List.map (fun z2 -> [ z1; z2 ]))
         x1)
  in
  List.find_opt covers (List.map (fun z -> [ z ]) x1 @ pairs)

let prop_l4_random =
  QCheck.Test.make ~name:"lemma 4 outcome always verifies on random hypergraphs"
    ~count:1000
    QCheck.(
      quad (Qc.int_range 2 5) (Qc.int_range 2 5) (Qc.int_range 0 10_000)
        (pair (Qc.int_range 0 3) (Qc.int_range 0 2)))
    (fun (a, b, seed, (density, slack)) ->
      let rng = Splitmix.create seed in
      let parts = mk_parts [ a; b; 3 ] in
      (* Densities from sparse to dense, and s from |X_1| down to the
         |X_1|/1.2 the precondition allows, put |E|/s on both sides of
         what singletons and pairs cover: about two thirds of the cases
         end at a singleton, an eighth at a pair, and a fifth have fewer
         distinct tails than |E|/s. *)
      let keep_prob = [| 0.3; 0.6; 0.8; 0.95 |].(density) in
      let edges = random_edges rng parts ~keep_prob ~min_edges:1 in
      let s = float_of_int a /. [| 1.0; 1.1; 1.2 |].(slack) and eps = 0.2 in
      QCheck.assume (float_of_int a <= s *. (1.0 +. eps));
      let outcome = L4.solve ~s ~eps ~parts ~edges in
      L4.verify ~s ~eps ~parts ~edges outcome = Ok ()
      &&
      match (first_covering_z ~s ~parts ~edges, outcome) with
      | Some zs, L4.Union_small { zs = zs'; _ } -> zs = zs'
      | None, L4.Intersect_large _ -> true
      | _ -> false)

(* ---------------- Lemma 5 ---------------- *)

let check_l5 ~s ~eps ~parts ~edges =
  let outcome = L5.solve ~s ~eps ~parts ~edges in
  match L5.verify ~s ~eps ~parts ~edges outcome with
  | Ok () -> outcome
  | Error m -> Alcotest.failf "Lemma5 verification failed: %s" m

let test_l5_complete_small () =
  let parts = mk_parts [ 2; 2; 2 ] in
  let edges = (P.complete ~parts).P.edges in
  (* s = 2, eps = 0: |E| = 8 = s^k. *)
  let o = check_l5 ~s:2.0 ~eps:0.0 ~parts ~edges in
  Alcotest.(check bool) "d in range" true (o.L5.d >= 1 && o.L5.d <= 3);
  Alcotest.(check bool) "F non-empty" true (o.L5.hyperedges <> [])

let test_l5_complete_larger () =
  let parts = mk_parts [ 3; 3; 3; 3 ] in
  let edges = (P.complete ~parts).P.edges in
  let o = check_l5 ~s:2.5 ~eps:0.2 ~parts ~edges in
  let xd = parts.(o.L5.d - 1) in
  let inter =
    Array.fold_left (fun acc v -> if Intset.mem v o.L5.u then acc + 1 else acc) 0 xd
  in
  Alcotest.(check bool) "special part rich" true (float_of_int inter >= 2.5 *. 1.2 *. 0.6)

let test_l5_rejects_few_edges () =
  let parts = mk_parts [ 2; 2; 2 ] in
  let edges = [ [| parts.(0).(0); parts.(1).(0); parts.(2).(0) |] ] in
  Alcotest.(check bool) "|E| < s^k rejected" true
    (try
       ignore (L5.solve ~s:2.0 ~eps:0.0 ~parts ~edges);
       false
     with Invalid_argument _ -> true)

(* Negative tests: the verifiers must reject corrupted outcomes. *)

let test_l4_verify_rejects () =
  let parts = mk_parts [ 4; 4 ] in
  let edges = (P.complete ~parts).P.edges in
  let s = 3.4 and eps = 0.2 in
  let bogus_union =
    L4.Union_small { zs = [ parts.(0).(0) ]; union = [] }
  in
  Alcotest.(check bool) "empty union rejected" true
    (Result.is_error (L4.verify ~s ~eps ~parts ~edges bogus_union));
  let bogus_witness =
    L4.Intersect_large
      { zs = Array.to_list parts.(0); witness = [| parts.(1).(0) + 999 |] }
  in
  Alcotest.(check bool) "foreign witness rejected" true
    (Result.is_error (L4.verify ~s ~eps ~parts ~edges bogus_witness))

let test_l5_verify_rejects () =
  let parts = mk_parts [ 2; 2; 2 ] in
  let edges = (P.complete ~parts).P.edges in
  let s = 2.0 and eps = 0.0 in
  let good = L5.solve ~s ~eps ~parts ~edges in
  (* Corrupt U. *)
  let bad = { good with L5.u = Intset.add 424242 good.L5.u } in
  Alcotest.(check bool) "corrupted U rejected" true
    (Result.is_error (L5.verify ~s ~eps ~parts ~edges bad));
  (* Corrupt F with a foreign edge. *)
  let bad2 = { good with L5.hyperedges = [| 1; 2; 3 |] :: good.L5.hyperedges } in
  Alcotest.(check bool) "foreign edge rejected" true
    (Result.is_error (L5.verify ~s ~eps ~parts ~edges bad2));
  (* Out-of-range d. *)
  let bad3 = { good with L5.d = 9 } in
  Alcotest.(check bool) "bad d rejected" true
    (Result.is_error (L5.verify ~s ~eps ~parts ~edges bad3))

let prop_l5_random =
  QCheck.Test.make ~name:"lemma 5 outcome always verifies on random hypergraphs"
    ~count:60
    QCheck.(pair (Qc.int_range 2 3) (Qc.int_range 0 10_000))
    (fun (k, seed) ->
      let rng = Splitmix.create seed in
      let sizes = List.init k (fun _ -> 3) in
      let parts = mk_parts sizes in
      let s = 2.5 and eps = 0.2 in
      let min_edges = int_of_float (Float.ceil (s ** float_of_int k)) in
      let edges = random_edges rng parts ~keep_prob:0.9 ~min_edges in
      QCheck.assume (List.length edges >= min_edges);
      match L5.verify ~s ~eps ~parts ~edges (L5.solve ~s ~eps ~parts ~edges) with
      | Ok () -> true
      | Error _ -> false)

let suite =
  ( "lemmas",
    [
      Alcotest.test_case "L4: single-vertex union" `Quick test_l4_single_vertex_union;
      Alcotest.test_case "L4: complete bipartite" `Quick test_l4_complete_bipartite;
      Alcotest.test_case "L4: intersection case" `Quick test_l4_intersection_case;
      Alcotest.test_case "L4: preconditions" `Quick test_l4_preconditions;
      Qc.to_alcotest prop_l4_random;
      Alcotest.test_case "L5: complete 2^3" `Quick test_l5_complete_small;
      Alcotest.test_case "L5: complete 3^4" `Quick test_l5_complete_larger;
      Alcotest.test_case "L5: edge-count precondition" `Quick test_l5_rejects_few_edges;
      Alcotest.test_case "L4: verifier rejects corrupt outcomes" `Quick
        test_l4_verify_rejects;
      Alcotest.test_case "L5: verifier rejects corrupt outcomes" `Quick
        test_l5_verify_rejects;
      Qc.to_alcotest prop_l5_random;
      Alcotest.test_case "L4: pair union counts shared tails once" `Quick
        test_l4_pair_counts_shared_tails_once;
      Alcotest.test_case "L4: full scan, then intersection" `Quick
        test_l4_full_scan_then_intersection;
    ] )
