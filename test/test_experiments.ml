(* End-to-end tests of the experiment harness: each experiment runs with
   reduced parameters, produces non-empty tables, and contains no FAIL
   cells. *)

module E = Rme_experiments.Experiments
module Engine = Rme_experiments.Engine
module Table = Rme_util.Table

(* One sequential engine for the whole suite, as one [rme experiment]
   invocation would use. *)
let engine = Engine.create ()

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec loop i = i + nl <= hl && (String.sub haystack i nl = needle || loop (i + 1)) in
  loop 0

let check_tables name tables =
  Alcotest.(check bool) (name ^ ": produced tables") true (tables <> []);
  List.iter
    (fun t ->
      let rendered = Table.render t in
      Alcotest.(check bool) (name ^ ": non-trivial") true (String.length rendered > 40);
      Alcotest.(check bool)
        (name ^ ": no FAIL cells in " ^ rendered)
        false
        (contains ~needle:"FAIL" rendered))
    tables

let test_e1 () =
  check_tables "e1" (E.e1_lock_landscape ~engine ~ns:[ 2; 4; 8 ] ())

let test_e2 () =
  check_tables "e2" (E.e2_word_size_tradeoff ~engine ~ns:[ 8; 16 ] ~ws:[ 2; 8; 32 ] ())

let test_e3 () =
  check_tables "e3" (E.e3_adversary_bound ~engine ~ns:[ 32; 64 ] ~ws:[ 8; 16 ] ())

let test_e5 () = check_tables "e5" (E.e5_crash_cost ~engine ~n:4 ~probs:[ 0.0; 0.05 ] ())

let test_e6 () = check_tables "e6" (E.e6_model_comparison ~engine ~n:8 ())

let test_e7 () = check_tables "e7" (E.e7_crossover ~engine ~n:1024 ~ws:[ 2; 8; 32 ] ())

let test_e8 () = check_tables "e8" (E.e8_system_wide ~engine ~ns:[ 4; 8 ] ())

let test_a1 () = check_tables "a1" (E.a1_arity_ablation ~engine ~n:32 ~arities:[ 2; 8 ] ())

let test_a2 () = check_tables "a2" (E.a2_k_ablation ~engine ~n:64 ~ks:[ 17; 32 ] ())

let test_a3 () = check_tables "a3" (E.a3_adaptivity ~engine ~n:32 ~ws:[ 4; 8 ] ())

let test_catalogue () =
  Alcotest.(check bool) "unknown id" true (Result.is_error (E.select [ "zzz" ]));
  Alcotest.(check int) "catalogue size" 12 (List.length E.all);
  Alcotest.(check bool) "ids unique" true
    (let ids = List.map (fun e -> e.E.id) E.all in
     List.length ids = List.length (List.sort_uniq compare ids))

let suite =
  ( "experiments",
    [
      Alcotest.test_case "e1 landscape" `Quick test_e1;
      Alcotest.test_case "e2 word-size" `Quick test_e2;
      Alcotest.test_case "e3 adversary" `Quick test_e3;
      Alcotest.test_case "e5 crashes" `Quick test_e5;
      Alcotest.test_case "e6 models" `Quick test_e6;
      Alcotest.test_case "e7 crossover" `Quick test_e7;
      Alcotest.test_case "e8 system-wide" `Quick test_e8;
      Alcotest.test_case "a1 arity ablation" `Quick test_a1;
      Alcotest.test_case "a2 k ablation" `Quick test_a2;
      Alcotest.test_case "a3 adaptivity" `Quick test_a3;
      Alcotest.test_case "catalogue" `Quick test_catalogue;
    ] )
