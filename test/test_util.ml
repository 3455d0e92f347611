(* Tests for Splitmix, Table, Vec and Intset. *)

module Splitmix = Rme_util.Splitmix
module Table = Rme_util.Table
module Vec = Rme_util.Vec
module Intset = Rme_util.Intset

let test_splitmix_deterministic () =
  let a = Splitmix.create 42 and b = Splitmix.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Splitmix.next a) (Splitmix.next b)
  done

let test_splitmix_seeds_differ () =
  let a = Splitmix.create 1 and b = Splitmix.create 2 in
  Alcotest.(check bool) "different streams" false (Splitmix.next a = Splitmix.next b)

let test_splitmix_int_range () =
  let g = Splitmix.create 7 in
  for _ = 1 to 1000 do
    let v = Splitmix.int g 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done

let test_splitmix_int_rejects () =
  Alcotest.check_raises "bound 0" (Invalid_argument "Splitmix.int: bound must be positive")
    (fun () -> ignore (Splitmix.int (Splitmix.create 1) 0))

let test_splitmix_float_range () =
  let g = Splitmix.create 9 in
  for _ = 1 to 1000 do
    let v = Splitmix.float g in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_splitmix_copy_independent () =
  let a = Splitmix.create 5 in
  ignore (Splitmix.next a);
  let b = Splitmix.copy a in
  Alcotest.(check int64) "copies agree" (Splitmix.next a) (Splitmix.next b)

let test_splitmix_shuffle_permutation () =
  let g = Splitmix.create 11 in
  let a = Array.init 50 (fun i -> i) in
  Splitmix.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

(* The stream is pinned, not just self-consistent: for a few seeds, the
   first outputs of [next], [int] and [float], a [copy] taken mid-stream,
   the first outputs of a [split] child, and the parent's next output
   after the split. Any change to the state representation must keep
   every value. *)
let splitmix_pinned =
  [
    ( 0,
      [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L ],
      [ 611; 686; 522 ],
      [ 0x1.6414d5f0fa298p-3; 0x1.8b082675922d5p-1 ],
      4532161160992623299L,
      [ -719732798981248245L; -1286135607070441235L ],
      -884877559730491226L );
    ( 1,
      [ -7995527694508729151L; -4689498862643123097L; -534904783426661026L ],
      [ 58; 190; 512 ],
      [ 0x1.c133d8d9ae6c7p-1; 0x1.0bcf761e244fp-1 ],
      5266705631892356520L,
      [ 6585853074390227385L; -3361085452020680612L ],
      -3800091893662914666L );
    ( 42,
      [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L ],
      [ 941; 812; 265 ],
      [ 0x1.bf4b38e229bb4p-3; 0x1.99ec6bdd3d3c5p-1 ],
      6270620877612482005L,
      [ -9193056862055361949L; 6972244089387533079L ],
      -7037763681458882642L );
    ( -7,
      [ 7790691224305936752L; 8829294814793142954L; -1715519743840680431L ],
      [ 472; 788; 265 ],
      [ 0x1.19eba71f5850bp-1; 0x1.b4b0d3e2abdp-8 ],
      519180555181236417L,
      [ 4241452195532470496L; -579669275341328222L ],
      7396466289114802521L );
  ]

let test_splitmix_pinned_stream () =
  List.iter
    (fun (seed, nexts, ints, floats, copied, split_nexts, after) ->
      let name what = Printf.sprintf "seed %d: %s" seed what in
      let g = Splitmix.create seed in
      List.iter (fun v -> Alcotest.(check int64) (name "next") v (Splitmix.next g)) nexts;
      List.iter (fun v -> Alcotest.(check int) (name "int") v (Splitmix.int g 1000)) ints;
      List.iter
        (fun v -> Alcotest.(check (float 0.)) (name "float") v (Splitmix.float g))
        floats;
      Alcotest.(check int64) (name "copy") copied (Splitmix.next (Splitmix.copy g));
      let child = Splitmix.split g in
      List.iter
        (fun v -> Alcotest.(check int64) (name "split") v (Splitmix.next child))
        split_nexts;
      Alcotest.(check int64) (name "after split") after (Splitmix.next g))
    splitmix_pinned

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec loop i = i + nl <= hl && (String.sub haystack i nl = needle || loop (i + 1)) in
  loop 0

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_rowf t "%d | %s" 10 "xyz";
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (contains ~needle:"== demo ==" s);
  Alcotest.(check bool) "has formatted row" true (contains ~needle:"10" s);
  Alcotest.(check bool) "rowf splits on pipe" true (contains ~needle:"xyz" s)

let test_table_wrong_arity () =
  let t = Table.create ~title:"t" ~columns:[ "a" ] in
  Alcotest.check_raises "arity"
    (Invalid_argument "Table.add_row: 2 cells for 1 columns (table \"t\")")
    (fun () -> Table.add_row t [ "x"; "y" ])

let test_vec_basic () =
  let v = Vec.create () in
  Alcotest.(check int) "empty" 0 (Vec.length v);
  Alcotest.(check int) "push returns index" 0 (Vec.push v 10);
  Alcotest.(check int) "push returns index" 1 (Vec.push v 20);
  Alcotest.(check int) "get" 20 (Vec.get v 1);
  Vec.set v 0 99;
  Alcotest.(check int) "set" 99 (Vec.get v 0);
  Alcotest.(check (array int)) "to_array" [| 99; 20 |] (Vec.to_array v)

let test_vec_bounds () =
  let v = Vec.of_array [| 1 |] in
  Alcotest.check_raises "oob" (Invalid_argument "Vec: index 1 out of bounds [0, 1)")
    (fun () -> ignore (Vec.get v 1))

let test_vec_growth () =
  let v = Vec.create () in
  for i = 0 to 999 do
    ignore (Vec.push v i)
  done;
  Alcotest.(check int) "length" 1000 (Vec.length v);
  Alcotest.(check int) "content" 567 (Vec.get v 567)

let test_intset_of_range () =
  Alcotest.(check int) "cardinality" 5 (Intset.cardinal (Intset.of_range 2 6));
  Alcotest.(check bool) "empty when lo > hi" true (Intset.is_empty (Intset.of_range 3 2))

let suite =
  ( "util",
    [
      Alcotest.test_case "splitmix determinism" `Quick test_splitmix_deterministic;
      Alcotest.test_case "splitmix seed sensitivity" `Quick test_splitmix_seeds_differ;
      Alcotest.test_case "splitmix int bound" `Quick test_splitmix_int_range;
      Alcotest.test_case "splitmix int rejects 0" `Quick test_splitmix_int_rejects;
      Alcotest.test_case "splitmix float range" `Quick test_splitmix_float_range;
      Alcotest.test_case "splitmix copy" `Quick test_splitmix_copy_independent;
      Alcotest.test_case "splitmix shuffle permutes" `Quick test_splitmix_shuffle_permutation;
      Alcotest.test_case "splitmix pinned stream" `Quick test_splitmix_pinned_stream;
      Alcotest.test_case "table renders" `Quick test_table_render;
      Alcotest.test_case "table arity checked" `Quick test_table_wrong_arity;
      Alcotest.test_case "vec basics" `Quick test_vec_basic;
      Alcotest.test_case "vec bounds" `Quick test_vec_bounds;
      Alcotest.test_case "vec growth" `Quick test_vec_growth;
      Alcotest.test_case "intset of_range" `Quick test_intset_of_range;
    ] )
