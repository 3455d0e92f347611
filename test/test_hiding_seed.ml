(* The Process-Hiding solution must not depend on the runtime's hash
   seed: solving one group at the paper's constants (ell = 1,
   delta = 1, 27^4 tuples) under randomised hash tables gives the
   solution of an unrandomised run every time. An executable of its
   own, because [Hashtbl.randomize] affects every table the process
   creates afterwards. *)

module Hiding = Rme_core.Hiding

let f_parity ~y e = Array.fold_left (fun acc p -> acc lxor (p land 1)) y e

let test_solution_ignores_seed () =
  let p = Hiding.paper_params ~ell:1 ~delta:1.0 in
  let groups = [| Array.init (Hiding.min_group_size p) Fun.id |] in
  for run = 1 to 2 do
    let t = Hiding.solve p ~groups ~f:f_parity ~y0:0 in
    Alcotest.(check (list int))
      (Printf.sprintf "A of solve %d" run)
      [ 1; 53; 60; 104 ]
      (Array.to_list t.Hiding.groups.(0).Hiding.a)
  done

let () =
  Hashtbl.randomize ();
  Alcotest.run "rme-hash-seed"
    [
      ( "hiding-seed",
        [
          Alcotest.test_case "parity solution ignores hash seed" `Quick
            test_solution_ignores_seed;
        ] );
    ]
