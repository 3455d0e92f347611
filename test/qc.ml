(* Deterministic qcheck→alcotest bridge.

   Passing [rand] explicitly keeps [QCheck_alcotest]'s lazily
   self-initialised seed from firing — that path prints
   "qcheck random seed: ..." to stdout at suite-construction time. A
   fixed default seed also makes CI property failures reproducible;
   [QCHECK_SEED] still overrides it. *)

let seed () =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some s -> s
  | None -> 1302

let to_alcotest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed () |]) t

(* [QCheck.int_range a b] whose shrinker stays within [a, b]. The stock
   one shrinks towards 0, so a failure found at some [x >= a > 0] would
   be reported on an input the generator never draws. *)
let int_range a b =
  QCheck.(set_shrink Shrink.(filter (fun x -> a <= x && x <= b) int) (int_range a b))
