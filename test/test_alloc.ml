(* Allocation guard: minor-heap words allocated per harness step.

   A harness step allocates nothing but the lock program's next
   continuation (Stepper), so words per step measure how a lock's
   program resumes. Each lock program builds one [Prog.Step] per step
   whose continuation is the rest of its body (Prog.K); a return to
   monadic binds, which rewrap the next program once per enclosing
   [let*], roughly doubles the figure and fails these ceilings, and so
   does a binding operator over [Prog.K] (11–38% more). Each
   run is made twice and only the second is measured, so one-time
   set-up (lazy tables, first-use buffers) is excluded. *)

module H = Rme_sim.Harness
module Lock_intf = Rme_sim.Lock_intf
module Rmr = Rme_memory.Rmr

let config ~n ~width model =
  {
    (H.default_config ~n ~width model) with
    superpassages = 2;
    policy = H.Random_policy 7;
  }

let words_per_step ~n ~width model factory =
  let cfg = config ~n ~width model in
  ignore (H.run cfg factory);
  let before = Gc.minor_words () in
  let r = H.run cfg factory in
  let words = Gc.minor_words () -. before in
  if not r.H.ok then Alcotest.failf "%s: run failed" factory.Lock_intf.name;
  words /. float_of_int r.H.steps

let case name ~n ~width model factory ~ceiling =
  Alcotest.test_case name `Quick (fun () ->
      let w = words_per_step ~n ~width model factory in
      if w > ceiling then
        Alcotest.failf "%s: %.1f words per step, ceiling %.1f" name w ceiling)

(* Each registry lock at n = 16, w = 8, CC. A ceiling sits between the
   lock as written (both profiles) and the same lock written with a
   binding operator over [Prog.K], which builds a partial
   application before every step (release), so a return to that style
   fails it. *)
let registry_ceilings =
  [
    ("tas", 13.);
    ("ticket", 7.7);
    ("mcs", 20.);
    ("clh", 24.);
    ("peterson-tree", 18.);
    ("rcas", 13.3);
    ("rstamp", 16.5);
    ("rtournament", 28.);
    ("katzan-morrison", 22.5);
    ("sublog-tournament", 21.);
    ("epoch-mcs", 19.);
  ]

let registry_case (factory : Lock_intf.factory) =
  let name = factory.name in
  let ceiling =
    match List.assoc_opt name registry_ceilings with
    | Some c -> c
    | None -> Alcotest.failf "alloc: no words-per-step ceiling for registry lock %s" name
  in
  case (name ^ " n=16 words per step") ~n:16 ~width:8 Rmr.Cc factory ~ceiling

let suite =
  ( "alloc",
    [
      case "KM n=256 w=4 CC words per step" ~n:256 ~width:4 Rmr.Cc
        Rme_locks.Katzan_morrison.factory ~ceiling:20.;
      case "KM n=256 w=4 DSM words per step" ~n:256 ~width:4 Rmr.Dsm
        Rme_locks.Katzan_morrison.factory ~ceiling:20.;
    ]
    @ List.map registry_case Rme_locks.Registry.all )
