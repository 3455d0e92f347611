(* Bechamel timing probes over the simulator, the lemma solvers and the
   adversary, and the regression gate CI runs over them. The experiment
   tables (E1..E8, A1..A3, F1; see DESIGN.md section 4) are printed by
   [rme experiment].

   Usage:
     dune exec bench/main.exe                 # timing probes
     dune exec bench/main.exe -- time --json BENCH.json      # machine-readable probes
     dune exec bench/main.exe -- compare OLD.json NEW.json [NEW.json ...]
                                              # CI regression gate (exit 1 on
                                              # any probe whose median over the
                                              # NEW runs is slower than 3x old) *)

module E = Rme_experiments.Experiments
module Table = Rme_util.Table
module Json = Rme_util.Json

(* ------------------------------------------------------------------ *)
(* Bechamel timing: one probe per moving part, so the harness doubles
   as a performance regression suite. *)

let bechamel_tests () =
  let open Bechamel in
  let module H = Rme_sim.Harness in
  let module Rmr = Rme_memory.Rmr in
  let harness_run ?(width = 16) ?(crashes = H.No_crashes) factory n model () =
    let cfg =
      { (H.default_config ~n ~width model) with H.superpassages = 1; crashes }
    in
    ignore (H.run cfg factory)
  in
  let adversary_run factory n () =
    ignore
      (Rme_core.Adversary.run
         (Rme_core.Adversary.default_config ~n ~width:8 Rmr.Cc)
         factory)
  in
  let lemma5_run () =
    let parts = Array.init 4 (fun i -> Array.init 3 (fun j -> (i * 10) + j)) in
    let edges = (Rme_core.Partite.complete ~parts).Rme_core.Partite.edges in
    ignore (Rme_core.Lemma5.solve ~s:2.5 ~eps:0.2 ~parts ~edges)
  in
  (* One group at the paper's constants (ell = delta = 1: 27^4 tuples)
     under the parity family: Lemma 5 on the majority value's edges, as
     [Hiding.solve] calls it. The edges are built once, outside the
     timed closure; the 3^4 probe is too small to show this cost. *)
  let lemma5_paper_run =
    let module P = Rme_core.Partite in
    let module Hd = Rme_core.Hiding in
    let p = Hd.paper_params ~ell:1 ~delta:1.0 in
    let g = p.Hd.subgroup_size in
    let parts = Array.init p.Hd.k (fun j -> Array.init g (fun i -> (j * g) + i)) in
    let f = List.assoc "parity (arbitrary rmw)" E.e4_families in
    let by_value = P.group_by_value (P.complete ~parts).P.edges ~f:(fun e -> f ~y:0 e) in
    let edges =
      Hashtbl.fold
        (fun _ es best -> if List.length es > List.length best then es else best)
        by_value []
    in
    fun () -> ignore (Rme_core.Lemma5.solve ~s:p.Hd.s ~eps:p.Hd.eps ~parts ~edges)
  in
  let machine_completion () =
    let m =
      Rme_core.Machine.create ~n:8 ~width:16 ~model:Rmr.Cc
        Rme_locks.Katzan_morrison.factory
    in
    for p = 0 to 7 do
      ignore
        (Rme_core.Machine.run_to_completion m ~pid:p ~cap:10_000 ~on_step:(fun _ -> ()))
    done
  in
  let stepper_create () =
    ignore
      (Rme_sim.Stepper.create ~n:1024 ~width:4 ~model:Rmr.Cc ~superpassages:1 ~cs:None
         Rme_locks.Katzan_morrison.factory)
  in
  (* The CC access stream of one KM super-passage at n = 1024, w = 4,
     replayed through a fresh cache: every process reads dozens of
     locations spread over ~21k, the footprint the n <= 64 probes miss. *)
  let cache_stream_run =
    let module Trace = Rme_sim.Trace in
    let n = 1024 in
    let cfg =
      { (H.default_config ~n ~width:4 Rmr.Cc) with H.superpassages = 1; record_trace = true }
    in
    let r = H.run cfg Rme_locks.Katzan_morrison.factory in
    let events = Trace.events (Option.get r.H.trace) |> Array.of_list in
    let module Cache = Rme_memory.Cache in
    fun () ->
      let c = Cache.create ~n in
      Array.iter
        (function
          | Trace.Step { pid; loc; op; _ } ->
              ignore (Cache.access c ~pid ~loc ~is_read:(Rme_memory.Op.is_read op))
          | Trace.Crash { pid; _ } -> Cache.drop_process c ~pid)
        events
  in
  [
    Test.make ~name:"harness: mcs n=8 CC"
      (Staged.stage (harness_run Rme_locks.Mcs.factory 8 Rmr.Cc));
    Test.make ~name:"harness: km n=8 CC"
      (Staged.stage (harness_run Rme_locks.Katzan_morrison.factory 8 Rmr.Cc));
    Test.make ~name:"harness: km n=8 DSM"
      (Staged.stage (harness_run Rme_locks.Katzan_morrison.factory 8 Rmr.Dsm));
    Test.make ~name:"harness: rtournament n=16 CC"
      (Staged.stage (harness_run Rme_locks.Rtournament.factory 16 Rmr.Cc));
    (* Large enough that a scheduler turn costing O(n) shows (over 10x
       this probe's time); n = 1024 would then overrun the 0.5 s quota. *)
    Test.make ~name:"harness: km n=512 w=4 DSM"
      (Staged.stage (harness_run ~width:4 Rme_locks.Katzan_morrison.factory 512 Rmr.Dsm));
    (* Dense churn: every waiter spins on one location, so each release
       wakes and re-parks most of the 256 pids. A runnable-set change
       that turned quadratic in the set's size would show here. *)
    Test.make ~name:"harness: tas n=256 CC"
      (Staged.stage (harness_run Rme_locks.Tas.factory 256 Rmr.Cc));
    (* The probes above are crash-free; this one takes the crash draw on
       every turn and the recover protocol after each crash. *)
    Test.make ~name:"harness: rcas n=32 CC crashes"
      (Staged.stage
         (harness_run
            ~crashes:(H.Crash_prob { prob = 0.05; seed = 1 })
            Rme_locks.Rcas.factory 32 Rmr.Cc));
    Test.make ~name:"adversary: rcas n=64"
      (Staged.stage (adversary_run Rme_locks.Rcas.factory 64));
    Test.make ~name:"adversary: km n=64"
      (Staged.stage (adversary_run Rme_locks.Katzan_morrison.factory 64));
    Test.make ~name:"lemma5: complete 3^4" (Staged.stage lemma5_run);
    Test.make ~name:"lemma5: parity 27^4" (Staged.stage lemma5_paper_run);
    Test.make ~name:"machine: 8 km completions" (Staged.stage machine_completion);
    Test.make ~name:"cache: km n=1024 CC stream" (Staged.stage cache_stream_run);
    (* The fixed cost of a cell before its first step: the memory, the
       lock's layout and the RMR accounting. *)
    Test.make ~name:"setup: km n=1024 w=4 CC" (Staged.stage stepper_create);
  ]

let pp_ns x =
  if x > 1e9 then Printf.sprintf "%.2f s" (x /. 1e9)
  else if x > 1e6 then Printf.sprintf "%.2f ms" (x /. 1e6)
  else if x > 1e3 then Printf.sprintf "%.2f us" (x /. 1e3)
  else Printf.sprintf "%.0f ns" x

(* Runs every probe and prints the table; returns each probe's ns/run,
   in table order. *)
let run_timing () =
  let open Bechamel in
  print_endline "---- TIMING (Bechamel, monotonic clock) ----";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let t = Table.create ~title:"timing" ~columns:[ "probe"; "time/run" ] in
  let probes = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let cell =
            match Analyze.OLS.estimates ols_result with
            | Some (x :: _) ->
                probes := (name, x) :: !probes;
                pp_ns x
            | Some [] | None -> "n/a"
          in
          Table.add_row t [ name; cell ])
        analyzed)
    (bechamel_tests ());
  Table.print t;
  List.rev !probes

(* ------------------------------------------------------------------ *)
(* Machine-readable results (--json FILE) and regression comparison
   (the [compare] subcommand): the probes above, as BENCH_<n>.json files
   CI can diff with a tolerance. *)

let write_json file probes =
  let probes =
    List.map (fun (name, ns) -> (name, Json.Obj [ ("ns_per_run", Json.Num ns) ])) probes
  in
  let doc = Json.Obj [ ("schema", Json.num_int 1); ("probes", Json.Obj probes) ] in
  let oc = open_out file in
  output_string oc (Json.to_string doc);
  close_out oc;
  Printf.printf "(wrote %s)\n%!" file

let load_json file =
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  match Json.of_string s with
  | Ok v -> v
  | Error e ->
      Printf.eprintf "%s: %s\n" file e;
      exit 1

let probe_ns doc name =
  Option.bind (Json.member "probes" doc) (fun probes ->
      Option.bind (Json.member name probes) (fun p ->
          Option.bind (Json.member "ns_per_run" p) Json.to_float))

(* The largest new/old slowdown [compare] lets pass. CI runners are
   shared and noisy, so this catches order-of-magnitude regressions (an
   accidentally quadratic path), not percentage drift. *)
let tolerance = 3.0

let probe_names doc =
  List.map fst (Json.obj_bindings (Option.value ~default:(Json.Obj []) (Json.member "probes" doc)))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let k = Array.length a in
  if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

(* Compare an old --json file with one or more new ones: per probe, the
   median of the new runs over the old time, failing (exit 1) when any
   probe slowed down by more than [tolerance]. The median of several
   runs keeps one stalled run from failing the gate on its own. Probes
   present on only one side are reported but never fail the run — the
   suite is allowed to grow and shrink. *)
let run_compare old_file new_files =
  let old_doc = load_json old_file and new_docs = List.map load_json new_files in
  let old_probes = probe_names old_doc in
  let new_probes = List.sort_uniq compare (List.concat_map probe_names new_docs) in
  let shared = List.filter (fun n -> List.mem n new_probes) old_probes in
  let t =
    Table.create ~title:"bench compare"
      ~columns:[ "probe"; "old"; "new (median)"; "runs"; "ratio"; "verdict" ]
  in
  let regressions = ref [] in
  List.iter
    (fun name ->
      match (probe_ns old_doc name, List.filter_map (fun d -> probe_ns d name) new_docs) with
      | Some o, (_ :: _ as runs) when o > 0.0 ->
          let n = median runs in
          let ratio = n /. o in
          let verdict =
            if ratio > tolerance then begin
              regressions := name :: !regressions;
              "REGRESSION"
            end
            else if ratio < 1.0 /. tolerance then "improved"
            else "ok"
          in
          Table.add_row t
            [
              name;
              pp_ns o;
              pp_ns n;
              string_of_int (List.length runs);
              Printf.sprintf "%.2fx" ratio;
              verdict;
            ]
      | _ -> ())
    shared;
  Table.print t;
  List.iter
    (fun n ->
      if not (List.mem n new_probes) then
        Printf.printf "note: probe %S only in %s\n" n old_file)
    old_probes;
  List.iter
    (fun n ->
      if not (List.mem n old_probes) then
        Printf.printf "note: probe %S only in %s\n" n (String.concat ", " new_files))
    new_probes;
  match !regressions with
  | [] -> Printf.printf "compare: ok (%d probes within %.1fx)\n" (List.length shared) tolerance
  | l ->
      Printf.printf "compare: %d regression(s) beyond %.1fx: %s\n" (List.length l)
        tolerance
        (String.concat ", " (List.rev l));
      exit 1

let usage =
  "usage: bench [time [--json FILE]] | bench compare OLD.json NEW.json [NEW.json ...] \
   (experiment tables: rme experiment ID...)"

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] | [ "time" ] -> ignore (run_timing ())
  | [ "time"; "--json"; file ] -> write_json file (run_timing ())
  | "compare" :: old_file :: (_ :: _ as new_files) -> run_compare old_file new_files
  | _ ->
      prerr_endline usage;
      exit 1
