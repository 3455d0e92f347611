(* The benchmark harness: regenerates every experiment table (E1..E8,
   A1..A3, F1 — see DESIGN.md section 4) and runs Bechamel timing
   suites over the simulator, the lemma solvers and the adversary.

   Usage:
     dune exec bench/main.exe                 # all experiments + timing
     dune exec bench/main.exe e3              # one experiment
     dune exec bench/main.exe all             # every experiment, no timing
     dune exec bench/main.exe time            # timing suites only
     dune exec bench/main.exe -- -j 4 e1 e2   # shard trial cells over 4 domains
     dune exec bench/main.exe -- time --json BENCH.json      # machine-readable probes
     dune exec bench/main.exe -- compare OLD.json NEW.json [NEW.json ...]
                                              # CI regression gate (exit 1 on
                                              # any probe whose median over the
                                              # NEW runs is slower than 3x old)

   Tables are bit-identical at any -j: experiments decompose into
   independent trial cells, the engine runs them across domains, and the
   tables are assembled by memo lookup in canonical order. *)

module E = Rme_experiments.Experiments
module Engine = Rme_experiments.Engine
module Table = Rme_util.Table
module Json = Rme_util.Json

(* Accumulated measurements for --json: probe name -> ns/run, and
   per-experiment wall clock / cell counters / minor words, in execution
   order. *)
let probe_results : (string * float) list ref = ref []
let experiment_results : (string * E.report * float option) list ref = ref []

(* One engine for the whole invocation, so cells shared between the
   selected experiments are computed once. [Gc.minor_words] counts the
   calling domain only, so an experiment's allocation is recorded only
   when the engine computes every cell on it ([-j 1]). *)
let run_experiments ~jobs (entries : E.entry list) =
  let engine = Engine.create ~jobs () in
  List.iter
    (fun (e : E.entry) ->
      Printf.printf "---- %s: %s ----\n%!" (String.uppercase_ascii e.E.id) e.E.descr;
      let w0 = Gc.minor_words () in
      let report = e.E.run engine in
      let words = if Engine.jobs engine = 1 then Some (Gc.minor_words () -. w0) else None in
      experiment_results := (e.E.id, report, words) :: !experiment_results)
    entries

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

let run_timing () =
  let open Bechamel in
  print_endline "---- TIMING (Bechamel, monotonic clock) ----";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let t = Table.create ~title:"timing" ~columns:[ "probe"; "time/run" ] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let cell =
            match Analyze.OLS.estimates ols_result with
            | Some (x :: _) ->
                probe_results := (name, x) :: !probe_results;
                pp_ns x
            | Some [] | None -> "n/a"
          in
          Table.add_row t [ name; cell ])
        analyzed)
    (bechamel_tests ());
  Table.print t

(* ------------------------------------------------------------------ *)
(* Machine-readable results (--json FILE) and regression comparison
   (the [compare] subcommand): the perf numbers above, as BENCH_<n>.json
   files CI can diff with a tolerance. *)

let write_json file =
  let probes =
    List.rev_map
      (fun (name, ns) -> (name, Json.Obj [ ("ns_per_run", Json.Num ns) ]))
      !probe_results
  in
  let experiments =
    List.rev_map
      (fun (id, (r : E.report), words) ->
        ( id,
          Json.Obj
            ([
               ("wall_s", Json.Num r.E.wall_s);
               ("cells_computed", Json.num_int r.E.computed);
               ("cells_cached", Json.num_int r.E.cached);
             ]
            @ match words with Some w -> [ ("minor_words", Json.Num w) ] | None -> []) ))
      !experiment_results
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.num_int 1);
        ("probes", Json.Obj probes);
        ("experiments", Json.Obj experiments);
      ]
  in
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

(* Accepts [-j N], [--jobs N], [-jN] and [--json FILE]; returns the
   options and the remaining args. *)
type opts = {
  jobs : int;
  json : string option;  (* write probe/experiment measurements here *)
}

let parse_opts args =
  let jobs_value v =
    match int_of_string_opt v with
    | Some j when j >= 0 -> j
    | Some j ->
        Printf.eprintf "-j must be at least 0 (got %d)\n" j;
        exit 1
    | None ->
        Printf.eprintf "invalid -j value %S\n" v;
        exit 1
  in
  let rec go o acc = function
    | [] -> (o, List.rev acc)
    | ("-j" | "--jobs") :: v :: rest -> go { o with jobs = jobs_value v } acc rest
    | ("-j" | "--jobs") :: [] ->
        prerr_endline "missing value after -j";
        exit 1
    | "--json" :: f :: rest -> go { o with json = Some f } acc rest
    | "--json" :: [] ->
        prerr_endline "missing value after --json";
        exit 1
    | a :: rest when String.length a > 2 && String.sub a 0 2 = "-j" ->
        go { o with jobs = jobs_value (String.sub a 2 (String.length a - 2)) } acc rest
    | a :: rest -> go o (a :: acc) rest
  in
  go { jobs = 1; json = None } [] args

let () =
  let o, args = parse_opts (Array.to_list Sys.argv |> List.tl) in
  (match args with
  | "compare" :: rest -> (
      match rest with
      | old_file :: (_ :: _ as new_files) -> run_compare old_file new_files
      | _ ->
          prerr_endline "usage: bench compare OLD.json NEW.json [NEW.json ...]";
          exit 1)
  | [] ->
      run_experiments ~jobs:o.jobs E.all;
      run_timing ()
  | [ "time" ] -> run_timing ()
  | ids -> (
      match E.select ids with
      | Ok entries -> run_experiments ~jobs:o.jobs entries
      | Error e ->
          prerr_endline e;
          exit 1));
  match o.json with Some file -> write_json file | None -> ()
