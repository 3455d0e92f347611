(* Tests of the benchmark's own code: the percentile rule, the result
   digest, and the agreement of the declared metrics with BENCHMARK.json. *)

open Perfbench
module Json = Rme_util.Json

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let test_percentiles () =
  let xs = [ 5.0; 1.0; 4.0; 2.0; 3.0 ] in
  expect "median of an odd sample" (close (Stats.median xs) 3.0);
  expect "median of an even sample" (close (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]) 2.5);
  expect "p0 is the minimum" (close (Stats.percentile xs 0.0) 1.0);
  expect "p100 is the maximum" (close (Stats.percentile xs 100.0) 5.0);
  let ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  expect "p90 interpolates between ranks" (close (Stats.percentile ten 90.0) 9.1);
  expect "one sample" (close (Stats.percentile [ 7.0 ] 90.0) 7.0);
  expect "low decile is p10" (close (Stats.low_decile ten) 1.9);
  expect "low decile of two samples" (close (Stats.low_decile [ 3.0; 1.0 ]) 1.2);
  expect "no samples raise"
    (match Stats.percentile [] 50.0 with _ -> false | exception Invalid_argument _ -> true)

(* A percentile is resolved only with ten samples beyond it. *)
let test_sample_count () =
  expect "99 samples leave 9 beyond p90" (Stats.samples_beyond ~n:99 90.0 = 9);
  expect "p90 needs 100 samples" ((not (Stats.resolved ~n:99 90.0)) && Stats.resolved ~n:100 90.0);
  expect "p50 needs 20 samples" ((not (Stats.resolved ~n:19 50.0)) && Stats.resolved ~n:20 50.0);
  expect "p99 needs 1000 samples" ((not (Stats.resolved ~n:999 99.0)) && Stats.resolved ~n:1000 99.0);
  expect "p99.9 needs 10000 samples" (Stats.resolved ~n:10_000 99.9)

(* The same seed gives the same inputs and, on two fresh engines, the
   same digest; another seed gives other inputs. *)
let test_digest () =
  let w = Option.get (Workloads.find "small-n-crash") in
  let names = function
    | Workloads.Tables { cells; tables } ->
        Array.to_list (Array.map Workloads.hcell_name cells)
        @ List.concat_map
            (fun t -> Array.to_list (Array.map (fun (i, r) -> Printf.sprintf "%d%b" i r) t))
            tables
    | _ -> []
  in
  let seed = Workloads.default_seed in
  let inputs = w.gen seed in
  expect "inputs repeat for a seed" (names inputs = names (w.gen seed));
  expect "inputs differ between seeds" (names inputs <> names (w.gen (seed + 1)));
  let reference =
    match inputs with
    | Workloads.Tables { cells; _ } ->
        Array.map (fun (r, _) -> Workloads.reference_of r) (Layers.harness_pass cells)
    | _ -> [||]
  in
  let digest () =
    let eng = Rme_experiments.Engine.create ~jobs:w.jobs () in
    let samples = Workloads.run_batch ~reference eng (w.gen seed) in
    Rme_experiments.Engine.shutdown eng;
    expect "every cell passes its checks" (List.for_all (fun (s : Workloads.sample) -> s.ok) samples);
    Workloads.digest samples
  in
  let d = digest () in
  expect "digest is stable across two runs" (d = digest ());
  match Workloads.pinned_digest ~workload:w.name ~seed with
  | Some p -> expect "digest matches the pinned one" (d = p)
  | None -> ()

let field k j = Option.get (Json.member k j)
let str k j = Option.get (Json.to_str (field k j))
let list k j = match field k j with Json.List l -> l | _ -> []

(* Every metric the benchmark prints is declared in BENCHMARK.json, with
   the same unit and direction, and the other way round. *)
let test_benchmark_json () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j = match Json.of_string text with Ok j -> j | Error e -> failwith e in
  let e2e =
    List.map
      (fun m ->
        (str "name" m, str "unit" m, str "better" m, Option.get (Json.to_float (field "bound" m))))
      (list "end_to_end" j)
  in
  let declared_e2e =
    List.map (fun (n, u, b, bound) -> (n, u, Metrics.better_name b, bound)) Metrics.end_to_end
  in
  expect "end_to_end metrics match" (e2e = declared_e2e);
  let layer = List.map (fun m -> (str "name" m, str "unit" m, str "better" m)) (list "per_layer" j) in
  let declared_layer = List.map (fun (n, u, b) -> (n, u, Metrics.better_name b)) Metrics.per_layer in
  expect "per_layer metrics match" (layer = declared_layer);
  (* The program runs every workload; BENCHMARK.json may list fewer. *)
  let workloads = List.map (str "name") (list "workloads" j) in
  expect "every listed workload exists"
    (workloads <> [] && List.for_all (fun n -> Option.is_some (Workloads.find n)) workloads);
  expect "setup_s is declared" (List.exists (fun (n, _, _, _) -> n = "setup_s") e2e)

let () =
  test_percentiles ();
  test_sample_count ();
  test_benchmark_json ();
  test_digest ();
  if !failures > 0 then exit 1;
  print_endline "perfbench tests: ok"
