(* The benchmark program: one workload, one seed, a fixed measuring time.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 the run repeats the workload's batch, each time on a
   fresh engine with a cold memo, until the time is used, and prints the
   end-to-end metrics: each cell's latency is the low decile of its
   repeats, and every timing is scaled by the host's speed (see
   reference.ml). With --trace 1 it alternates untraced and traced
   batches for the tracing overhead, then measures every layer with spans
   on, writes the spans under .perfbench/, and prints the per-layer
   metrics. Either way the last line of standard output is one JSON
   object: {"correct", "attempted", "failed", "metrics"}. *)

open Perfbench
module W = Workloads
module Engine = Rme_experiments.Engine

let usage () =
  prerr_endline "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  prerr_endline
    ("workloads: " ^ String.concat " " (List.map (fun (w : W.workload) -> w.name) W.all));
  exit 2

let parse_args () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec go acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = match W.find (get "workload") with Some w -> w | None -> usage () in
  let seconds = int "seconds" in
  let trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (workload, int "seed", float_of_int seconds, trace = 1)

(* One batch on a fresh engine. *)
type rep = {
  wall : float;
  samples : W.sample list;
  alloc : float;  (** words allocated by the batch. *)
  minor : int;
  major : int;
  hit_ratio : float;
}

(* Set-up: input generation plus engine construction. *)
let setup (w : W.workload) seed =
  let inputs = Spans.with_span "bench/gen" (fun () -> w.gen seed) in
  let eng =
    Spans.with_span "experiments/Engine.create" (fun () -> Engine.create ~jobs:w.jobs ())
  in
  (inputs, eng)

(* Set-ups repeated for [min_s] seconds, and at least [min_samples] of
   them, added to [acc]. The run samples set-up between batches, so that
   its median spans the whole run, not one moment of the host. *)
let sample_setups ~min_s ~min_samples w seed acc =
  let t0 = W.now () in
  let rec go k acc =
    if k >= min_samples && W.now () -. t0 >= min_s then acc
    else
      let (_, eng), dt = W.timed (fun () -> setup w seed) in
      Engine.shutdown eng;
      go (k + 1) (dt :: acc)
  in
  go 0 acc

let run_rep ?reference w seed =
  let inputs, eng = setup w seed in
  (* Every batch starts from a compacted heap, outside the timing. *)
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let w0 = W.words () in
  let samples, wall =
    W.timed (fun () ->
        Spans.with_span "bench/batch" (fun () -> W.run_batch ?reference eng inputs))
  in
  let alloc = W.words () -. w0 in
  let g1 = Gc.quick_stat () in
  let c = Engine.counters eng in
  Spans.with_span "experiments/Engine.shutdown" (fun () -> Engine.shutdown eng);
  let requests = c.Engine.computed + c.Engine.cached in
  {
    wall;
    samples;
    alloc;
    minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major = g1.Gc.major_collections - g0.Gc.major_collections;
    hit_ratio =
      (if requests = 0 then 0.0 else float_of_int c.Engine.cached /. float_of_int requests);
  }

let median_of f reps = Stats.median (List.map f reps)
let low_decile_of f reps = Stats.low_decile (List.map f reps)
let busy r = List.fold_left (fun a (s : W.sample) -> a +. s.task) 0.0 r.samples
let steps r = List.fold_left (fun a (s : W.sample) -> a + s.steps) 0 r.samples

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  let w, seed, seconds, traced = parse_args () in
  let t_start = W.now () in
  let elapsed () = W.now () -. t_start in
  (* The engine workload's cells are run directly once, outside the timed
     batches: their step counts and the results the engine must serve. *)
  Spans.enable traced;
  let first = w.gen seed in
  let direct =
    match first with W.Tables { cells; _ } -> Some (Layers.harness_pass cells) | _ -> None
  in
  let reference = Option.map (Array.map (fun (r, _) -> W.reference_of r)) direct in
  let reps = ref [] in
  let traced_reps = ref [] in
  (* The memory high-water mark of one batch: later batches on fresh
     engines would raise it with each new domain's heap. *)
  let heap_peak = ref 0.0 in
  let setups = ref [] in
  let host = ref [] in
  (* Between two untraced batches, on a compacted heap so that no GC work
     the last batch left behind lands in them: set-up, for a fiftieth of
     the last batch's time, and the host's speed, for a twentieth of the
     batches' time on the whole. *)
  let credit = ref 0.0 in
  let between (last : rep) =
    if not traced then begin
      Gc.compact ();
      setups := sample_setups ~min_s:(0.02 *. last.wall) ~min_samples:5 w seed !setups;
      credit := !credit +. (0.05 *. last.wall);
      host := Reference.sample ~jobs:w.jobs ~credit !host
    end
  in
  let last = ref None in
  let rep ~spans =
    Option.iter between !last;
    Spans.enable spans;
    let r = run_rep ?reference w seed in
    if Option.is_none !last then
      heap_peak := float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6;
    last := Some r;
    if spans then traced_reps := r :: !traced_reps else reps := r :: !reps;
    r
  in
  let budget = if traced then 0.4 *. seconds else seconds in
  let rec loop () =
    let untraced = (rep ~spans:false).wall in
    let spent = if traced then untraced +. (rep ~spans:true).wall else untraced in
    if elapsed () +. (1.1 *. spent) <= budget then loop ()
  in
  loop ();
  Option.iter between !last;
  let reps = List.rev !reps and traced_reps = List.rev !traced_reps in
  let all_reps = reps @ traced_reps in
  (* Output checks: every cell, and the same digest from every batch. *)
  List.iter (fun r -> List.iter (fun (s : W.sample) -> Layers.check s.ok) r.samples) all_reps;
  let digests = List.map (fun r -> W.digest r.samples) all_reps in
  let digest = List.hd digests in
  List.iter (fun d -> Layers.check (d = digest)) (List.tl digests);
  let pinned_ok =
    match W.pinned_digest ~workload:w.name ~seed with None -> true | Some d -> d = digest
  in
  let metrics =
    if not traced then begin
      (* Every batch runs the same cells in the same order: a cell's
         latency, and the time of its whole task, are the low decile of
         its repeats over the run. *)
      let batches = List.map (fun r -> Array.of_list r.samples) reps in
      let per_cell f =
        List.init
          (Array.length (List.hd batches))
          (fun j -> Stats.low_decile (List.map (fun (b : W.sample array) -> f b.(j)) batches))
      in
      let lat = per_cell (fun s -> s.W.lat) in
      let n = List.length lat in
      if n <= 64 then
        Printf.printf "cell latencies (ms): %s\n"
          (String.concat " " (List.map (fun l -> Printf.sprintf "%.2f" (l *. 1e3)) lat));
      Printf.printf "cells: %d, each repeated over %d batches (p90 %s)\n" n (List.length reps)
        (if Stats.resolved ~n 90.0 then "resolved" else "rests on fewer than 100 cells");
      (* On one domain the cells' tasks run back to back and a batch
         takes their sum; on more, the batch's own wall clock is timed. *)
      let wall =
        if w.jobs = 1 then List.fold_left ( +. ) 0.0 (per_cell (fun s -> s.W.task))
        else low_decile_of (fun r -> r.wall) reps
      in
      let f = Reference.factor ~jobs:w.jobs !host in
      Printf.printf "host: reference %.3f ms, nominal %.3f ms: timings scaled by %.4f (unscaled wall_s %.6g s)\n"
        (Stats.low_decile !host *. 1e3) (Reference.nominal_s ~jobs:w.jobs *. 1e3) f wall;
      [
        ("wall_s", wall *. f);
        ("sim_steps_per_s", float_of_int (steps (List.hd reps)) /. (wall *. f));
        ("cell_p50_ms", Stats.percentile lat 50.0 *. 1e3 *. f);
        ("cell_p90_ms", Stats.percentile lat 90.0 *. 1e3 *. f);
        ("alloc_mwords", median_of (fun r -> r.alloc) reps /. 1e6);
        ("heap_peak_mb", !heap_peak);
        ("setup_s", Stats.median !setups *. f);
      ]
    end
    else begin
      let overhead =
        (median_of (fun r -> r.wall) traced_reps /. median_of (fun r -> r.wall) reps) -. 1.0
      in
      let jobs = float_of_int w.jobs in
      let engine =
        [
          ( "engine.self_s",
            median_of (fun r -> (r.wall *. jobs) -. busy r) reps );
          ("engine.memo_hit_ratio", median_of (fun r -> r.hit_ratio) reps);
          ("pool.busy_frac", median_of (fun r -> busy r /. (r.wall *. jobs)) reps);
          ("gc.minor_collections", median_of (fun r -> float_of_int r.minor) reps);
          ("gc.major_collections", median_of (fun r -> float_of_int r.major) reps);
          ("trace.overhead_frac", overhead);
        ]
      in
      Spans.enable true;
      let li = W.layer_inputs ~seed first in
      let harness =
        match direct with Some d -> d | None -> Layers.harness_pass li.W.h
      in
      let layer =
        Layers.harness_metrics harness
        @ Layers.memory_metrics (Layers.record_streams li.W.h)
        @ Layers.locks_metrics li
        @ Layers.adversary_metrics li.W.a
        @ Layers.hiding_metrics li.W.hid
      in
      Spans.enable false;
      let spans = Spans.spans () in
      let self = Spans.self_times spans in
      let selfs =
        List.map
          (fun l -> ("self_s." ^ l, Option.value ~default:0.0 (Hashtbl.find_opt self l)))
          Metrics.layers
      in
      (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
      let path = Printf.sprintf ".perfbench/spans-%s-%d.jsonl" w.name seed in
      Spans.write ~path ~workload:w.name spans;
      Printf.printf "spans: %d written to %s\n" (List.length spans) path;
      engine @ layer @ selfs
    end
  in
  (* Streams replayed through the memory layer are checked on every
     harness workload, traced or not. *)
  (if not traced then
     match first with
     | W.Direct h | W.Tables { cells = h; _ } ->
         ignore (Layers.replay_mismatches (Layers.record_streams h))
     | W.Adversaries _ | W.Hidings _ -> ());
  let declared =
    if traced then List.map (fun (n, u, _) -> (n, u)) Metrics.per_layer
    else List.map (fun (n, u, _, _) -> (n, u)) Metrics.end_to_end
  in
  let value name =
    match List.assoc_opt name metrics with
    | Some v when Float.is_finite v -> v
    | Some _ | None -> failwith ("metric not measured: " ^ name)
  in
  let attempted = Atomic.get Layers.attempted in
  let failed = if pinned_ok then Atomic.get Layers.failed else attempted in
  Printf.printf "workload %s seed %d: %d batches, %.1f s\n" w.name seed (List.length all_reps)
    (elapsed ());
  Printf.printf "batch walls (s): %s\n"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.4f" r.wall) all_reps));
  Printf.printf "digest %s%s\n" digest
    (match W.pinned_digest ~workload:w.name ~seed with
    | None -> ""
    | Some _ when pinned_ok -> " (matches the pinned digest)"
    | Some d -> " (PINNED DIGEST IS " ^ d ^ ")");
  List.iter (fun (name, unit) -> Printf.printf "  %-32s %16.6g %s\n" name (value name) unit) declared;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (json_number (value name)) unit)
          declared))
