(* The metrics the benchmark prints, by name and unit. BENCHMARK.json at
   the root of the repository lists the same names; the tests check that
   the two agree. *)

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

(* (name, unit, better, bound): [bound] is the share of the parent's
   median by which the metric may worsen before a change counts as a
   regression. *)
let end_to_end =
  [
    ("wall_s", "s", Lower, 0.25);
    ("sim_steps_per_s", "steps/s", Higher, 0.25);
    ("cell_p50_ms", "ms", Lower, 0.25);
    ("cell_p90_ms", "ms", Lower, 0.25);
    ("alloc_mwords", "Mwords", Lower, 0.1);
    ("heap_peak_mb", "MB", Lower, 0.25);
    ("setup_s", "s", Lower, 0.25);
  ]

(* The software layers, named after the library's modules. *)
let layers = [ "experiments"; "sim"; "locks"; "memory"; "core.adversary"; "core.hiding" ]

let per_layer =
  [
    ("engine.self_s", "s", Lower);
    ("engine.memo_hit_ratio", "ratio", Higher);
    ("pool.busy_frac", "ratio", Higher);
    ("harness.run_ms_p50", "ms", Lower);
    ("harness.run_ms_p90", "ms", Lower);
    ("harness.ns_per_step", "ns", Lower);
    ("harness.steps", "count", Lower);
    ("harness.rmrs", "count", Lower);
    ("harness.crashes", "count", Lower);
    ("locks.make_us", "us", Lower);
    ("rmr.record_ns", "ns", Lower);
    ("memory.apply_ns", "ns", Lower);
    ("rmr.replay_mismatches", "count", Lower);
    ("adversary.run_ms", "ms", Lower);
    ("adversary.ns_per_checked_step", "ns", Lower);
    ("machine.step_ns", "ns", Lower);
    ("adversary.rounds", "count", Higher);
    ("adversary.rounds_hide", "count", Higher);
    ("adversary.replays", "count", Lower);
    ("adversary.checked_steps", "count", Lower);
    ("hiding.solve_s", "s", Lower);
    ("hiding.solve_mwords", "Mwords", Lower);
    ("hiding.verify_ms", "ms", Lower);
    ("hiding.query_us", "us", Lower);
    ("hiding.verify_query_us", "us", Lower);
    ("lemma5.solve_s", "s", Lower);
    ("gc.minor_collections", "count", Lower);
    ("gc.major_collections", "count", Lower);
    ("trace.overhead_frac", "ratio", Lower);
  ]
  @ List.map (fun l -> ("self_s." ^ l, "s", Lower)) layers
