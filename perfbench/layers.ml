(* Per-layer measurements of the traced run. Each pass calls one layer's
   public functions on the layer inputs of the workload (see
   [Workloads.layer_inputs]) and returns its metrics by name. *)

open Workloads
module Memory = Rme_memory.Memory
module Op = Rme_memory.Op
module Trace = Rme_sim.Trace
module Machine = Rme_core.Machine
module Lemma5 = Rme_core.Lemma5

(* Checked operations, and how many of them failed. *)
let attempted = Atomic.make 0
let failed = Atomic.make 0

let check ok =
  Atomic.incr attempted;
  if not ok then Atomic.incr failed

let sumf f l = List.fold_left (fun a x -> a +. f x) 0.0 l
let sumi f l = List.fold_left (fun a x -> a + f x) 0 l
let per ~num ~den = if den = 0 then 0.0 else num /. float_of_int den
let ms x = x *. 1e3

(* Run [f] over and over until [min_s] seconds have passed; the mean
   seconds per call. *)
let repeat_for ~min_s f =
  let t0 = now () in
  let rec go k =
    f ();
    let dt = now () -. t0 in
    if dt >= min_s && k >= 3 then dt /. float_of_int k else go (k + 1)
  in
  go 1

(* ------------------------------------------------------------------ *)
(* sim *)

(* Direct runs of harness cells. Also the reference an engine workload
   checks its results against. *)
let harness_pass cells =
  Array.mapi
    (fun i c ->
      let r, dt =
        timed (fun () ->
            Spans.with_span ~cell:i "sim/Harness.run" (fun () -> H.run (harness_config c) c.lock))
      in
      check (harness_ok r);
      (r, dt))
    cells

let harness_metrics runs =
  let runs = Array.to_list runs in
  let times = List.map snd runs in
  let steps = sumi (fun ((r : H.result), _) -> r.H.steps) runs in
  [
    ("harness.run_ms_p50", ms (Stats.percentile times 50.0));
    ("harness.run_ms_p90", ms (Stats.percentile times 90.0));
    ("harness.ns_per_step", per ~num:(sumf Fun.id times *. 1e9) ~den:steps);
    ("harness.steps", float_of_int steps);
    ("harness.rmrs", float_of_int (sumi (fun (r, _) -> total_rmrs r) runs));
    ("harness.crashes", float_of_int (sumi (fun ((r : H.result), _) -> r.H.total_crashes) runs));
  ]

(* ------------------------------------------------------------------ *)
(* memory *)

type recorded = { cell : hcell; events : Trace.event array; mem : Memory.t }

(* Record the access streams of the first cells, in input order, until
   [min_events] steps are collected. The replay memory is built the way
   [Harness.run] builds its own: the lock's locations, then the critical
   section's cell. *)
let record_streams ?(min_events = 100_000) cells =
  let rec go i total acc =
    if i >= Array.length cells || (total >= min_events && acc <> []) then List.rev acc
    else
      let c = cells.(i) in
      let r =
        Spans.with_span ~cell:i "sim/Harness.run" (fun () ->
            H.run { (harness_config c) with H.record_trace = true } c.lock)
      in
      let events =
        match r.H.trace with Some t -> Array.of_list (Trace.events t) | None -> [||]
      in
      let mem = Memory.create ~width:c.width in
      ignore (c.lock.Lock_intf.make mem ~n:c.n);
      ignore (Memory.alloc mem ~init:0);
      go (i + 1) (total + Array.length events) ({ cell = c; events; mem } :: acc)
  in
  go 0 0 []

(* Replay a stream through [Rmr.record]/[on_crash] under [model]; the
   number of steps whose RMR flag differs from the recorded one when
   [model] is the model the stream was recorded under. *)
let replay_rmr s model =
  let rmr = Rmr.create model ~n:s.cell.n in
  let compare = model = s.cell.model in
  let mismatches = ref 0 in
  Array.iter
    (function
      | Trace.Step { pid; loc; op; rmr = flag; _ } ->
          let r =
            Rmr.record rmr ~pid ~loc ~owner:(Memory.owner s.mem loc) ~is_read:(Op.is_read op)
          in
          if compare && r <> flag then incr mismatches
      | Trace.Crash { pid; _ } -> Rmr.on_crash rmr ~pid)
    s.events;
  !mismatches

(* Replay a stream through [Memory.apply]; the number of steps whose
   returned value differs from the recorded one. *)
let replay_apply s =
  Memory.reset_values s.mem;
  let mismatches = ref 0 in
  Array.iter
    (function
      | Trace.Step { pid; loc; op; old_value; _ } ->
          if Memory.apply s.mem ~pid loc op <> old_value then incr mismatches
      | Trace.Crash _ -> ())
    s.events;
  !mismatches

(* The replay check alone: one pass of each replay, no timing. *)
let replay_mismatches streams =
  sumi
    (fun s ->
      let m = replay_rmr s s.cell.model + replay_apply s in
      check (m = 0);
      m)
    streams

let memory_metrics streams =
  let mismatches = replay_mismatches streams in
  let events = sumi (fun s -> Array.length s.events) streams in
  let rmr_s =
    Spans.with_span "memory/Rmr.record" (fun () ->
        repeat_for ~min_s:0.2 (fun () ->
            List.iter
              (fun s -> List.iter (fun m -> ignore (replay_rmr s m)) Rmr.all_models)
              streams))
  in
  let apply_s =
    Spans.with_span "memory/Memory.apply" (fun () ->
        repeat_for ~min_s:0.2 (fun () -> List.iter (fun s -> ignore (replay_apply s)) streams))
  in
  [
    ("rmr.record_ns", per ~num:(rmr_s *. 1e9) ~den:(2 * events));
    ("memory.apply_ns", per ~num:(apply_s *. 1e9) ~den:events);
    ("rmr.replay_mismatches", float_of_int mismatches);
  ]

(* ------------------------------------------------------------------ *)
(* locks *)

(* [Memory.create] plus [factory.make], per distinct (lock, n, width)
   of the harness and adversary inputs; the median over those. *)
let locks_metrics (li : layer_inputs) =
  let configs =
    List.map (fun c -> (c.lock, c.n, c.width)) (Array.to_list li.h)
    @ List.map
        (fun a -> (a.alock, a.cfg.Adversary.n, a.cfg.Adversary.width))
        (Array.to_list li.a)
    |> List.sort_uniq (fun (l, n, w) (l', n', w') ->
           compare (l.Lock_intf.name, n, w) (l'.Lock_intf.name, n', w'))
  in
  let per_make =
    List.map
      (fun ((lock : Lock_intf.factory), n, width) ->
        Spans.with_span "locks/factory.make" (fun () ->
            repeat_for ~min_s:0.002 (fun () -> ignore (lock.make (Memory.create ~width) ~n))))
      configs
  in
  [ ("locks.make_us", Stats.median per_make *. 1e6) ]

(* ------------------------------------------------------------------ *)
(* core.adversary *)

let adversary_metrics cells =
  let runs =
    Array.to_list cells
    |> List.mapi (fun i a ->
           let r, dt =
             timed (fun () ->
                 Spans.with_span ~cell:i "core.adversary/Adversary.run" (fun () ->
                     Adversary.run a.cfg a.alock))
           in
           check (adversary_ok r);
           (r, dt))
  in
  let rounds f = sumi (fun ((r : Adversary.result), _) -> sumi f r.Adversary.rounds) runs in
  let checked = sumi (fun ((r : Adversary.result), _) -> r.Adversary.replay_checked_steps) runs in
  (* Every process run to completion alone, one after another. *)
  let machine =
    Array.to_list cells
    |> List.mapi (fun i a ->
           let c = a.cfg in
           let m =
             Spans.with_span ~cell:i "core.adversary/Machine.create" (fun () ->
                 Machine.create ~n:c.Adversary.n ~width:c.Adversary.width ~model:c.Adversary.model
                   a.alock)
           in
           let steps = ref 0 in
           let ok, dt =
             timed (fun () ->
                 Spans.with_span ~cell:i "core.adversary/Machine.run_to_completion" (fun () ->
                     let ok = ref true in
                     for pid = 0 to c.Adversary.n - 1 do
                       if not (Machine.run_to_completion m ~pid ~cap:10_000 ~on_step:(fun _ -> incr steps))
                       then ok := false
                     done;
                     !ok))
           in
           check ok;
           (dt, !steps))
  in
  [
    ("adversary.run_ms", ms (Stats.median (List.map snd runs)));
    ("adversary.ns_per_checked_step", per ~num:(sumf snd runs *. 1e9) ~den:checked);
    ("machine.step_ns", per ~num:(sumf fst machine *. 1e9) ~den:(sumi snd machine));
    ("adversary.rounds", float_of_int (rounds (fun _ -> 1)));
    ( "adversary.rounds_hide",
      float_of_int (rounds (fun ri -> if ri.Adversary.kind = Adversary.High_hide then 1 else 0)) );
    ("adversary.replays", float_of_int (rounds (fun ri -> ri.Adversary.replays)));
    ("adversary.checked_steps", float_of_int checked);
  ]

(* ------------------------------------------------------------------ *)
(* core.hiding *)

(* Lemma 5 on the complete 4-partite hypergraph with parts of the
   paper's subgroup size: the solver's cost at the paper's constants. *)
let lemma5_complete () =
  let p = params in
  let parts =
    Array.init p.Hiding.k (fun i ->
        Array.init p.Hiding.subgroup_size (fun j -> (i * p.Hiding.subgroup_size) + j))
  in
  let edges =
    Spans.with_span "core.hiding/Partite.complete" (fun () -> (Partite.complete ~parts).Partite.edges)
  in
  let o, dt =
    timed (fun () ->
        Spans.with_span "core.hiding/Lemma5.solve" (fun () ->
            Lemma5.solve ~s:p.Hiding.s ~eps:p.Hiding.eps ~parts ~edges))
  in
  check
    (Spans.with_span "core.hiding/Lemma5.verify" (fun () ->
         Lemma5.verify ~s:p.Hiding.s ~eps:p.Hiding.eps ~parts ~edges o)
    = Ok ());
  dt

let hiding_metrics hs =
  let calls = Hashtbl.create 8 in
  let on_call name ~s ~words = Hashtbl.add calls name (s, words) in
  Array.iteri (fun i h -> check (hiding_ok h (run_hiding ~on_call ~cell:i h))) hs;
  let med name f = Stats.median (List.map f (Hashtbl.find_all calls name)) in
  [
    ("hiding.solve_s", med "Hiding.solve" fst);
    ("hiding.solve_mwords", med "Hiding.solve" snd /. 1e6);
    ("hiding.verify_ms", ms (med "Hiding.verify" fst));
    ("hiding.query_us", med "Hiding.query" fst *. 1e6);
    ("hiding.verify_query_us", med "Hiding.verify_query" fst *. 1e6);
    ("lemma5.solve_s", lemma5_complete ());
  ]
