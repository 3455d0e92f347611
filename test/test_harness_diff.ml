(* Differential test of the harness scheduler: the event-driven
   scheduler (runnable set plus parked lists) must pick exactly what the
   per-turn scan of harness_reference.ml picks, so every field of the
   result, the recorded trace and the final memory agree. *)

module H = Rme_sim.Harness
module Lock_intf = Rme_sim.Lock_intf
module Prog = Rme_sim.Prog
module Trace = Rme_sim.Trace
module Registry = Rme_locks.Registry
module Memory = Rme_memory.Memory
module Op = Rme_memory.Op
module Rmr = Rme_memory.Rmr

(* Ticket locks whose waiters spin on [serving]. With [~stuck:false] the
   exit serves the next ticket by fetch-and-add, so the waiters depend
   on the wake that follows an FAA (no registry lock spins on a location
   that an FAA changes). With [~stuck:true] the exit serves nobody: the
   first process through leaves everyone else spinning forever, so the
   run reaches the deadlock fallback after some progress. The stuck lock
   is recoverable, so crashes can unpark a process the fallback
   surfaced. *)
let toy_ticket ~stuck =
  {
    Lock_intf.name = (if stuck then "toy-stuck-ticket" else "toy-faa-ticket");
    recoverable = stuck;
    min_width = (fun ~n -> Rme_util.Bitword.bits_needed (n + 1));
    make =
      (fun memory ~n:_ ->
        let next = Memory.alloc memory ~init:0 in
        let serving = Memory.alloc memory ~init:0 in
        let entry ~pid:_ =
          Prog.K.faa next 1 @@ fun t ->
          Prog.K.await serving (fun v -> v = t) @@ fun _ -> Prog.return ()
        in
        {
          Lock_intf.entry;
          exit =
            (fun ~pid:_ ->
              if stuck then Prog.return () else Prog.K.faa serving 1 @@ fun _ -> Prog.return ());
          recover = (fun ~pid:_ -> Prog.return Lock_intf.Resume_entry);
          system_epoch = None;
        });
  }

let faa_ticket = toy_ticket ~stuck:false
let stuck_ticket = toy_ticket ~stuck:true

(* A token passed up the pids: p waits on its own flag, which p - 1 sets
   on its exit. The lower half await the flag and park; the upper half
   alternate between the flag and a scratch cell, so they are never
   parked. Each exit in the lower half therefore wakes one low pid into
   a set holding the whole upper half above it. *)
let chain =
  {
    Lock_intf.name = "toy-chain";
    recoverable = false;
    min_width = (fun ~n:_ -> 1);
    make =
      (fun memory ~n ->
        let flags = Array.init n (fun p -> Memory.alloc memory ~init:(if p = 0 then 1 else 0)) in
        let scratch = Memory.alloc memory ~init:0 in
        let rec busy pid =
          Prog.K.read flags.(pid) @@ fun v ->
          if v = 1 then Prog.return () else Prog.K.read scratch @@ fun _ -> busy pid
        in
        {
          Lock_intf.entry =
            (fun ~pid ->
              if 2 * pid >= n then busy pid
              else Prog.K.await flags.(pid) (fun v -> v = 1) @@ fun _ -> Prog.return ());
          exit =
            (fun ~pid -> if pid + 1 < n then Prog.write flags.(pid + 1) 1 else Prog.return ());
          recover = (fun ~pid:_ -> Prog.return Lock_intf.Resume_entry);
          system_epoch = None;
        });
  }

type case = { lock : Lock_intf.factory; config : H.config }

let gen_crashes (lock : Lock_intf.factory) ~n =
  let open QCheck.Gen in
  let system =
    [
      map (fun l -> H.System_crash_script l) (list_size (int_bound 4) (int_bound (40 * n)));
      map3
        (fun prob seed max -> H.System_crash_prob { prob; seed; max })
        (float_bound_inclusive 0.05) nat (int_bound 3);
    ]
  in
  let individual =
    [
      map2
        (fun prob seed -> H.Crash_prob { prob; seed })
        (float_bound_inclusive 0.1) nat;
      map
        (fun l -> H.Crash_script l)
        (list_size (int_bound 6) (pair (int_bound (30 * n)) (int_bound (n - 1))));
    ]
  in
  if not lock.Lock_intf.recoverable then return H.No_crashes
  else if List.memq lock Registry.system_wide then oneof (return H.No_crashes :: system)
  else oneof ((return H.No_crashes :: system) @ individual)

let gen_case =
  let open QCheck.Gen in
  let* lock = oneofl (faa_ticket :: stuck_ticket :: Registry.all) in
  (* The stuck lock runs out its step budget, which grows as n^2. *)
  let* n = int_range 1 (if lock == stuck_ticket then 4 else 64) in
  let min_w = lock.Lock_intf.min_width ~n in
  let* width = oneofl (List.filter (fun w -> w >= min_w) [ min_w; 16; 32; 62 ]) in
  let* model = oneofl Rmr.all_models in
  let* superpassages = int_range 1 3 in
  let* policy = oneof [ return H.Round_robin; map (fun s -> H.Random_policy s) nat ] in
  let* crashes = gen_crashes lock ~n in
  let* allow_cs_crash = bool in
  let* max_crashes_per_process = int_range 1 3 in
  let* record_trace = frequency [ (3, return true); (1, return false) ] in
  return
    {
      lock;
      config =
        {
          H.n;
          width;
          model;
          superpassages;
          policy;
          crashes;
          allow_cs_crash;
          max_crashes_per_process;
          record_trace;
          cs = None;
        };
    }

let print_case { lock; config = c } =
  let crashes =
    match c.H.crashes with
    | H.No_crashes -> "none"
    | H.Crash_prob { prob; seed } -> Printf.sprintf "prob %g seed %d" prob seed
    | H.Crash_script l ->
        "script " ^ String.concat ";" (List.map (fun (s, p) -> Printf.sprintf "%d@%d" p s) l)
    | H.System_crash_script l ->
        "system script " ^ String.concat ";" (List.map string_of_int l)
    | H.System_crash_prob { prob; seed; max } ->
        Printf.sprintf "system prob %g seed %d max %d" prob seed max
  in
  Printf.sprintf "%s n=%d w=%d %s sp=%d %s crashes=[%s] cs_crash=%b max=%d trace=%b"
    lock.Lock_intf.name c.H.n c.H.width (Rmr.model_name c.H.model) c.H.superpassages
    (match c.H.policy with
    | H.Round_robin -> "round-robin"
    | H.Random_policy s -> Printf.sprintf "random %d" s)
    crashes c.H.allow_cs_crash c.H.max_crashes_per_process c.H.record_trace

(* An [Rmw] step holds a function, so events are compared with each
   [Rmw] reduced to its name. *)
let event_key = function
  | Trace.Step s ->
      let op = match s.Trace.op with Op.Rmw { name; _ } -> `Rmw name | op -> `Op op in
      `Step (s.Trace.pid, s.Trace.loc, op, s.Trace.old_value, s.Trace.new_value, s.Trace.rmr, s.Trace.section)
  | Trace.Crash { pid; section } -> `Crash (pid, section)

(* Everything a run reports, with the memory as its final values. *)
let observe (r : H.result) =
  ( (r.H.ok, r.H.completed, r.H.timed_out, r.H.steps, r.H.violations),
    (r.H.procs, r.H.max_passage_rmr, r.H.mean_passage_rmr, r.H.total_crashes),
    Option.map (fun t -> List.map event_key (Trace.events t)) r.H.trace,
    Memory.snapshot r.H.memory )

let prop_matches_reference =
  QCheck.Test.make ~count:300 ~name:"event-driven scheduler =~ scan reference"
    (QCheck.make ~print:print_case gen_case)
    (fun { lock; config } ->
      observe (H.run config lock) = observe (Harness_reference.run config lock))

(* The property draws n <= 64, where the runnable array stays short.
   These fixed cases shift long ones: KM at n = 512, w = 4 keeps a
   sparse set (a few tens of runnable pids) that changes on few turns;
   TAS and ticket at n = 256 park every waiter on one location, so each
   release wakes nearly all of them at once and they re-park one by
   one; the chain at n = 256 adds single pids to a long set. They
   record no trace: a broken runnable set can run out the n^2 step
   budget, and a trace that long would not fit in memory. *)
let large_cases =
  let case (lock : Lock_intf.factory) ~n ~width model policy =
    { lock; config = { (H.default_config ~n ~width model) with H.policy } }
  in
  List.concat_map
    (fun policy ->
      [
        case Rme_locks.Katzan_morrison.factory ~n:512 ~width:4 Rmr.Cc policy;
        case Rme_locks.Tas.factory ~n:256 ~width:16 Rmr.Cc policy;
        case Rme_locks.Ticket.factory ~n:256 ~width:16 Rmr.Dsm policy;
        case chain ~n:256 ~width:1 Rmr.Cc policy;
      ])
    [ H.Random_policy 11; H.Round_robin ]

(* The large cases above are crash-free, and the property draws
   n <= 64. These take the crash paths at n = 256, with individual
   crashes allowed inside the CS: KM with random crashes, rcas in DSM
   with scripted crashes spread over the run, and Epoch-MCS with
   system-wide crashes, each of which refreshes every pid. *)
let large_crash_cases =
  let case (lock : Lock_intf.factory) ~width model crashes policy =
    {
      lock;
      config =
        {
          (H.default_config ~n:256 ~width model) with
          H.policy;
          crashes;
          allow_cs_crash = true;
        };
    }
  in
  let script = List.init 48 (fun i -> ((i * 1_009) + 50, (i * 37) mod 256)) in
  List.concat_map
    (fun policy ->
      [
        case Rme_locks.Katzan_morrison.factory ~width:4 Rmr.Cc
          (H.Crash_prob { prob = 0.002; seed = 5 })
          policy;
        case Rme_locks.Rcas.factory ~width:16 Rmr.Dsm (H.Crash_script script) policy;
        case Rme_locks.Epoch_mcs.factory ~width:16 Rmr.Cc
          (H.System_crash_script [ 300; 2_500; 9_000 ])
          policy;
      ])
    [ H.Random_policy 11; H.Round_robin ]

let check_cases cases () =
  List.iter
    (fun ({ lock; config } as c) ->
      Alcotest.(check bool)
        (print_case c) true
        (observe (H.run config lock) = observe (Harness_reference.run config lock)))
    cases

let suite =
  ( "harness-diff",
    [
      Qc.to_alcotest prop_matches_reference;
      Alcotest.test_case "large n =~ scan reference" `Quick (check_cases large_cases);
      Alcotest.test_case "large n with crashes =~ scan reference" `Quick
        (check_cases large_crash_cases);
    ] )
