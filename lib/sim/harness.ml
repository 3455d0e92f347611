module Memory = Rme_memory.Memory
module Op = Rme_memory.Op
module Rmr = Rme_memory.Rmr
module Splitmix = Rme_util.Splitmix
module Vec = Rme_util.Vec

type policy = Round_robin | Random_policy of int

type crash_policy =
  | No_crashes
  | Crash_prob of { prob : float; seed : int }
  | Crash_script of (int * int) list
  | System_crash_script of int list
  | System_crash_prob of { prob : float; seed : int; max : int }

type config = {
  n : int;
  width : int;
  model : Rmr.model;
  superpassages : int;
  policy : policy;
  crashes : crash_policy;
  allow_cs_crash : bool;
  max_crashes_per_process : int;
  record_trace : bool;
  cs : (pid:int -> attempt:int -> unit Prog.t) option;
}

let default_step_budget ~n = 20_000 + (4_000 * n * n)

let default_config ~n ~width model =
  {
    n;
    width;
    model;
    superpassages = 1;
    policy = Round_robin;
    crashes = No_crashes;
    allow_cs_crash = false;
    max_crashes_per_process = 1;
    record_trace = false;
    cs = None;
  }

type proc_stats = {
  pid : int;
  passages : int;
  crashes : int;
  total_rmrs : int;
  passage_rmrs : int array;
  max_passage_rmr : int;
  cs_entries : int;
  max_bypass : int;
}

type result = {
  ok : bool;
  completed : bool;
  timed_out : bool;
  steps : int;
  violations : string list;
  procs : proc_stats array;
  max_passage_rmr : int;
  mean_passage_rmr : float;
  total_crashes : int;
  trace : Trace.t option;
  memory : Memory.t;
  model : Rmr.model;
}

type proc = {
  mutable p_cs_rmrs : int; (* CS-step RMRs in the current passage *)
  mutable p_in_passage : bool;
  p_passage_rmrs : int Vec.t;
  mutable p_pending_crashes : int list; (* script: step thresholds, sorted *)
  mutable p_cs_this_sp : bool; (* CS entered during the current super-passage *)
  mutable p_requested_at : int; (* global CS-entry count when this super-passage began *)
  mutable p_max_bypass : int;
  mutable p_spin_loc : int;
      (* Stutter detection: when >= 0, the process is spinning — it read
         [p_spin_val] from this location and is poised to read it again.
         Re-executing the read before the value changes provably
         reproduces the same state (continuations depend only on the
         value read), so the scheduler skips it; this both matches the
         per-invalidation RMR counting convention and keeps large
         simulations near-linear. -1 when not spinning (two plain int
         fields rather than an option: this is written on every step). *)
  mutable p_spin_val : int;
}

let validate config (factory : Lock_intf.factory) =
  if not (Lock_intf.supports factory ~n:config.n ~width:config.width) then
    invalid_arg
      (Printf.sprintf
         "Harness.run: lock %s needs width >= %d for n = %d (got %d)"
         factory.name
         (factory.min_width ~n:config.n)
         config.n config.width);
  match config.crashes with
  | No_crashes -> ()
  | Crash_prob _ | Crash_script _ | System_crash_script _ | System_crash_prob _
    ->
      if not factory.recoverable then
        invalid_arg
          (Printf.sprintf
             "Harness.run: lock %s is not recoverable; cannot inject crashes"
             factory.name)

let run config (factory : Lock_intf.factory) =
  validate config factory;
  let trace = if config.record_trace then Some (Trace.create ()) else None in
  let st =
    Stepper.create ?trace ~n:config.n ~width:config.width ~model:config.model
      ~superpassages:config.superpassages ~cs:config.cs factory
  in
  let memory = Stepper.memory st and rmr = Stepper.rmr st in
  let sprocs = Stepper.procs st in
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  (* [holder] is the logical lock holder: set when a process first enters
     the critical section of a super-passage, cleared when its exit
     protocol completes. Crashes do not clear it: a crashed holder still
     excludes everyone else until it recovers and releases. *)
  let holder = ref None in
  let global_cs_entries = ref 0 in
  let crash_rng =
    match config.crashes with
    | Crash_prob { seed; _ } | System_crash_prob { seed; _ } ->
        Some (Splitmix.create seed)
    | No_crashes | Crash_script _ | System_crash_script _ -> None
  in
  let scripted pid =
    match config.crashes with
    | Crash_script l ->
        List.filter_map (fun (s, p) -> if p = pid then Some s else None) l
        |> List.sort compare
    | No_crashes | Crash_prob _ | System_crash_script _ | System_crash_prob _ ->
        []
  in
  let sys_pending =
    ref
      (match config.crashes with
      | System_crash_script l -> List.sort compare l
      | No_crashes | Crash_prob _ | Crash_script _ | System_crash_prob _ -> [])
  in
  let sys_crashes = ref 0 in
  let procs =
    Array.init config.n (fun pid ->
        {
          p_cs_rmrs = 0;
          p_in_passage = false;
          p_passage_rmrs = Vec.create ();
          p_pending_crashes = scripted pid;
          p_cs_this_sp = false;
          p_requested_at = 0;
          p_max_bypass = 0;
          p_spin_loc = -1;
          p_spin_val = 0;
        })
  in
  let steps = ref 0 in
  let end_passage pid =
    let p = procs.(pid) in
    if p.p_in_passage then begin
      let count = Rmr.passage rmr ~pid - p.p_cs_rmrs in
      ignore (Vec.push p.p_passage_rmrs count);
      p.p_in_passage <- false
    end
  in
  let begin_passage pid =
    let p = procs.(pid) in
    Rmr.start_passage rmr ~pid;
    p.p_cs_rmrs <- 0;
    p.p_in_passage <- true
  in
  let release_holder pid =
    match !holder with
    | Some q when q = pid -> holder := None
    | Some _ | None -> ()
  in
  (* Passage, mutual-exclusion and bypass bookkeeping, at each section
     boundary the stepper crosses. *)
  let on_boundary pid b =
    let p = procs.(pid) in
    match b with
    | Stepper.Begin_superpassage ->
        begin_passage pid;
        p.p_requested_at <- !global_cs_entries
    | Stepper.Enter_cs ->
        (match !holder with
        | Some q when q <> pid ->
            violate
              "mutual exclusion violated: p%d entered CS while p%d holds the lock"
              pid q
        | Some _ | None -> ());
        holder := Some pid;
        if not p.p_cs_this_sp then begin
          (* First CS entry of this super-passage: how many other entries
             happened since the request? *)
          p.p_max_bypass <-
            max p.p_max_bypass (!global_cs_entries - p.p_requested_at);
          incr global_cs_entries
        end;
        p.p_cs_this_sp <- true
    | Stepper.Leave_cs ->
        (* The critical section is over once the process starts its exit
           protocol; mutual exclusion constrains the CS only. A crash
           *inside* the CS, by contrast, keeps the holder set: the crashed
           process must re-enter before anyone else may. *)
        release_holder pid
    | Stepper.End_superpassage ->
        (* Every super-passage must pass through the critical section
           exactly once; a recover protocol that skips to Passage_done
           without the CS having run has lost a request. *)
        if not p.p_cs_this_sp then
          violate
            "p%d completed a super-passage without entering the critical section"
            pid;
        p.p_cs_this_sp <- false;
        end_passage pid;
        release_holder pid
  in
  let settle pid = Stepper.settle st ~pid ~on_boundary in
  let crashable pid =
    factory.recoverable
    && sprocs.(pid).crashes < config.max_crashes_per_process
    &&
    match sprocs.(pid).section with
    | Stepper.Entry | Stepper.Exit | Stepper.Recovery -> true
    | Stepper.Cs -> config.allow_cs_crash
    | Stepper.Remainder -> false
  in
  let crash_fires pid =
    crashable pid
    &&
    match config.crashes with
    | No_crashes | System_crash_script _ | System_crash_prob _ -> false
    | Crash_prob { prob; _ } -> (
        match crash_rng with
        | Some rng -> Splitmix.float rng < prob
        | None -> false)
    | Crash_script _ -> (
        let p = procs.(pid) in
        match p.p_pending_crashes with
        | s :: rest when s <= !steps ->
            p.p_pending_crashes <- rest;
            true
        | _ :: _ | [] -> false)
  in
  let do_crash pid =
    end_passage pid;
    Stepper.crash st ~pid;
    begin_passage pid;
    procs.(pid).p_spin_loc <- -1
  in
  (* Perform the poised operation of [pid], with CS-RMR accounting and
     stutter detection. *)
  let execute pid =
    let p = procs.(pid) in
    let section = sprocs.(pid).section in
    let loc = Stepper.poised_loc st ~pid and op = Stepper.poised_op st ~pid in
    let rmr = Stepper.step st ~pid in
    if rmr && section = Stepper.Cs then p.p_cs_rmrs <- p.p_cs_rmrs + 1;
    if
      Op.is_read op
      && Stepper.poised_loc st ~pid = loc
      && Op.is_read (Stepper.poised_op st ~pid)
    then begin
      p.p_spin_loc <- loc;
      p.p_spin_val <- Memory.value memory loc
    end
    else p.p_spin_loc <- -1
  in
  let sched_rng =
    match config.policy with
    | Random_policy seed -> Some (Splitmix.create seed)
    | Round_robin -> None
  in
  let rr_cursor = ref 0 in
  let still_spinning p =
    if p.p_spin_loc < 0 then false
    else if Memory.value memory p.p_spin_loc = p.p_spin_val then true
    else begin
      p.p_spin_loc <- -1;
      false
    end
  in
  (* Candidate pids in ascending order, rebuilt into one shared buffer
     every step — the scheduler allocates nothing per iteration. *)
  let cand = Array.make config.n 0 in
  let runnable () =
    let len = ref 0 in
    let spinners = ref 0 in
    for pid = 0 to config.n - 1 do
      match sprocs.(pid).section with
      | Stepper.Remainder ->
          if sprocs.(pid).left > 0 then begin
            cand.(!len) <- pid;
            incr len
          end
      | Stepper.Entry | Stepper.Cs | Stepper.Exit | Stepper.Recovery ->
          if still_spinning procs.(pid) then incr spinners
          else begin
            cand.(!len) <- pid;
            incr len
          end
    done;
    (* If every unfinished process is a blocked spinner, nothing can ever
       change: surface them so the step budget flags the deadlock. *)
    if !len = 0 && !spinners > 0 then
      for pid = 0 to config.n - 1 do
        match sprocs.(pid).section with
        | Stepper.Entry | Stepper.Cs | Stepper.Exit | Stepper.Recovery ->
            cand.(!len) <- pid;
            incr len
        | Stepper.Remainder -> ()
      done;
    !len
  in
  let pick len =
    match (config.policy, sched_rng) with
    | Round_robin, _ ->
        (* Advance a global cursor; pick the first candidate at or after it. *)
        let rec find i =
          if i >= len then cand.(0)
          else if cand.(i) >= !rr_cursor then cand.(i)
          else find (i + 1)
        in
        let pid = find 0 in
        rr_cursor := (pid + 1) mod config.n;
        pid
    | Random_policy _, Some rng -> cand.(Splitmix.int rng len)
    | Random_policy _, None -> assert false
  in
  let completed = ref false in
  let timed_out = ref false in
  let step_budget = default_step_budget ~n:config.n in
  (* Budget check, consulted only while runnable work remains — so
     exhausting it always means the run was cut short. *)
  let budget_left () =
    if !steps >= step_budget then begin
      timed_out := true;
      false
    end
    else true
  in
  (* System-wide crash: every process outside the remainder crashes at
     the same instant, and the lock's epoch counter — the Golab–Hendler
     system support — is incremented. *)
  let system_crash_fires () =
    match config.crashes with
    | System_crash_script _ -> (
        match !sys_pending with
        | s :: rest when s <= !steps ->
            sys_pending := rest;
            true
        | _ :: _ | [] -> false)
    | System_crash_prob { prob; max; _ } -> (
        !sys_crashes < max
        &&
        match crash_rng with
        | Some rng -> Splitmix.float rng < prob
        | None -> false)
    | No_crashes | Crash_prob _ | Crash_script _ -> false
  in
  let do_system_crash () =
    incr sys_crashes;
    Stepper.epoch_step st;
    for pid = 0 to config.n - 1 do
      settle pid;
      match sprocs.(pid).section with
      | Stepper.Entry | Stepper.Cs | Stepper.Exit | Stepper.Recovery ->
          do_crash pid
      | Stepper.Remainder -> ()
    done
  in
  let rec loop () =
    let len = runnable () in
    if len = 0 then completed := true
    else if budget_left () then begin
      if system_crash_fires () then do_system_crash ();
      let pid = pick len in
      settle pid;
      (match sprocs.(pid).section with
      | Stepper.Remainder -> () (* settled into completion *)
      | Stepper.Entry | Stepper.Cs | Stepper.Exit | Stepper.Recovery ->
          if crash_fires pid then do_crash pid else execute pid;
          (* Settle eagerly so "runnable" reflects completion. *)
          settle pid);
      incr steps;
      loop ()
    end
  in
  loop ();
  let proc_stats pid p =
    let arr = Vec.to_array p.p_passage_rmrs in
    {
      pid;
      passages = Array.length arr;
      crashes = sprocs.(pid).crashes;
      total_rmrs = Rmr.total rmr ~pid;
      passage_rmrs = arr;
      max_passage_rmr = Array.fold_left max 0 arr;
      cs_entries = sprocs.(pid).cs_entries;
      max_bypass = p.p_max_bypass;
    }
  in
  let stats = Array.mapi proc_stats procs in
  let all_passages =
    Array.to_list stats
    |> List.concat_map (fun s -> Array.to_list s.passage_rmrs)
  in
  let max_passage_rmr = List.fold_left max 0 all_passages in
  let mean_passage_rmr =
    match all_passages with
    | [] -> 0.0
    | l -> float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)
  in
  let violations = List.rev !violations in
  {
    ok = !completed && violations = [];
    completed = !completed;
    timed_out = !timed_out;
    steps = !steps;
    violations;
    procs = stats;
    max_passage_rmr;
    mean_passage_rmr;
    total_crashes = Array.fold_left (fun acc s -> acc + s.crashes) 0 stats;
    trace;
    memory;
    model = config.model;
  }
