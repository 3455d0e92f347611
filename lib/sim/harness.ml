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
  step_budget : int;
  record_trace : bool;
  cs : (pid:int -> attempt:int -> unit Prog.t) option;
}

(* The default scheduler-turn budget: a constant floor for tiny runs
   plus an n^2 term (each of n processes may legitimately wait out
   O(n) critical sections under contention). Exposed so experiments
   and front-ends can scale or override it. *)
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
    step_budget = default_step_budget ~n;
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

type phase =
  | Remainder
  | Entry of unit Prog.t
  | Cs of unit Prog.t
  | Exit of unit Prog.t
  | Recovery of Lock_intf.resume Prog.t
  | Finished

type proc = {
  p_pid : int;
  mutable p_phase : phase;
  mutable p_left : int;
  mutable p_crashes : int;
  mutable p_cs_entries : int;
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

let section_of_phase = function
  | Entry _ -> Trace.In_entry
  | Cs _ -> Trace.In_cs
  | Exit _ -> Trace.In_exit
  | Recovery _ -> Trace.In_recovery
  | Remainder | Finished -> Trace.In_entry (* unreachable in practice *)

(* The single critical-section step of assumption (A2): one RMR-incurring
   operation on a location outside the lock's object set. *)
let cs_program cs_loc ~pid = Prog.write cs_loc (pid land 1)

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
  let memory = Memory.create ~width:config.width in
  let lock = factory.make memory ~n:config.n in
  let cs_loc = Memory.alloc memory ~name:"cs-cell" ~init:0 in
  let rmr = Rmr.create config.model ~n:config.n in
  let trace = if config.record_trace then Some (Trace.create ()) else None in
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
          p_pid = pid;
          p_phase = Remainder;
          p_left = config.superpassages;
          p_crashes = 0;
          p_cs_entries = 0;
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
  let end_passage p =
    if p.p_in_passage then begin
      let count = Rmr.passage rmr ~pid:p.p_pid - p.p_cs_rmrs in
      ignore (Vec.push p.p_passage_rmrs count);
      p.p_in_passage <- false
    end
  in
  let begin_passage p =
    Rmr.start_passage rmr ~pid:p.p_pid;
    p.p_cs_rmrs <- 0;
    p.p_in_passage <- true
  in
  let cs_body p =
    let pid = p.p_pid in
    match config.cs with
    | Some body -> body ~pid ~attempt:(config.superpassages - p.p_left)
    | None -> cs_program cs_loc ~pid
  in
  let enter_cs p =
    (match !holder with
    | Some q when q <> p.p_pid ->
        violate "mutual exclusion violated: p%d entered CS while p%d holds the lock"
          p.p_pid q
    | Some _ | None -> ());
    holder := Some p.p_pid;
    p.p_cs_entries <- p.p_cs_entries + 1;
    if not p.p_cs_this_sp then begin
      (* First CS entry of this super-passage: how many other entries
         happened since the request? *)
      p.p_max_bypass <-
        max p.p_max_bypass (!global_cs_entries - p.p_requested_at);
      incr global_cs_entries
    end;
    p.p_cs_this_sp <- true;
    p.p_phase <- Cs (cs_body p)
  in
  let release_holder p =
    match !holder with
    | Some q when q = p.p_pid -> holder := None
    | Some _ | None -> ()
  in
  let finish_superpassage p =
    (* Every super-passage must pass through the critical section exactly
       once; a recover protocol that skips to Passage_done without the CS
       having run has lost a request. *)
    if not p.p_cs_this_sp then
      violate "p%d completed a super-passage without entering the critical section"
        p.p_pid;
    p.p_cs_this_sp <- false;
    end_passage p;
    release_holder p;
    p.p_left <- p.p_left - 1;
    p.p_phase <- (if p.p_left = 0 then Finished else Remainder)
  in
  (* Resolve phase transitions until the process is poised on a
     shared-memory step (or finished). Each [Cs] program contains at least
     one step, so the cascade terminates. *)
  let rec settle p =
    match p.p_phase with
    | Finished -> ()
    | Remainder ->
        if p.p_left > 0 then begin
          begin_passage p;
          p.p_requested_at <- !global_cs_entries;
          p.p_phase <- Entry (lock.Lock_intf.entry ~pid:p.p_pid);
          settle p
        end
        else p.p_phase <- Finished
    | Entry (Prog.Return ()) ->
        enter_cs p;
        settle p
    | Cs (Prog.Return ()) ->
        (* The critical section is over once the process starts its exit
           protocol; mutual exclusion constrains the CS only. A crash
           *inside* the CS, by contrast, keeps the holder set: the crashed
           process must re-enter before anyone else may. *)
        release_holder p;
        p.p_phase <- Exit (lock.Lock_intf.exit ~pid:p.p_pid);
        settle p
    | Exit (Prog.Return ()) -> finish_superpassage p
    | Recovery (Prog.Return resume) -> begin
        match resume with
        | Lock_intf.Resume_entry ->
            p.p_phase <- Entry (lock.Lock_intf.entry ~pid:p.p_pid);
            settle p
        | Lock_intf.In_cs ->
            enter_cs p;
            settle p
        | Lock_intf.Resume_exit ->
            p.p_phase <- Exit (lock.Lock_intf.exit ~pid:p.p_pid);
            settle p
        | Lock_intf.Passage_done -> finish_superpassage p
      end
    | Entry (Prog.Step _) | Cs (Prog.Step _) | Exit (Prog.Step _)
    | Recovery (Prog.Step _) ->
        ()
  in
  let crashable p =
    factory.recoverable
    && p.p_crashes < config.max_crashes_per_process
    &&
    match p.p_phase with
    | Entry _ | Exit _ | Recovery _ -> true
    | Cs _ -> config.allow_cs_crash
    | Remainder | Finished -> false
  in
  let crash_fires p =
    crashable p
    &&
    match config.crashes with
    | No_crashes | System_crash_script _ | System_crash_prob _ -> false
    | Crash_prob { prob; _ } -> (
        match crash_rng with
        | Some rng -> Splitmix.float rng < prob
        | None -> false)
    | Crash_script _ -> (
        match p.p_pending_crashes with
        | s :: rest when s <= !steps ->
            p.p_pending_crashes <- rest;
            true
        | _ :: _ | [] -> false)
  in
  let do_crash p =
    let section = section_of_phase p.p_phase in
    p.p_crashes <- p.p_crashes + 1;
    end_passage p;
    Rmr.on_crash rmr ~pid:p.p_pid;
    (match trace with
    | Some t -> Trace.record t (Trace.Crash { pid = p.p_pid; section })
    | None -> ());
    begin_passage p;
    p.p_spin_loc <- -1;
    p.p_phase <- Recovery (lock.Lock_intf.recover ~pid:p.p_pid)
  in
  (* Perform one atomic shared-memory operation for [p], with accounting
     and tracing, and return the pre-operation value. *)
  let perform p loc op section =
    let old = Memory.apply memory ~pid:p.p_pid loc op in
    let incurred =
      Rmr.record rmr ~pid:p.p_pid ~loc ~owner:(Memory.owner memory loc)
        ~is_read:(Op.is_read op)
    in
    if incurred && section = Trace.In_cs then p.p_cs_rmrs <- p.p_cs_rmrs + 1;
    (match trace with
    | Some t ->
        Trace.record t
          (Trace.Step
             {
               pid = p.p_pid;
               loc;
               op;
               old_value = old;
               new_value = Memory.value memory loc;
               rmr = incurred;
               section;
             })
    | None -> ());
    old
  in
  (* Location of a poised read, -1 otherwise — queried twice per step. *)
  let poised_read_loc = function
    | Entry (Prog.Step (loc, Op.Read, _))
    | Cs (Prog.Step (loc, Op.Read, _))
    | Exit (Prog.Step (loc, Op.Read, _))
    | Recovery (Prog.Step (loc, Op.Read, _)) ->
        loc
    | Entry _ | Cs _ | Exit _ | Recovery _ | Remainder | Finished -> -1
  in
  let execute p =
    let was_read = poised_read_loc p.p_phase in
    (match p.p_phase with
    | Entry (Prog.Step (loc, op, k)) ->
        p.p_phase <- Entry (k (perform p loc op Trace.In_entry))
    | Cs (Prog.Step (loc, op, k)) ->
        p.p_phase <- Cs (k (perform p loc op Trace.In_cs))
    | Exit (Prog.Step (loc, op, k)) ->
        p.p_phase <- Exit (k (perform p loc op Trace.In_exit))
    | Recovery (Prog.Step (loc, op, k)) ->
        p.p_phase <- Recovery (k (perform p loc op Trace.In_recovery))
    | Remainder | Finished
    | Entry (Prog.Return _)
    | Cs (Prog.Return _)
    | Exit (Prog.Return _)
    | Recovery (Prog.Return _) ->
        assert false);
    if was_read >= 0 && poised_read_loc p.p_phase = was_read then begin
      p.p_spin_loc <- was_read;
      p.p_spin_val <- Memory.value memory was_read
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
      match procs.(pid).p_phase with
      | Finished -> ()
      | Remainder ->
          if procs.(pid).p_left > 0 then begin
            cand.(!len) <- pid;
            incr len
          end
          else procs.(pid).p_phase <- Finished
      | Entry _ | Cs _ | Exit _ | Recovery _ ->
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
        match procs.(pid).p_phase with
        | Entry _ | Cs _ | Exit _ | Recovery _ ->
            cand.(!len) <- pid;
            incr len
        | Remainder | Finished -> ()
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
  (* Budget check, consulted only while runnable work remains — so
     exhausting it always means the run was cut short. *)
  let budget_left () =
    if !steps >= config.step_budget then begin
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
    (match lock.Lock_intf.system_epoch with
    | Some epoch ->
        (* The system's epoch increment is a real non-read operation on
           shared memory: it invalidates cache copies (processes in the
           remainder may hold one) and appears in the trace. It is
           attributed to no process's RMR count. *)
        let old = Memory.apply memory ~pid:0 epoch (Op.Faa 1) in
        (match Rmr.cache rmr with
        | Some c ->
            ignore (Rme_memory.Cache.access c ~pid:0 ~loc:epoch ~is_read:false)
        | None -> ());
        (match trace with
        | Some t ->
            Trace.record t
              (Trace.Step
                 {
                   pid = 0;
                   loc = epoch;
                   op = Op.Faa 1;
                   old_value = old;
                   new_value = Memory.value memory epoch;
                   rmr = true;
                   section = Trace.In_recovery;
                 })
        | None -> ())
    | None -> ());
    Array.iter
      (fun p ->
        settle p;
        match p.p_phase with
        | Entry _ | Cs _ | Exit _ | Recovery _ -> do_crash p
        | Remainder | Finished -> ())
      procs
  in
  let rec loop () =
    let len = runnable () in
    if len = 0 then completed := true
    else if budget_left () then begin
      if system_crash_fires () then do_system_crash ();
      let pid = pick len in
      let p = procs.(pid) in
      settle p;
      (match p.p_phase with
      | Finished | Remainder -> () (* settled into completion *)
      | Entry _ | Cs _ | Exit _ | Recovery _ ->
          if crash_fires p then do_crash p else execute p;
          (* Settle eagerly so "runnable" reflects completion. *)
          settle p);
      incr steps;
      loop ()
    end
  in
  loop ();
  let proc_stats p =
    let arr = Vec.to_array p.p_passage_rmrs in
    {
      pid = p.p_pid;
      passages = Array.length arr;
      crashes = p.p_crashes;
      total_rmrs = Rmr.total rmr ~pid:p.p_pid;
      passage_rmrs = arr;
      max_passage_rmr = Array.fold_left max 0 arr;
      cs_entries = p.p_cs_entries;
      max_bypass = p.p_max_bypass;
    }
  in
  let stats = Array.map proc_stats procs in
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
    total_crashes = Array.fold_left (fun acc p -> acc + p.p_crashes) 0 procs;
    trace;
    memory;
    model = config.model;
  }
