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
      (* Stutter detection: when >= 0, the process is parked — it read
         this location's current value and is poised to read it again.
         Re-executing the read before the value changes provably
         reproduces the same state (continuations depend only on the
         value read), so the scheduler skips it; this both matches the
         per-invalidation RMR counting convention and keeps large
         simulations near-linear. A parked process is on its location's
         parked list exactly while this is set; it leaves when a step
         changes the location's value, or when it crashes. -1 when not
         parked (a plain int rather than an option: this is written on
         every step). *)
}

(* The runnable pids, kept in ascending order in a dense array of
   32-bit slots, plus a membership byte per pid. The k-th runnable pid
   ([select]) is one read and [rank] a binary search. Adding or removing
   one pid moves the slots above it with one [Bytes.blit] (a memmove),
   O(size), so waking a parked list of k pids costs O(k * size). Large
   sparse runs keep the set small and change it on few turns (KM at
   n = 512–1024: 61–153 runnable pids on a mean turn, a change on 7–9%
   of turns), so the pick, made every turn, is what has to be cheap. *)
module Runnable = struct
  type t = { member : Bytes.t; pids : Bytes.t; mutable size : int }

  let create n = { member = Bytes.make n '\000'; pids = Bytes.create (4 * n); size = 0 }

  let select t k = Int32.to_int (Bytes.get_int32_le t.pids (4 * k))
  let mem t pid = Bytes.get t.member pid = '\001'

  (* The number of runnable pids below [c]. *)
  let rank t c =
    let lo = ref 0 and hi = ref t.size in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if select t mid < c then lo := mid + 1 else hi := mid
    done;
    !lo

  let set t pid runnable =
    if (Bytes.get t.member pid = '\001') <> runnable then begin
      Bytes.set t.member pid (if runnable then '\001' else '\000');
      let r = rank t pid in
      if runnable then begin
        Bytes.blit t.pids (4 * r) t.pids (4 * (r + 1)) (4 * (t.size - r));
        Bytes.set_int32_le t.pids (4 * r) (Int32.of_int pid);
        t.size <- t.size + 1
      end
      else begin
        Bytes.blit t.pids (4 * (r + 1)) t.pids (4 * r) (4 * (t.size - r - 1));
        t.size <- t.size - 1
      end
    end
end

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

(* A lock with an epoch counter is built for the system-wide model: its
   recovery relies on every process having crashed at once, so it makes
   no promise under individual crashes. Known once the lock is built. *)
let validate_instance (config : config) (factory : Lock_intf.factory) st =
  match config.crashes with
  | Crash_prob _ | Crash_script _ ->
      if Stepper.system_epoch st <> None then
        invalid_arg
          (Printf.sprintf
             "Harness.run: lock %s is for system-wide crashes only; cannot \
              inject individual crashes"
             factory.name)
  | No_crashes | System_crash_script _ | System_crash_prob _ -> ()

let run config (factory : Lock_intf.factory) =
  validate config factory;
  let trace = if config.record_trace then Some (Trace.create ()) else None in
  let st =
    Stepper.create ?trace ~n:config.n ~width:config.width ~model:config.model
      ~superpassages:config.superpassages ~cs:config.cs factory
  in
  validate_instance config factory st;
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
  (* A pid is runnable iff it rests in the remainder with super-passages
     left, or is outside the remainder and not parked. Only a pid's own
     turn, a wake and a system crash change that. *)
  let runnable = Runnable.create config.n in
  let refresh pid =
    let sp = sprocs.(pid) in
    Runnable.set runnable pid
      (match sp.section with
      | Stepper.Remainder -> sp.left > 0
      | Stepper.Entry | Stepper.Cs | Stepper.Exit | Stepper.Recovery ->
          procs.(pid).p_spin_loc < 0)
  in
  for pid = 0 to config.n - 1 do
    refresh pid
  done;
  (* The parked spinners of each location, as intrusive doubly-linked
     lists: [parked.(loc)] is the first pid parked on [loc] (-1 if none),
     [next]/[prev] link the pids of one list. Every pid parked on [loc]
     read [loc]'s current value, so a step that changes it wakes the
     whole list and one that leaves it unchanged wakes nobody. *)
  let parked = Array.make (Memory.num_locs memory) (-1) in
  let next = Array.make config.n (-1) and prev = Array.make config.n (-1) in
  let park pid loc =
    procs.(pid).p_spin_loc <- loc;
    let head = parked.(loc) in
    next.(pid) <- head;
    prev.(pid) <- -1;
    if head >= 0 then prev.(head) <- pid;
    parked.(loc) <- pid
  in
  let unpark pid =
    let p = procs.(pid) in
    let loc = p.p_spin_loc in
    if loc >= 0 then begin
      let nx = next.(pid) and pv = prev.(pid) in
      if pv >= 0 then next.(pv) <- nx else parked.(loc) <- nx;
      if nx >= 0 then prev.(nx) <- pv;
      p.p_spin_loc <- -1
    end
  in
  let rec wake pid =
    if pid >= 0 then begin
      let nx = next.(pid) in
      procs.(pid).p_spin_loc <- -1;
      Runnable.set runnable pid true;
      wake nx
    end
  in
  let crashable pid =
    factory.recoverable
    && sprocs.(pid).crashes < config.max_crashes_per_process
    &&
    match sprocs.(pid).section with
    | Stepper.Entry | Stepper.Exit | Stepper.Recovery -> true
    | Stepper.Cs -> config.allow_cs_crash
    | Stepper.Remainder -> false
  in
  (* The crash regime, resolved once: a crash-free run tests no crash
     predicate on its turns. *)
  let individual_crashes, system_crashes =
    match config.crashes with
    | No_crashes -> (false, false)
    | Crash_prob _ | Crash_script _ -> (true, false)
    | System_crash_script _ | System_crash_prob _ -> (false, true)
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
    unpark pid
  in
  (* Perform [pid]'s poised operation [op] on [loc], with CS-RMR
     accounting and stutter detection, then settle the process if its
     program returned. Returns whether the process may have changed
     from runnable to not or back: only then does the turn refresh it. *)
  let execute pid (sp : Stepper.proc) loc op =
    let p = procs.(pid) in
    let in_cs =
      match sp.section with
      | Stepper.Cs -> true
      | Stepper.Remainder | Stepper.Entry | Stepper.Exit | Stepper.Recovery -> false
    in
    let is_read = Op.is_read op in
    (* Only a non-read can change the value, and so wake anyone. *)
    let before = if is_read then 0 else Memory.value memory loc in
    (* Parked only when the deadlock fallback picked it. *)
    let was_parked = p.p_spin_loc >= 0 in
    if was_parked then unpark pid;
    let rmr = Stepper.step st ~pid in
    if rmr && in_cs then p.p_cs_rmrs <- p.p_cs_rmrs + 1;
    if (not is_read) && Memory.value memory loc <> before then begin
      let head = parked.(loc) in
      parked.(loc) <- -1;
      wake head
    end;
    (* A step leaves the section as it was, so the new program is read
       from the same field. *)
    match (sp.section, sp.prog, sp.recovery) with
    | (Stepper.Entry | Stepper.Cs | Stepper.Exit), Prog.Step (l, Op.Read, _), _
    | Stepper.Recovery, _, Prog.Step (l, Op.Read, _)
      when is_read && l = loc ->
        park pid loc;
        true
    | (Stepper.Entry | Stepper.Cs | Stepper.Exit), Prog.Step _, _
    | Stepper.Recovery, _, Prog.Step _ ->
        was_parked
    | (Stepper.Remainder | Stepper.Entry | Stepper.Cs | Stepper.Exit | Stepper.Recovery), _, _
      ->
        settle pid;
        true
  in
  (* One turn of [pid], returning whether to refresh it. The process's
     step is matched once, and it is settled before the step only when
     it is not poised: it rests in the remainder, its program returned,
     or a system crash left it at the start of a [recover] that
     returned at once. *)
  let rec turn pid (sp : Stepper.proc) ~settled =
    match (sp.section, sp.prog, sp.recovery) with
    | (Stepper.Entry | Stepper.Cs | Stepper.Exit), Prog.Step (loc, op, _), _
    | Stepper.Recovery, _, Prog.Step (loc, op, _) ->
        if individual_crashes && crash_fires pid then begin
          do_crash pid;
          settle pid;
          true
        end
        else execute pid sp loc op
    | (Stepper.Remainder | Stepper.Entry | Stepper.Cs | Stepper.Exit | Stepper.Recovery), _, _
      ->
        if not settled then begin
          settle pid;
          ignore (turn pid sp ~settled:true)
        end;
        true
  in
  let sched_rng =
    match config.policy with
    | Random_policy seed -> Some (Splitmix.create seed)
    | Round_robin -> None
  in
  let rr_cursor = ref 0 in
  (* Round robin advances a global cursor and picks the first candidate
     at or after it, wrapping to the first. *)
  let advance pid =
    rr_cursor := (pid + 1) mod config.n;
    pid
  in
  (* Deadlock fallback: when nothing is runnable but some process is
     outside the remainder, every such process is a parked spinner and
     nothing can ever change. Surface them, in ascending order, so the
     step budget flags the deadlock. *)
  let blocked = Array.make config.n 0 in
  let collect_blocked () =
    let len = ref 0 in
    for pid = 0 to config.n - 1 do
      match sprocs.(pid).section with
      | Stepper.Entry | Stepper.Cs | Stepper.Exit | Stepper.Recovery ->
          blocked.(!len) <- pid;
          incr len
      | Stepper.Remainder -> ()
    done;
    !len
  in
  let pick_blocked len =
    match sched_rng with
    | Some rng -> blocked.(Splitmix.int rng len)
    | None ->
        let i = ref 0 in
        while !i < len && blocked.(!i) < !rr_cursor do
          incr i
        done;
        advance blocked.(if !i < len then !i else 0)
  in
  let pick_runnable len =
    match sched_rng with
    | Some rng -> Runnable.select runnable (Splitmix.int rng len)
    | None ->
        let below = Runnable.rank runnable !rr_cursor in
        advance (Runnable.select runnable (if below < len then below else 0))
  in
  (* A pick from the runnable set must be a member whose own state says
     it is runnable. A broken set fails here, on the turn it first
     misleads the scheduler, rather than by running out the step budget. *)
  let check_runnable pid =
    let sp = sprocs.(pid) in
    if
      not
        (Runnable.mem runnable pid
        && procs.(pid).p_spin_loc < 0
        &&
        match sp.section with
        | Stepper.Remainder -> sp.left > 0
        | Stepper.Entry | Stepper.Cs | Stepper.Exit | Stepper.Recovery -> true)
    then
      failwith
        (Printf.sprintf "Harness.run: turn %d picked p%d, which is not runnable" !steps pid)
  in
  let completed = ref false in
  let timed_out = ref false in
  let step_budget = default_step_budget ~n:config.n in
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
  (* The crash unparks every process outside the remainder, so no parked
     list needs the epoch increment's wake. *)
  let do_system_crash () =
    incr sys_crashes;
    Stepper.epoch_step st;
    for pid = 0 to config.n - 1 do
      settle pid;
      (match sprocs.(pid).section with
      | Stepper.Entry | Stepper.Cs | Stepper.Exit | Stepper.Recovery ->
          do_crash pid
      | Stepper.Remainder -> ());
      refresh pid
    done
  in
  (* The pick is made from the set as it stood before a system crash.
     It draws from [sched_rng] and the crash from [crash_rng], so the
     order of the two draws does not matter. *)
  let play pid =
    if system_crashes && system_crash_fires () then do_system_crash ();
    if turn pid sprocs.(pid) ~settled:false then refresh pid;
    incr steps
  in
  (* The budget is consulted only while work remains, so exhausting it
     always means the run was cut short. *)
  let rec loop () =
    let size = runnable.size in
    if size > 0 then begin
      if !steps >= step_budget then timed_out := true
      else begin
        let pid = pick_runnable size in
        check_runnable pid;
        play pid;
        loop ()
      end
    end
    else begin
      let len = collect_blocked () in
      if len = 0 then completed := true
      else if !steps >= step_budget then timed_out := true
      else begin
        play (pick_blocked len);
        loop ()
      end
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
