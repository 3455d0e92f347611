(** The workload scheduler: drives [n] processes of a {!Stepper} through
    super-passages of a lock under a chosen interleaving policy and crash
    regime, accounting RMRs per passage and checking the two RME
    correctness properties the paper requires (mutual exclusion and
    deadlock-freedom).

    Passage accounting follows the paper's definitions exactly: a passage
    begins with the first shared-memory step of the entry or recover
    protocol and ends with the next crash step or with the completion of
    the exit protocol. The one critical-section step each process performs
    (assumption (A2)) is excluded from the passage's RMR count, since the
    paper measures the RMR complexity of the mutual exclusion protocol
    itself.

    Scheduling: each turn steps one runnable process — one resting in
    the remainder with super-passages left, or one outside it that is
    not parked. A process is parked when it has just read a location
    and is poised to read it again: re-reading an unchanged value
    reproduces the same state, so it waits on that location's parked
    list until a step changes the value, or until it crashes. The
    runnable set is kept incrementally, as the runnable pids in
    ascending order in a dense array: {!Random_policy}'s uniform draw
    takes the k-th of them with one read, and {!Round_robin}'s first
    runnable pid at or after a cursor is a binary search. A turn that
    changes the set costs O(runnable) more per pid added or removed,
    since the pids above it move: a release that wakes a long parked
    list (TAS and ticket waiters share one location) pays that once per
    woken pid. Large sparse runs (KM at n = 512–1024) change the set on
    fewer than one turn in ten. A system-wide crash
    refreshes every pid. When only parked processes are left, an O(n)
    scan surfaces all of them as candidates, so a deadlock runs out the
    step budget.

    The harness performs no step itself and builds no event: with
    [record_trace], it attaches a {!Trace.t} to its {!Stepper}, which
    records every step, crash step and system epoch increment. *)

type policy =
  | Round_robin
  | Random_policy of int  (** Uniform choice among runnable processes. *)

type crash_policy =
  | No_crashes
  | Crash_prob of { prob : float; seed : int }
      (** Before each shared-memory step of a crashable section, crash
          instead with this probability (subject to the per-process cap). *)
  | Crash_script of (int * int) list
      (** [(s, p)]: process [p] crashes the first time it is about to take
          a step at global step index [>= s]. *)
  | System_crash_script of int list
      (** System-wide crash model: at each listed global step index,
          {e every} process outside the remainder section crashes
          simultaneously, and the lock's [system_epoch] counter (if any)
          is incremented — the Golab–Hendler model [11]. *)
  | System_crash_prob of { prob : float; seed : int; max : int }
      (** System-wide crashes with the given per-turn probability, at
          most [max] of them. *)

type config = {
  n : int;
  width : int;
  model : Rme_memory.Rmr.model;
  superpassages : int;  (** Super-passages each process must complete. *)
  policy : policy;
  crashes : crash_policy;
  allow_cs_crash : bool;
      (** Whether crash injection may also strike inside the critical
          section (exercises critical-section re-entry). *)
  max_crashes_per_process : int;
  record_trace : bool;
  cs : (pid:int -> attempt:int -> unit Prog.t) option;
      (** The critical-section body. [None] gives the paper's assumption
          (A2): a single RMR-incurring write to a scratch cell. Supplying
          a program models a real protected workload; after a crash
          inside the CS the whole body re-runs (critical-section
          re-entry), so bodies should be written idempotently, as real
          NVRAM workloads are. [attempt] is the 0-based super-passage
          index of the process — a stable request identity that re-runs
          of the same super-passage share (the role a client-supplied
          request ID plays in a real recoverable service). *)
}

val default_config : n:int -> width:int -> Rme_memory.Rmr.model -> config
(** One super-passage per process, round-robin, no crashes. *)

val default_step_budget : n:int -> int
(** The scheduler turns every {!run} may take before it is declared
    stuck ([timed_out]): a constant floor for tiny runs plus an [n^2]
    term (each of [n] processes may legitimately wait out [O(n)]
    critical sections under contention). A generous budget keeps the
    deadlock-freedom check meaningful; it is fixed, not configurable. *)

type proc_stats = {
  pid : int;
  passages : int;
  crashes : int;
  total_rmrs : int;  (** All RMRs including critical-section steps. *)
  passage_rmrs : int array;
      (** RMRs of each completed passage, critical-section steps
          excluded. *)
  max_passage_rmr : int;
  cs_entries : int;
  max_bypass : int;
      (** Fairness: the most critical-section entries by other processes
          between one of this process's super-passage requests and its
          own CS entry. FIFO locks keep this below [n]; unfair locks do
          not. *)
}

type result = {
  ok : bool;  (** Completed within budget with no violations. *)
  completed : bool;
  timed_out : bool;
      (** {!default_step_budget} ran out with runnable work remaining.
          Implies [not completed]; a deadlocked protocol surfaces here
          rather than hanging the harness. *)
  steps : int;
  violations : string list;
  procs : proc_stats array;
  max_passage_rmr : int;  (** Maximum over all passages of all processes. *)
  mean_passage_rmr : float;
  total_crashes : int;
  trace : Trace.t option;  (** Every event, when [record_trace] is set. *)
  memory : Rme_memory.Memory.t;
  model : Rme_memory.Rmr.model;
}

val run : config -> Lock_intf.factory -> result
(** Raises [Invalid_argument] if the lock does not support the configured
    word width for [n] processes, if crashes are requested of a
    non-recoverable lock, or if individual crashes ([Crash_prob],
    [Crash_script]) are requested of a lock built for the system-wide
    model (one whose instance has a [system_epoch]). *)
