(** The lower-bound adversary's view of {!Rme_sim.Stepper}: single-step
    control over one-shot mutual exclusion (assumptions (A2)/(A3): one
    super-passage per process, whose critical section is one
    RMR-incurring step). The adversary peeks at poised operations, runs
    chosen steps and crash steps, and runs processes to completion —
    the moves of the proof's schedule construction. Every process starts
    poised at the top of its entry section.

    A machine is a stepper: its sections and step records are
    {!Rme_sim.Trace}'s, and a trace attached at {!create} receives its
    events exactly as a harness run's does.

    The only rewind is {!reset}: a state is reached again by replaying
    the schedule prefix that led to it. *)

type t

val create :
  ?trace:Rme_sim.Trace.t ->
  n:int ->
  width:int ->
  model:Rme_memory.Rmr.model ->
  Rme_sim.Lock_intf.factory ->
  t
(** [trace], if given, records every step and crash step
    ({!Rme_sim.Stepper.create}). *)

val memory : t -> Rme_memory.Memory.t
val rmr : t -> Rme_memory.Rmr.t
val n : t -> int

val phase : t -> pid:int -> Rme_sim.Trace.section
(** The section the process is in, resolving pending transitions
    first; [Remainder] once it has completed. *)

val completed : t -> pid:int -> bool

val peek : t -> pid:int -> (Rme_memory.Memory.loc * Rme_memory.Op.t) option
(** The poised shared-memory operation of a process, resolving pending
    phase transitions first. [None] once completed. *)

val poised_rmr : t -> pid:int -> bool
(** Whether the poised operation would incur an RMR right now. *)

val step : t -> pid:int -> Rme_sim.Trace.step
(** Execute the poised operation. Raises [Invalid_argument] on a
    completed process. *)

val crash : t -> pid:int -> unit
(** Crash step ({!Rme_sim.Stepper.crash}). Pending phase transitions
    are not resolved first. *)

val run_to_completion :
  t -> pid:int -> cap:int -> on_step:(Rme_sim.Trace.step -> unit) -> bool
(** Run [pid] until its super-passage completes (entry, one CS step,
    exit), calling [on_step] on every shared-memory step. Returns [false]
    if the cap was exhausted first (the process is blocked on someone). *)

val crashes : t -> pid:int -> int

val cs_entries : t -> pid:int -> int
(** How many times the process has entered the critical section
    (invariant (I7) requires 0 for every active process). *)

val total_rmrs : t -> pid:int -> int

val reset : t -> unit
(** Return to the just-created state in place, without re-running the
    lock constructor: replay needs a fresh machine per attempt, and
    construction would otherwise dominate. *)
