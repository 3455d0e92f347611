(** The lower-bound adversary's view of {!Rme_sim.Stepper}: single-step
    control over one-shot mutual exclusion (assumptions (A2)/(A3): one
    super-passage per process, whose critical section is one
    RMR-incurring step). The adversary peeks at poised operations, runs
    chosen steps and crash steps, and runs processes to completion —
    the moves of the proof's schedule construction. Every process starts
    poised at the top of its entry section. *)

type phase = In_entry | In_cs | In_exit | In_recovery | Completed

type step_info = {
  loc : Rme_memory.Memory.loc;
  op : Rme_memory.Op.t;
  old_value : int;
  new_value : int;
  rmr : bool;
}

type t

val create :
  n:int ->
  width:int ->
  model:Rme_memory.Rmr.model ->
  Rme_sim.Lock_intf.factory ->
  t

val memory : t -> Rme_memory.Memory.t
val rmr : t -> Rme_memory.Rmr.t
val n : t -> int

val phase : t -> pid:int -> phase

val completed : t -> pid:int -> bool

val peek : t -> pid:int -> (Rme_memory.Memory.loc * Rme_memory.Op.t) option
(** The poised shared-memory operation of a process, resolving pending
    phase transitions first. [None] once completed. *)

val poised_rmr : t -> pid:int -> bool
(** Whether the poised operation would incur an RMR right now. *)

val step : t -> pid:int -> step_info
(** Execute the poised operation. Raises [Invalid_argument] on a
    completed process. *)

val crash : t -> pid:int -> unit
(** Crash step ({!Rme_sim.Stepper.crash}). Pending phase transitions
    are not resolved first. *)

val run_while_local : t -> pid:int -> cap:int -> int
(** Execute steps of [pid] as long as they would {e not} incur an RMR
    (the setup phase of a round), at most [cap] of them; returns how many
    were taken. Stops early when the process completes or becomes poised
    on an RMR-incurring step. *)

val run_to_completion : t -> pid:int -> cap:int -> on_step:(step_info -> unit) -> bool
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

type snapshot
(** Complete machine state at a point in time. *)

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Restore a snapshot taken from this machine (or one of identical
    construction). Raises [Invalid_argument] on a mismatched one. *)
