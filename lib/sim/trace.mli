(** Execution events and traces: the one description of a step, a crash
    step and a section that the simulator, the adversary's machine and
    the offline {!Checker} share.

    {!Stepper} records every event of a run into an optional [t]:
    shared-memory steps (with their pre/post values and whether they
    incurred an RMR) and crash steps. Traces feed the offline checker
    and the schedule-table checks, and make failing tests debuggable. *)

(** Where a process is: [Remainder] between super-passages (and once all
    are done), otherwise in one of the lock's sections or the critical
    section. Events never carry [Remainder]. *)
type section = Remainder | Entry | Cs | Exit | Recovery

val section_name : section -> string

(** One shared-memory step. *)
type step = {
  pid : int;
  loc : Rme_memory.Memory.loc;
  op : Rme_memory.Op.t;
  old_value : int;
  new_value : int;
  rmr : bool;
  section : section;
}

type event = Step of step | Crash of { pid : int; section : section }

type t

val create : unit -> t
val record : t -> event -> unit
val clear : t -> unit
val length : t -> int
val events : t -> event list
val iter : (event -> unit) -> t -> unit
val pid_of_event : event -> int
val filter_pids : t -> keep:(int -> bool) -> t
(** A new trace containing only events of kept processes — the "removal
    of processes from a schedule" operation of the lower-bound proof. *)

val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit
