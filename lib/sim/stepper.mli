(** The execution state of [n] processes running one lock: the single
    implementation of the paper's §2 semantics, shared by {!Harness} and
    the adversary's [Machine], which choose what steps or crashes
    next.

    A step is one atomic operation on shared memory, accounted by
    [Rmr.record]. A crash discards the process's continuation (all its
    local state), drops its CC cache and starts the lock's [recover],
    whose answer ({!Lock_intf.resume}) decides where the process
    resumes. The system's epoch increment on a system-wide crash is a
    step too ({!epoch_step}).

    The stepper is also the only source of {!Trace} events: every step
    and crash step is recorded into the optional trace fixed at
    {!create}.

    With no trace, the stepper's own bookkeeping allocates nothing, and
    neither do [Memory], [Rmr] and [Cache] when they apply and account a
    step. What a step does allocate is the lock program's continuation:
    resuming it builds the process's next program. Every lock is written
    with {!Prog.K}, so that is one [Step], its operation (unless a read)
    and the closure of the rest of the body. Measured with
    [Gc.minor_words] in the default (release) build, a harness step
    allocates about 17 words on Katzan–Morrison at n = 256, w = 4 (CC)
    and 7–25 on the registry locks at n = 16, w = 8; the [-opaque] dev
    build calls the [K] primitives instead of inlining them and
    allocates 0.1–1.3 words per step more. [test/test_alloc.ml] holds a
    ceiling for every registry lock, under both profiles. A crash
    allocates one closure more: the continuation it passes [recover].

    The only rewind is {!reset}, back to the just-created state: the
    adversary and its schedule-table check reach every other state by
    replaying a schedule prefix from there, as the paper's adversary
    defines them. *)

type section = Trace.section = Remainder | Entry | Cs | Exit | Recovery
type step = Trace.step

type boundary =
  | Begin_superpassage  (** Remainder to [entry]. *)
  | Enter_cs  (** From [entry], or from [recover] answering [In_cs]. *)
  | Leave_cs  (** The critical section returned; [exit] starts. *)
  | End_superpassage  (** [exit] returned, or [recover] said [Passage_done]. *)

(** One process, read-only outside this module. The harness scheduler
    reads its fields directly on every turn, where a call would cost
    more than the read: [section] and [left] to tell whether the
    process is runnable, and [prog] to match its poised step once, to
    test whether it is poised (and so needs no {!settle}), and to see
    whether the step left it poised on another read of the same
    location.

    There is one program for every section. A crash sets it to the
    lock's [recover], whose continuation stores the decision in
    [resume] and returns; {!settle} then acts on [resume]. *)
type proc = private {
  mutable section : section;
  mutable prog : unit Prog.t;
      (** The program of [section]; [Return ()] in the remainder. It is
          a [Step] exactly when the process is poised. *)
  mutable resume : Lock_intf.resume;
      (** [recover]'s decision, read once its program has returned. *)
  mutable left : int;  (** Super-passages to complete, the current one included. *)
  mutable crashes : int;
  mutable cs_entries : int;
}

type t

val create :
  ?trace:Trace.t ->
  n:int ->
  width:int ->
  model:Rme_memory.Rmr.model ->
  superpassages:int ->
  cs:(pid:int -> attempt:int -> unit Prog.t) option ->
  Lock_intf.factory ->
  t
(** Builds the memory, then the lock, then the ["cs-cell"], in that
    order, so Harness and Machine number locations alike. Processes
    start in the remainder. [cs] is the critical-section body, given the
    0-based super-passage index; [None] is assumption (A2): one write to
    the cs-cell. *)

val memory : t -> Rme_memory.Memory.t
val rmr : t -> Rme_memory.Rmr.t
val n : t -> int

val system_epoch : t -> Rme_memory.Memory.loc option
(** The lock's epoch counter ({!Lock_intf.instance}'s [system_epoch]):
    present only for a lock built for the system-wide crash model. *)

val procs : t -> proc array
(** Indexed by pid; the same records for the life of [t]. *)

val settle : t -> pid:int -> on_boundary:(int -> boundary -> unit) -> unit
(** Resolve returned programs until the process is poised on a step or
    rests in the remainder, calling [on_boundary pid b] at each boundary
    crossed. A super-passage that ends rests in the remainder; the next
    [settle] begins another if any is left. *)

val poised_loc : t -> pid:int -> int
(** The location of the poised operation, or [-1] if the process is not
    poised. Allocates nothing. *)

val poised_op : t -> pid:int -> Rme_memory.Op.t
(** The poised operation. Raises [Invalid_argument] if not poised. *)

val step : t -> pid:int -> bool
(** Perform the poised operation; return whether it incurred an RMR.
    Does not settle. Raises [Invalid_argument] if not poised. *)

val step_record : t -> pid:int -> step
(** [step], returning the step's record. *)

val crash : t -> pid:int -> unit
(** Crash step. Does not settle first: a process whose program has
    returned crashes before crossing the boundary. Raises
    [Invalid_argument] in the remainder. *)

val epoch_step : t -> unit
(** The system's increment of the lock's [system_epoch] counter, if it
    has one, at a system-wide crash: a real [Faa 1] on shared memory
    that invalidates CC cache copies but is charged to no process's RMR
    count. It is emitted as a step of process 0 in [Recovery], flagged
    as an RMR. *)

val reset : t -> unit
(** Back to the just-created state, without re-running the lock
    constructor. The attached trace, if any, is emptied. *)
