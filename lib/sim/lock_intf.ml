(** The recoverable-lock interface every algorithm in [rme_locks]
    implements, and what the harness drives.

    A lock exposes three protocols as {!Prog} programs. In the crash-free
    case the harness runs [entry], then the critical section, then [exit].
    When a process crashes — its continuation is discarded, modelling the
    reset of all local variables — the harness starts [recover], which
    ends by passing its continuation the decision of where the process
    should resume:

    - [Resume_entry]: the process does not hold the lock; its entry
      protocol is restartable and should be run (again) from the top.
      Recoverable entry protocols are written to be {e idempotent}: they
      re-derive progress from per-process persistent state in shared
      memory, so re-running them resumes rather than redoes work.
    - [In_cs]: the process holds the lock (it crashed inside the critical
      section, or after the entry protocol's linearization point); it
      re-enters the critical section (the critical-section re-entry
      property of Golab and Ramaraju).
    - [Resume_exit]: the critical section is complete but the lock is not
      fully released; run [exit] (also idempotent) to finish.
    - [Passage_done]: the super-passage had already completed before the
      crash took effect; return to the remainder section. *)

type resume = Resume_entry | In_cs | Resume_exit | Passage_done

let resume_name = function
  | Resume_entry -> "resume-entry"
  | In_cs -> "in-cs"
  | Resume_exit -> "resume-exit"
  | Passage_done -> "passage-done"

(** A created lock: per-process protocol programs. The programs for a
    given [pid] may be requested many times (one per passage attempt);
    each request must return a fresh program whose local state starts
    empty, with all persistence living in shared memory.

    [recover ~pid k] is continuation-passing like every sub-protocol
    ({!Prog.K}): it takes its steps, then ends by calling [k] with its
    decision ([k Resume_entry], [k In_cs], [k Resume_exit] or
    [k Passage_done]) and nothing else. Its answer type is
    polymorphic, so a [recover] that returns without handing [k] a
    decision does not type-check.

    [system_epoch], when present, is a location the harness increments
    once per {e system-wide} crash (all processes crash simultaneously).
    This models the non-standard system support Golab and Hendler [11]
    assume — "an epoch counter is incremented with each system crash" —
    under which constant-RMR RME is possible, in contrast to the
    individual-crash model Theorem 1 lower-bounds. *)
type instance = {
  entry : pid:int -> unit Prog.t;
  exit : pid:int -> unit Prog.t;
  recover : 'a. pid:int -> (resume -> 'a Prog.t) -> 'a Prog.t;
  system_epoch : Rme_memory.Memory.loc option;
}

(** A lock algorithm: how to instantiate it over a memory for [n]
    processes. *)
type factory = {
  name : string;
  recoverable : bool;
      (** Whether [recover] is meaningful; the harness refuses to inject
          crashes into non-recoverable locks. *)
  min_width : n:int -> int;
      (** Smallest word width (bits) the algorithm functions with for [n]
          processes; e.g. a lock that CASes process IDs into a single word
          needs [bits_needed (n+1)]. *)
  make : Rme_memory.Memory.t -> n:int -> instance;
}

let supports factory ~n ~width = width >= factory.min_width ~n
