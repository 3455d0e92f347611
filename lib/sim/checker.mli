(** Offline trace validation — an independent re-implementation of the
    model's rules, run against recorded traces.

    The harness accounts RMRs, enforces word width and checks mutual
    exclusion {e while} executing; this module re-derives all of it from
    the event stream alone, so a bug in the live bookkeeping and a bug in
    the checker would have to coincide to go unnoticed (differential
    testing). Checks performed:

    - {b value-chain continuity}: on every location, each step's observed
      pre-value equals the previous step's post-value (atomicity of the
      simulated memory), and every stored value fits the word width;
    - {b RMR recomputation}: each step's RMR flag matches a fresh
      evaluation of the CC rule (read-caching, non-read invalidation,
      crash cache-drop) or the DSM rule (segment ownership);
    - {b operation semantics}: each step's post-value equals
      [Op.next_value] of its pre-value;
    - {b mutual exclusion}: critical-section step spans of distinct
      processes never interleave, where a span runs from a process's
      first CS step to its next non-CS event, and a crash inside the CS
      leaves the process the {e holder} until it re-enters and completes
      (critical-section re-entry);
    - {b re-entry}: after a crash in the CS, the next process to take a
      CS step is the crashed holder itself. *)

type report = {
  events : int;
  steps_checked : int;
  errors : string list;
  rmrs : int array;
      (** RMRs per pid as the checker re-derives them, whatever the
          trace's flags say. *)
}

val ok : report -> bool

val check :
  n:int ->
  width:int ->
  model:Rme_memory.Rmr.model ->
  owner:(Rme_memory.Memory.loc -> int option) ->
  Trace.t ->
  report

val check_result : Harness.result -> report option
(** Convenience: validate a harness result that recorded a trace (its
    memory supplies widths and ownership). [None] when no trace was
    recorded. *)
