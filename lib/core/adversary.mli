(** The lower-bound adversary: the round-based schedule construction of
    Section 3 of the paper, executed against a real lock implementation.

    The adversary maintains one concrete execution — the {e maximal
    schedule} — together with the set of {e active} processes: processes
    still in their entry protocol that have never crashed, never entered
    the critical section, and have not been discovered by any other
    process. Each round it:

    + runs every active process up to its next RMR-incurring step (the
      setup phase; possible because non-RMR steps convey no information
      under invariants (I8)/(I9));
    + classifies the round by contention against the threshold [k]:
      {ul
      {- {b low contention}: keeps an independent set of the conflict
         graph (same object, object owned by an active process, object
         where an active process is visible) and lets each member take
         one RMR step;}
      {- {b high contention, read case}: poised reads cannot be observed,
         so all read-poised group members step;}
      {- {b high contention, hide case}: per group of [k] processes
         poised on one object, finds step sets [A] and [B ∪ {z}] with
         identical resulting values (the Process-Hiding argument,
         instantiated per operation type), schedules [B ∪ {z}], then
         crashes the [V]-processes and runs them to completion — [z]'s
         RMR is hidden behind the indistinguishable [A]-execution.}}
    + removes any process that would be discovered, by {e replaying} the
      entire schedule without it — re-checking, step by step, that every
      surviving process observes exactly the values it originally
      observed (the executable version of invariants (I3)/(I5)).

    The construction ends when fewer than two active processes remain;
    every survivor of round [i] has incurred at least [i] RMRs without
    entering the critical section or crashing — the quantity Theorem 1
    lower-bounds by [Ω(min(log_w n, log n/log log n))]. *)

type config = {
  n : int;
  width : int;
  model : Rme_memory.Rmr.model;
  k : int;  (** contention threshold; the paper's [w^d]. *)
}

val default_config : n:int -> width:int -> Rme_memory.Rmr.model -> config
(** [k = max 2 (w + 1)]. Every run takes at most 200 rounds, 10,000
    setup-phase steps per process per round and 100,000 steps per
    crash-and-complete run. *)

type round_kind = Low_contention | High_read | High_hide

val round_kind_name : round_kind -> string

type round_info = {
  index : int;  (** 1-based. *)
  kind : round_kind;
  active_before : int;
  active_after : int;
  newly_finished : int;  (** crash-completed this round. *)
  newly_removed : int;  (** dropped from the schedule this round. *)
  replays : int;  (** fixpoint iterations the round needed. *)
}

type round_meta = {
  boundary : int;
      (** Committed directive count at the end of the round — the prefix
          of the schedule that constitutes row [i] of [σ_round]. *)
  meta_active : Rme_util.Intset.t;
  meta_finished : Rme_util.Intset.t;
  meta_removed : Rme_util.Intset.t;
}

type committed_schedule = {
  ctx : Schedule.context;
  directives : (Schedule.directive * Schedule.record) array;
  metas : round_meta list;  (** oldest round first. *)
}
(** The maximal schedule the construction committed, replayable and
    filterable — the input to {!Schedule_table.check}. *)

type result = {
  rounds : round_info list;
  rounds_completed : int;
  survivors : Rme_util.Intset.t;
  survivor_min_rmrs : int;
      (** Minimum RMRs over surviving active processes — each survivor of
          round [i] has at least [i]. *)
  finished : int;  (** processes driven through complete super-passages. *)
  removed : int;
  escaped : int;  (** actives that completed entry uninstructed (none for
                      a correct construction at adequate [n]). *)
  replay_checked_steps : int;
      (** Step observations re-verified identical across replays. *)
  predicted_lower_bound : float;  (** Theorem 1's formula for (n, w). *)
  schedule : committed_schedule;
}

val run : config -> Rme_sim.Lock_intf.factory -> result
(** Raises [Invalid_argument] if [k < 2] or the lock is not
    recoverable. *)
