(** The explicit schedule table [σ_round[i][0..2^n - 1]] of Section 3.3,
    materialised and checked for small [n].

    The adversary's construction is a proof-by-invariants over a row of
    [2^{n_i}] schedules per round: the maximal schedule plus one
    sub-schedule for every subset of its active processes. The adversary
    itself only ever executes the maximal schedule; this module
    {e materialises} the whole row — replaying the committed directives
    filtered to every admissible column set [S] with
    [F(A[S_max]) ⊆ S ⊆ S_max] — and checks the paper's invariants on
    each:

    - (I1)/(I2) hold by construction of the filtering and are asserted;
    - (I3) process states agree with the maximal schedule (checked as:
      identical recorded observations during replay, identical phase,
      poised operation, crash count and — via (I9) — RMR count);
    - (I4) the finished set is identical in every column;
    - (I5) every object's value across columns takes at most two values,
      determined by whether the column contains the object's last
      accessor in the maximal schedule;
    - (I6) every process crashes at most once and unfinished processes
      never crash;
    - (I7) unfinished processes never enter the critical section;
    - (I8) (DSM) objects owned by an active process are accessed only by
      their owner;
    - (I9) (CC) each kept process's set of valid cache copies matches the
      maximal schedule's;
    - (I10) every active process has incurred at least [i] RMRs by the
      end of row [i].

    Columns are enumerated exhaustively, so this is exponential in the
    number of active processes, and rounds with more than 10 actives are
    skipped. *)

type violation = {
  round : int;
  invariant : string;  (** e.g. ["I5"]. *)
  column : Rme_util.Intset.t option;  (** offending column, if any. *)
  detail : string;
}

type report = {
  rounds_checked : int;
  columns_checked : int;
  assertions : int;  (** recorded-observation checks that passed. *)
  violations : violation list;
}

val ok : report -> bool

val check : Adversary.committed_schedule -> report
(** Verify every round whose active set has at most 10 processes (up to
    [2^10] replays per round). *)

val pp_report : Format.formatter -> report -> unit
