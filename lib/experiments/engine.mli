(** The multicore experiment engine: a memo over {!Rme_util.Pool}'s
    fork-join maps.

    Experiments decompose into independent {e trial cells} (one harness
    run) and {e adversary cells} (one lower-bound construction run). A
    cell is a lock and its driver's own config ({!Rme_sim.Harness.config}
    or {!Rme_core.Adversary.config}); the memo key is the lock's name and
    that config. The engine computes a batch's missing cells in one
    parallel map over [jobs] domains and memoises every result by its
    key. Each cell derives its RNGs from the seeds in its config, so
    tables assembled by key lookup are bit-identical at any [jobs]; a
    cell shared by several experiments (E1/E6, E2/A3) is computed once
    per engine. *)

type t

val create : ?jobs:int -> unit -> t
(** Empty memos, whose batches run over [jobs] domains (default 1). A
    [jobs] of 0 or less is [Domain.recommended_domain_count ()]. No
    domain is spawned here: each parallel batch spawns and joins its
    own. *)

val jobs : t -> int
(** The resolved domain count, at least 1. *)

val shutdown : t -> unit
(** A no-op: an engine holds no domain between batches. Kept because
    perfbench's driver calls it. *)

(** {1 Trial cells} *)

type cell

val cell :
  ?superpassages:int -> ?crashes:Rme_sim.Harness.crash_policy ->
  ?allow_cs_crash:bool -> ?max_crashes:int -> seed:int -> n:int -> width:int ->
  model:Rme_memory.Rmr.model -> Rme_sim.Lock_intf.factory -> cell
(** The lock under {!Rme_sim.Harness.default_config} with a
    [Random_policy seed] schedule, [superpassages] (default 1), [crashes]
    (default none), [allow_cs_crash] (default false) and at most
    [max_crashes] crashes per process (default 1). *)

type cell_result = {
  ok : bool;
  timed_out : bool;
      (** the run exhausted {!Rme_sim.Harness.default_step_budget}, the
          harness's fixed budget for [n] processes, with work remaining
          (a stuck lock); the numbers below cover only the steps taken. *)
  max_passage_rmr : int;
  mean_passage_rmr : float;
  total_crashes : int;
  total_rmrs : int;  (** summed over processes. *)
  cs_entries : int;  (** summed over processes. *)
  max_bypass : int;  (** worst over processes. *)
}

val prefetch : t -> cell list -> unit
(** Compute the batch's cells missing from the memo, in parallel, each
    duplicate key once. *)

val get : t -> cell -> cell_result
(** Memo lookup; computes inline on a miss. Never touches [cached]. *)

(** {1 Adversary cells} *)

type adv_cell

val adv_cell :
  ?k:int -> n:int -> width:int -> model:Rme_memory.Rmr.model ->
  Rme_sim.Lock_intf.factory -> adv_cell
(** The lock under {!Rme_core.Adversary.default_config}, with contention
    threshold [k] when given. [k] is resolved here, so an explicit [k]
    equal to the default names the same memo entry as no [k]. *)

type adv_result = { rounds : int; bound : float; survivors : int }

val prefetch_adv : t -> adv_cell list -> unit
val get_adv : t -> adv_cell -> adv_result

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map over [jobs] domains, without
    memoisation. A task may itself call {!prefetch}, {!get} or {!map}. *)

type counters = { computed : int; cached : int }

val counters : t -> counters
(** Cells computed, and requests served from the memo by {!prefetch},
    since creation. Deterministic for a given sequence of batches. *)
