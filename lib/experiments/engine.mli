(** The multicore experiment engine: a memo over a {!Rme_util.Pool}.

    Experiments decompose into independent {e trial cells} (one harness
    run) and {e adversary cells} (one lower-bound construction run).
    The engine computes a batch's missing cells across the pool and
    memoises every result by its cell key. Each cell derives its RNGs
    from the seeds in its key, so tables assembled by key lookup are
    bit-identical at any [jobs]; a cell shared by several experiments
    (E1/E6, E2/E7b/A3) is computed once per engine. *)

type t

val create : ?jobs:int -> ?progress:bool -> unit -> t
(** A fresh pool of [jobs] domains (default 1; [0] auto-detects) and
    empty memos. [progress] prints a live cells-done line on stderr
    during {!prefetch}. *)

val jobs : t -> int
val shutdown : t -> unit

(** {1 Trial cells} *)

type cell = {
  lock : Rme_sim.Lock_intf.factory;
  n : int;
  width : int;
  model : Rme_memory.Rmr.model;
  seed : int;  (** scheduling seed ([Harness.Random_policy]). *)
  superpassages : int;
  crashes : Rme_sim.Harness.crash_policy;
  allow_cs_crash : bool;
  max_crashes : int;
}

val cell :
  ?superpassages:int -> ?crashes:Rme_sim.Harness.crash_policy ->
  ?allow_cs_crash:bool -> ?max_crashes:int -> seed:int -> n:int -> width:int ->
  model:Rme_memory.Rmr.model -> Rme_sim.Lock_intf.factory -> cell
(** Defaults are the harness defaults: 1 super-passage, no crashes. *)

type cell_result = {
  ok : bool;
  timed_out : bool;
      (** the run exhausted {!Rme_sim.Harness.default_step_budget} with
          work remaining (a stuck lock); the numbers below cover only
          the steps taken. *)
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

type adv_cell = {
  a_lock : Rme_sim.Lock_intf.factory;
  a_n : int;
  a_width : int;
  a_model : Rme_memory.Rmr.model;
  a_k : int option;  (** contention threshold; [None] = default. *)
}

val adv_cell :
  ?k:int -> n:int -> width:int -> model:Rme_memory.Rmr.model ->
  Rme_sim.Lock_intf.factory -> adv_cell

type adv_result = { rounds : int; bound : float; survivors : int }

val prefetch_adv : t -> adv_cell list -> unit
val get_adv : t -> adv_cell -> adv_result

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map over the pool, without memoisation. *)

type counters = { computed : int; cached : int }

val counters : t -> counters
(** Cells computed, and requests served from the memo by {!prefetch},
    since creation. Deterministic for a given sequence of batches. *)
