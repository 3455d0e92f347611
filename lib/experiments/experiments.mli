(** The experiment harness: one function per reproduced table/figure.

    The paper is a theory paper; each "experiment" regenerates the
    quantitative shape of one of its claims (see DESIGN.md §4 and
    EXPERIMENTS.md for the paper-vs-measured record):

    - E1: RMR complexity landscape of the lock algorithms (§1.2's
      related-work comparison, measured).
    - E2: Theorem 1 tightness — Katzan–Morrison passage RMRs against
      [ceil(log_w n)] across word sizes.
    - E3: Theorem 1 lower bound — rounds the adversary construction
      forces, against the [Ω(min(log_w n, log n/log log n))] formula.
    - E4: Process-Hiding Lemma — solved instances with the paper's
      constants, and the [|I_D| >= m/2] margin under random discovery
      sets.
    - E5: crash-recovery cost — per-passage RMRs as the crash rate grows.
    - E6: CC vs DSM — the bounds hold in both models.
    - E7: the [min(log_w n, log n/log log n)] crossover at [w ~ log n].
    - E8: the system-wide crash separation (epoch-MCS).
    - A1: ablation — KM tree arity below the word size.
    - A2: ablation — the adversary's contention threshold.
    - A3: ablation — solo vs contended passage cost of the KM core.
    - F1: fairness — worst bypass count per lock.

    Every function is deterministic given [seed] and returns printable
    tables.

    Each experiment describes its tables once, as rows whose slots are
    text or trial/adversary cells, and renders them over the [engine]
    it is given: every cell is computed across the engine's domain pool
    and memoised, then the rows are filled by key lookup in table order
    — bit-identical output at any [-j], with cells shared between
    experiments run on one engine computed only once. *)

type outcome = Rme_util.Table.t list

val e4_families : (string * (y:int -> Rme_core.Partite.edge -> int)) list
(** The operation families experiment E4 exercises the Process-Hiding
    Lemma with, as [f_y] functions on step tuples. *)

type hiding_trial = {
  solution : Rme_core.Hiding.t;
  verified : (unit, string) result;  (** {!Rme_core.Hiding.verify}. *)
  min_hidden : int;  (** Least [|I_D|] over the discovery sets. *)
  query_error : string option;  (** The first query that failed to verify. *)
}

val hiding_trial :
  Rme_core.Hiding.params ->
  m:int ->
  f:(y:int -> Rme_core.Partite.edge -> int) ->
  seed:int ->
  trials:int ->
  hiding_trial
(** Solve a Process-Hiding instance of [m] groups of the minimum size,
    then query it with [trials] random discovery sets within the
    [delta] budget, drawn from a generator seeded with [seed]: the
    routine behind E4 and [rme lemma]. *)

val e1_lock_landscape :
  engine:Engine.t -> ?seed:int -> ?width:int -> ?ns:int list -> unit -> outcome

val e2_word_size_tradeoff :
  engine:Engine.t -> ?seed:int -> ?ns:int list -> ?ws:int list -> unit -> outcome

val e3_adversary_bound :
  engine:Engine.t -> ?ns:int list -> ?ws:int list -> unit -> outcome

val e4_hiding_lemma :
  engine:Engine.t -> ?seed:int -> ?m:int -> ?trials:int -> unit -> outcome

val e5_crash_cost :
  engine:Engine.t -> ?seed:int -> ?n:int -> ?probs:float list -> unit -> outcome

val e6_model_comparison : engine:Engine.t -> ?seed:int -> ?n:int -> unit -> outcome
(** Deliberately shaped (seed 42, n=32, w=16, 2 super-passages) to reuse
    E1's n=32 cells from the shared memo cache. *)

val e7_crossover : engine:Engine.t -> ?n:int -> ?ws:int list -> unit -> outcome
(** The measured E7b companion (KM, CC, seed 7) runs at [min n 4096]:
    at the default [n] its w sweep straddles w = log2 4096 = 12, and at
    [n = 1024] it reuses E2's cells for the word sizes both sweep. *)

val e8_system_wide : engine:Engine.t -> ?seed:int -> ?ns:int list -> unit -> outcome
(** The system-wide crash separation: epoch-MCS stays O(1) per passage
    under simultaneous crashes (paper conclusion; Golab–Hendler [11]). *)

val a1_arity_ablation :
  engine:Engine.t -> ?seed:int -> ?n:int -> ?arities:int list -> unit -> outcome
(** Ablation: forcing the KM tree arity below the word size. *)

val a2_k_ablation :
  engine:Engine.t -> ?n:int -> ?w:int -> ?ks:int list -> unit -> outcome
(** Ablation: the adversary's contention threshold (the paper's w^d).
    The default-threshold column shares E3's adversary cells. *)

val a3_adaptivity : engine:Engine.t -> ?n:int -> ?ws:int list -> unit -> outcome
(** Ablation: solo vs contended passage cost of the KM core (the full
    algorithm of [19] is additionally contention-adaptive; ours is
    not — a documented simplification). The contended cells share E2's
    n=256 sweep. *)

val f1_fairness :
  engine:Engine.t -> ?seed:int -> ?n:int -> ?sp:int -> unit -> outcome
(** Fairness: worst bypass count per lock (queue locks are FIFO; TAS and
    tree locks are not). *)

type report = { wall_s : float; computed : int; cached : int }
(** One printed run: its wall clock, and the trial and adversary cells
    its engine computed and served from its memo meanwhile. *)

type entry = { id : string; descr : string; run : Engine.t -> report }
(** [run engine] runs the experiment on [engine], prints its tables and
    the line
    [(<id> completed in <s>s; j=<jobs>; cells: <c> computed, <m> cached)]
    to stdout, and returns the report. *)

val all : entry list
(** Every experiment, in order. *)

val select : string list -> (entry list, string) result
(** [select ids] checks every id against {!all} before anything runs,
    so an unknown id fails fast. The error names the unknown ids and
    lists the available ones. *)
