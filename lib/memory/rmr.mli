(** Remote-memory-reference accounting for both cost models.

    A single accountant is attached to a run; every operation flows through
    [record], which decides — per the selected model — whether the step is
    an RMR, maintains the CC cache state when relevant, and accumulates
    per-process totals. Passage-level bookkeeping (the paper measures the
    maximum RMRs {e per passage}) lives in the scheduler, which resets the
    per-passage counters at passage boundaries.

    The only rewind is {!reset}, back to a fresh accountant; replaying
    the same steps from there rebuilds any later state. *)

type model = Cc | Dsm

val model_of_string : string -> model option
val model_name : model -> string
val pp_model : Format.formatter -> model -> unit
val all_models : model list

type t

val create : model -> n:int -> t

val model : t -> model

val cache : t -> Cache.t option
(** The cache state, present only under the CC model. *)

val record : t -> pid:int -> loc:int -> owner:int option -> is_read:bool -> bool
(** Account one operation; returns whether it incurred an RMR. *)

val would_incur : t -> pid:int -> loc:int -> owner:int option -> is_read:bool -> bool
(** Like [record] but without mutating anything: would this operation,
    performed next, incur an RMR? Used by the scheduler's setup phase to
    decide when a process is "poised to incur an RMR". *)

val on_crash : t -> pid:int -> unit
(** Crash semantics: the process's cache is dropped (CC); counters are
    kept (RMRs incurred before the crash still count toward the passage
    in which they occurred). *)

val total : t -> pid:int -> int
(** RMRs incurred by [pid] since creation. *)

val passage : t -> pid:int -> int
(** RMRs incurred by [pid] since the last [start_passage]. *)

val start_passage : t -> pid:int -> unit
(** Reset the per-passage counter of [pid]. *)

val reset : t -> unit
(** Zero all counters and empty the cache state in place — back to the
    state of a fresh [create], without reallocating. *)
