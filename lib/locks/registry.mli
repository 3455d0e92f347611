(** The catalogue of lock algorithms, for the CLI, benches and tests. *)

val all : Rme_sim.Lock_intf.factory list
(** Every lock in the library, baselines first. *)

val recoverable : Rme_sim.Lock_intf.factory list
(** Locks tolerating {e individual} process crashes — the model of
    Theorem 1: the locks of {!all} with [recoverable = true] that are
    not in {!system_wide}, in {!all}'s order. *)

val system_wide : Rme_sim.Lock_intf.factory list
(** Locks for the {e system-wide} crash model (all processes crash
    simultaneously), where constant RMR complexity is achievable and the
    paper's lower bound does not apply. Only subject these to the
    harness's [System_crash_*] policies. *)

val find : string -> Rme_sim.Lock_intf.factory option
(** Look a lock up by its [name]. *)

val names : unit -> string list
