(** A small fixed-size domain pool with shared-counter work distribution.

    [map_array] fans independent tasks out over OCaml 5 domains and
    returns results in index order, so the output is identical to a
    sequential run no matter how the domains interleave. The calling
    domain participates in the work (the pool only ever adds [jobs - 1]
    helper domains), which also guarantees progress even when every
    helper is busy serving another map.

    Tasks must be independent: they may not assume any ordering among
    themselves, and any shared state they touch must be domain-safe.
    The experiment engine satisfies this by giving every trial cell its
    own memory, RNG and RMR accounting. *)

type t

val create : jobs:int -> t
(** [create ~jobs] returns a pool of total parallelism [jobs] (the
    caller plus [jobs - 1] helper domains). [jobs <= 0] selects
    [Domain.recommended_domain_count ()]. [jobs = 1] allocates no
    queue, mutex or condition and makes every [map_array] run
    sequentially in the caller. A larger pool spawns its helpers at its
    first [map_array] of more than one task, so creating a pool spawns
    nothing. Helpers are joined by {!shutdown}; a pool whose helpers
    are still running at program exit is shut down by one process-wide
    [at_exit], and a pool shut down before then is no longer held by
    it. *)

val jobs : t -> int
(** Total parallelism, including the calling domain. *)

val map_array : t -> int -> (int -> 'a) -> 'a array
(** [map_array t n f] computes [[| f 0; ...; f (n-1) |]]. Contiguous
    index chunks are handed out through a shared atomic counter, so
    load balances dynamically; results land at their own index, keeping
    the output order canonical regardless of chunking or interleaving.

    The chunk size is picked from the task count: about four chunks per
    domain, capped at 64 and floored at 1 — so batches of microsecond
    tasks (trial cells at n <= 8) stop paying one atomic fetch each,
    while small batches of coarse tasks degrade to chunk 1 and keep
    full dynamic balance. If any [f i] raises, one of the exceptions
    is re-raised in the caller after all started tasks finish. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list t f xs] is {!map_array} over a list, preserving order. *)

val shutdown : t -> unit
(** Drain outstanding work, stop and join the helper domains.
    Idempotent; the pool must not be used afterwards. *)
