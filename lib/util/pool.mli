(** Fork-join parallel maps over OCaml 5 domains.

    Each parallel [map_array] spawns its own helper domains, shares the
    tasks with them through an atomic counter, and joins every helper
    before it returns: no domain outlives the map that spawned it, so
    there is nothing to create or shut down. The calling domain works
    too, and results land at their own index, so the output is
    identical to a sequential run no matter how the domains interleave.

    Tasks must be independent: they may not assume any ordering among
    themselves, and any shared state they touch must be domain-safe.
    The experiment engine satisfies this by giving every trial cell its
    own memory, RNG and RMR accounting. A task may itself call
    [map_array]; the inner map forks and joins its own helpers, so each
    level of nesting adds up to [jobs - 1] live domains (OCaml 5.1 allows
    128 at once). *)

val map_array : jobs:int -> int -> (int -> 'a) -> 'a array
(** [map_array ~jobs n f] computes [[| f 0; ...; f (n-1) |]] over
    [jobs] domains in total: the caller plus [min (jobs - 1) (n - 1)]
    helpers spawned for this map. With [jobs <= 1] or [n <= 1] it is
    [Array.init n f] in the caller, spawning nothing.

    Contiguous index chunks are handed out through a shared atomic
    counter, so load balances dynamically. The chunk size is picked
    from the task count: about four chunks per domain, capped at 64 and
    floored at 1 — so batches of microsecond tasks (trial cells at
    n <= 8) stop paying one atomic fetch each, while small batches of
    coarse tasks degrade to chunk 1 and keep full dynamic balance.

    If any [f i] raises, every other task still runs, and the first
    exception recorded is re-raised in the caller once all helpers have
    been joined. If spawning a helper fails, the helpers already running
    finish their current chunk and are joined before that exception is
    re-raised. *)

val map_list : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list ~jobs f xs] is {!map_array} over a list, preserving order. *)
