(** Cache state for the cache-coherent (CC) model.

    Exactly the paper's definition: a read stores a copy of the location in
    the reading process's cache; any non-read operation on the location, by
    any process, invalidates every copy of it. An operation incurs an RMR
    iff it is a non-read, or a read of a location the process holds no
    valid copy of.

    Crashes do {e not} preserve caches: a crash step drops the crashed
    process's entire cache (its local state, of which the cache is part,
    is reset).

    Representation: generation/epoch stamping, so the three hot
    operations are O(1) and allocation-free in the steady state. Each
    location carries a generation counter bumped by every non-read
    (invalidating all copies at once); each pid carries an epoch counter
    bumped by every crash (dropping its whole cache at once). A copy is
    valid iff its recorded [(epoch, generation)] stamp matches the
    current counters. Stamps live in one open-addressing table per pid,
    keyed by location, created on the pid's first read and doubled at
    half load, so a pid's footprint follows the copies it has held, not
    the range of locations it touched.

    The only rewind is {!clear}, back to all caches empty; there is no
    copy of a cache state. *)

type t

val create : n:int -> t
(** Cache state for processes [0 .. n-1], all caches empty. *)

val n : t -> int

val has_copy : t -> pid:int -> loc:int -> bool

val access : t -> pid:int -> loc:int -> is_read:bool -> bool
(** Record one operation and return whether it incurs an RMR under the CC
    rule. Updates validity: a read installs a copy for [pid]; a non-read
    invalidates all copies of [loc]. *)

val drop_process : t -> pid:int -> unit
(** Invalidate every copy held by [pid] (crash semantics). O(1). *)

val valid_set : t -> pid:int -> Rme_util.Intset.t
(** The set of locations [pid] currently holds valid copies of — the
    [R_p] of invariant (I9). *)

val clear : t -> unit
(** Reset to the all-empty state in place, keeping every table's
    capacity. *)
