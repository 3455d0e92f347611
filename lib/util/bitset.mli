(** Mutable fixed-width bitsets over small non-negative ints.

    The hot-path complement to {!Intset}: where [Intset] is a persistent
    functional set used for schedule bookkeeping, [Bitset] is a flat
    [int array] of bit words for where allocation per operation is
    unacceptable. No library module uses it yet (the RMR cache tracks
    page presence with per-pid stamp tables); it is kept for the
    flat-hypergraph representation of the Process-Hiding solver that
    ROADMAP.md plans. Membership, insertion and removal are O(1);
    iteration is ascending, matching [Intset]'s ordering so the two
    agree wherever both appear. *)

type t

val create : capacity:int -> t
(** [create ~capacity] is the empty set able to hold members in
    [0 .. capacity - 1]. [add] grows the backing store on demand, so
    [capacity] is a sizing hint, not a hard bound. *)

val capacity : t -> int
(** Current backing capacity (always a multiple of the word width). *)

val mem : t -> int -> bool
(** O(1). Members beyond the current capacity are absent, not an error. *)

val add : t -> int -> unit
(** O(1) amortised; grows the backing store if [i >= capacity]. *)

val remove : t -> int -> unit
(** O(1); removing an absent member is a no-op. *)

val clear : t -> unit
(** Empty the set in place, keeping the backing store. *)

val is_empty : t -> bool
val cardinal : t -> int

val iter : (int -> unit) -> t -> unit
(** Visits members in ascending order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds members in ascending order. *)

val equal : t -> t -> bool
(** Extensional equality; capacities need not match. *)

val copy : t -> t

val copy_into : src:t -> dst:t -> unit
(** Make [dst] extensionally equal to [src], reusing [dst]'s backing
    store when it is large enough. *)

val to_intset : t -> Intset.t
val pp : Format.formatter -> t -> unit
