(** Deterministic pseudo-random number generation (SplitMix64).

    Every randomised component of the simulator (schedulers, crash
    injection, workload generators, property tests that need auxiliary
    randomness) draws from this generator so that runs are reproducible
    bit-for-bit from a seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator. Equal seeds give equal streams. *)

val copy : t -> t
(** Independent copy of the current state. *)

val next : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g bound] is uniform in [0, bound). Raises [Invalid_argument] when
    [bound <= 0]. *)

val float : t -> float
(** Uniform in [0, 1). *)

val bool : t -> bool

val split : t -> t
(** A generator whose stream is independent of the parent's future
    outputs. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
