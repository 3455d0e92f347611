(** The simulated shared memory: an allocator of [w]-bit base objects and
    the single point through which every atomic operation is applied.

    The word size is a property of the whole memory (the paper's model:
    "each base object stores [w] bits"), enforced here rather than trusted
    to the algorithms: every stored value is truncated to [w] bits, so an
    algorithm that tries to pack more state into a word than fits simply
    misbehaves — observably.

    For the DSM model, each location can carry an owner process: an access
    by any other process incurs an RMR. Locations without an owner model
    globally shared segments (every access is remote for everyone).

    [last_accessor] tracks the process that last performed {e any}
    operation on the location — the paper's [last_R] — which both the
    lower-bound adversary and the invariant checkers consume.

    Representation: one flat array per field (value, initial value, last
    accessor, owner), indexed by location and doubling from a small
    capacity as locations are allocated, so a step reads and writes
    unboxed array slots rather than a per-location record.

    The only rewind is {!reset_values}, back to the initial values: a
    state in between is reached again by replaying the steps that led
    to it. *)

type loc = int
(** A location handle. Handles are dense indices, valid for the memory
    that allocated them. *)

type t

val create : width:int -> t
(** A fresh memory with no locations. Raises [Invalid_argument] unless
    [1 <= width <= 62]. *)

val width : t -> int

val num_locs : t -> int

val alloc : ?owner:int -> t -> init:int -> loc
(** Allocate one location. [init] is truncated to the word width. *)

val alloc_array : ?owner:int -> t -> init:int -> len:int -> loc array
(** Allocate [len] consecutive locations. *)

val value : t -> loc -> int
(** Current stored value (no RMR bookkeeping — simulator internal). *)

val owner : t -> loc -> int option

val last_accessor : t -> loc -> int option
(** The process that last applied any operation via [apply], or [None] if
    the location was never accessed. *)

val apply : t -> pid:int -> loc -> Op.t -> int
(** [apply t ~pid loc op] atomically applies [op], records [pid] as the
    last accessor, and returns the value held {e before} the operation. *)

val snapshot : t -> int array
(** Values of all locations, for replay comparison. Does not include
    accessor metadata. *)

val reset_values : t -> unit
(** Restore every location to its initial value and clear accessor
    metadata. Used by replay-based schedule reconstruction. *)
