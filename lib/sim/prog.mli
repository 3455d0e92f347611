(** Process programs: one atomic shared-memory step at a time.

    A program is either finished ([Return]) or poised on one atomic
    operation ([Step]) whose continuation receives the location's
    pre-operation value. The scheduler owns the interleaving. The
    representation gives the simulator the two capabilities the paper's
    model requires:

    - {b crash steps}: a crash discards the continuation — all "local
      variables" (everything captured in the closure) vanish, while shared
      memory persists; and
    - {b poised inspection}: the next operation of a suspended program can
      be examined without running it, which is how the adversary of the
      lower-bound proof decides whether a process is "poised to incur an
      RMR" and on which object.

    Programs are written in one of two styles over the same type.

    - {b Continuation passing} ({!K}), used by every lock under
      [lib/locks]: each primitive takes the rest of the program as its
      last argument and builds one [Step] whose continuation {e is}
      that rest, so [let@ v = K.read loc in body] resumes straight into
      [body]. A sub-protocol takes its continuation the same way
      ([acquire_level ~pid ~k next]), and stays polymorphic in the
      answer type when [entry] and [recover] share it. Resuming a step
      allocates only what the body itself builds.
    - {b Monadic} ({!Infix}'s [let*]), for one-off programs: critical
      section bodies, examples and tests. [bind] rewraps the
      continuation of every step once per enclosing [let*], so a step
      nested in [d] binds allocates about [d] more closures and [Step]
      blocks when it resumes; Katzan–Morrison written this way
      allocated about twice the words per harness step. *)

type 'a t =
  | Return of 'a
  | Step of Rme_memory.Memory.loc * Rme_memory.Op.t * (int -> 'a t)
      (** [Step (loc, op, k)]: perform [op] on [loc]; [k] receives the
          value the location held before the operation. *)

val return : 'a -> 'a t

val bind : 'a t -> ('a -> 'b t) -> 'b t

val map : ('a -> 'b) -> 'a t -> 'b t

val op : Rme_memory.Memory.loc -> Rme_memory.Op.t -> int t
(** A single operation returning the pre-operation value. *)

(** {2 Operation shorthands} *)

val read : Rme_memory.Memory.loc -> int t
val write : Rme_memory.Memory.loc -> int -> unit t
val cas : Rme_memory.Memory.loc -> expected:int -> desired:int -> bool t
(** Returns whether the CAS succeeded. *)

val fas : Rme_memory.Memory.loc -> int -> int t
val faa : Rme_memory.Memory.loc -> int -> int t
val fai : Rme_memory.Memory.loc -> int t

(** {2 Control} *)

val await : Rme_memory.Memory.loc -> (int -> bool) -> int t
(** [await loc cond] spins — one read per scheduling step — until the
    value satisfies [cond]; returns the satisfying value. Under the CC
    model the re-reads hit the cache and incur no RMRs; under DSM they are
    local only if the process owns [loc]. *)

val peek : 'a t -> (Rme_memory.Memory.loc * Rme_memory.Op.t) option
(** The next shared-memory operation of a suspended program, or [None] if
    it has returned. *)

module Infix : sig
  val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
end

(** Continuation-passing primitives. Each builds exactly one [Step],
    with the same location and operation as its monadic namesake, so a
    program moves to this style without changing a single step. A
    program's last step may be the one-step monadic program itself
    ([Prog.write loc v] where the program then returns [()]): that
    involves no [bind]. *)
module K : sig
  val ( let@ ) : ('a -> 'b) -> 'a -> 'b
  (** [let@ x = prim in body] is [prim (fun x -> body)]. *)

  val op : Rme_memory.Memory.loc -> Rme_memory.Op.t -> (int -> 'a t) -> 'a t
  val read : Rme_memory.Memory.loc -> (int -> 'a t) -> 'a t

  val write : Rme_memory.Memory.loc -> int -> (int -> 'a t) -> 'a t
  (** The continuation receives the overwritten value, which callers
      ignore ([let@ _ = K.write loc v in ...]): passing the caller's
      continuation through unwrapped saves a closure per write. *)

  val cas :
    Rme_memory.Memory.loc -> expected:int -> desired:int -> (bool -> 'a t) -> 'a t
  (** The continuation receives whether the CAS succeeded. *)

  val fas : Rme_memory.Memory.loc -> int -> (int -> 'a t) -> 'a t
  val faa : Rme_memory.Memory.loc -> int -> (int -> 'a t) -> 'a t
  val fai : Rme_memory.Memory.loc -> (int -> 'a t) -> 'a t

  val await : Rme_memory.Memory.loc -> (int -> bool) -> (int -> 'a t) -> 'a t
  (** As the monadic [await]: one [Read] of the location per step until the
      value satisfies the condition, which the continuation then
      receives. Every spin is the same [Step] value, so re-reads
      allocate nothing. *)
end
