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

    Every program is written in continuation-passing style with {!K}:
    each primitive takes the rest of the program as its last argument
    and builds one [Step] whose continuation {e is} that rest, written
    [K.read loc @@ fun v -> body]. A sub-protocol takes its
    continuation the same way
    ([acquire_level ~pid ~k @@ fun () -> climb (k + 1)]); one shared by
    [entry] and [recover] stays polymorphic in the answer type. Resuming
    a step allocates the [Step], its operation and the closure of the
    rest of the body, and nothing else. A program never computes a
    value for a caller to bind: it hands the value to its continuation
    instead. So [recover] ends with [k Resume_entry] or another
    {!Lock_intf.resume}, and every program the simulator runs is a
    [unit t]. *)

type 'a t =
  | Return of 'a
  | Step of Rme_memory.Memory.loc * Rme_memory.Op.t * (int -> 'a t)
      (** [Step (loc, op, k)]: perform [op] on [loc]; [k] receives the
          value the location held before the operation. *)

val return : 'a -> 'a t

val write : Rme_memory.Memory.loc -> int -> unit t
(** The one-step program that writes [v] to [loc] and returns: the
    usual last step of an [exit] or a critical section. *)

(** Continuation-passing primitives. Each builds exactly one [Step]
    whose continuation is the one given, so [K.read loc k] poises a
    [Read] of [loc] and resumes into [k] with the value read.

    There is no binding operator. With one defined as [f k = f k],
    binding [v] to [K.read loc] in [body] would, without flambda,
    evaluate [K.read loc] as a value before applying it to
    [fun v -> body], so every step would first build a
    partial-application closure and then call through it, in the
    release build as well as in dev's [-opaque] one. [@@] is the
    [%apply] primitive: [K.read loc @@ fun v -> body] is the one full
    application [K.read loc (fun v -> body)], which the release build
    inlines down to the [Step] itself.

    An inline [@@ fun] is the right form for a continuation used once:
    its closure is built only when the step before it is. A loop or a
    join point reached from several places (a spin, a walk up or down
    a tree, a handoff) is better a named function defined once per
    lock instance, taking the per-call state as explicit int
    arguments: a local [let rec] inside a sub-protocol is itself a
    closure built on every call, even on paths that never use it, and
    the continuations it builds capture ints rather than records. *)
module K : sig
  val op : Rme_memory.Memory.loc -> Rme_memory.Op.t -> (int -> 'a t) -> 'a t
  val read : Rme_memory.Memory.loc -> (int -> 'a t) -> 'a t

  val write : Rme_memory.Memory.loc -> int -> (int -> 'a t) -> 'a t
  (** The continuation receives the overwritten value, which callers
      ignore ([K.write loc v @@ fun _ -> ...]): passing the caller's
      continuation through unwrapped saves a closure per write. *)

  val cas :
    Rme_memory.Memory.loc -> expected:int -> desired:int -> (bool -> 'a t) -> 'a t
  (** The continuation receives whether the CAS succeeded. *)

  val fas : Rme_memory.Memory.loc -> int -> (int -> 'a t) -> 'a t
  val faa : Rme_memory.Memory.loc -> int -> (int -> 'a t) -> 'a t
  val fai : Rme_memory.Memory.loc -> (int -> 'a t) -> 'a t

  val await : Rme_memory.Memory.loc -> (int -> bool) -> (int -> 'a t) -> 'a t
  (** [await loc cond k] spins — one [Read] of [loc] per scheduling
      step — until the value satisfies [cond], then resumes into [k]
      with it. Every spin is the same [Step] value, so re-reads
      allocate nothing. Under the CC model the re-reads hit the cache
      and incur no RMRs; under DSM they are local only if the process
      owns [loc]. *)
end
