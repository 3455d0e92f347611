(** Growable arrays (OCaml 5.1 predates [Dynarray]).

    Used by the simulated memory for location allocation and by trace
    recording. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] when the index is out of bounds. *)

val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> int
(** Appends and returns the index of the new element. *)

val iter : ('a -> unit) -> 'a t -> unit
val to_array : 'a t -> 'a array
val of_array : 'a array -> 'a t
val clear : 'a t -> unit
