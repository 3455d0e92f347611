(** Sets of small integers (process IDs, location IDs, vertex IDs).

    A thin layer over [Set.Make (Int)] with the handful of derived
    operations the lower-bound machinery uses repeatedly. *)

include Set.S with type elt = int

val of_range : int -> int -> t
(** [of_range lo hi] is the set [{lo, ..., hi}] (empty when [lo > hi]). *)

val to_sorted_list : t -> int list
(** Ascending element list. *)

val pp : Format.formatter -> t -> unit
(** Prints as [{1, 4, 5}]. *)

