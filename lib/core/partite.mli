(** [k]-partite hypergraphs and the set operators of Definition 3.

    Vertices are integers (process IDs in the lower-bound application). A
    hyperedge contains precisely one vertex from each part, represented as
    an [int array] of length [k] in part order. The operators

    [sigma_A(B) = { S in B : A ⊆ S }] and
    [pi_A(B)    = { S \ A : S in sigma_A(B) }]

    are provided on edge collections, specialised to what Lemmas 4 and 5
    consume: projections along a single vertex of a designated part. *)

type edge = int array

type t = {
  parts : int array array;  (** [parts.(i)]: the vertices of part [i]. *)
  edges : edge list;
}

val within_cap : count:int -> size:(int -> int) -> bool
(** Whether [size 0 * ... * size (count - 1)] is at most [2^30], the
    most edges {!complete} lists, for sizes of at least 1. The product
    is never formed past the cap, so it cannot overflow. *)

val complete : parts:int array array -> t
(** The complete [k]-partite hypergraph: all [prod |X_i|] edges, in
    lexicographic part order. Raises [Invalid_argument] when the edge
    count would exceed [2^30] (keep test parameters sane). *)

val vertices_of_edges : edge list -> Rme_util.Intset.t
(** The union of all vertices appearing in the given edges — the set [U]
    of Lemma 5. *)

val pi_z : part:int -> z:int -> edge list -> edge list
(** [pi_z ~part ~z edges]: the edges whose [part] component equals [z]
    (their [sigma]), with that component removed — each result has
    length [k - 1]. Duplicates are removed (the operator produces a
    set). *)

val tail_key : part:int -> edge -> edge
(** The edge with component [part] removed; the canonical key for
    projection bookkeeping. *)

val group_by_value : edge list -> f:(edge -> int) -> (int, edge list) Hashtbl.t
(** Partition edges by [f]-value; used to pick the majority value [y_i].
    The table is never randomised, so its iteration order does not
    depend on the runtime's hash seed ([OCAMLRUNPARAM=R]). *)
