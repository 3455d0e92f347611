(** Lemma 4 — the dichotomy on [k]-partite hypergraphs, constructively.

    Given [H = (X_1, ..., X_k, E)] with [|X_1| <= s(1+eps)] and
    [0 <= eps < 1/2], there is a set [Z ⊆ X_1] such that either

    (a) [|Z| <= 2] and [|∪_{z in Z} pi_z(E)| >= |E|/s], or
    (b) [|Z| >= s(1+eps)(1-2eps)] and [∩_{z in Z} pi_z(E) ≠ ∅].

    [solve] returns a witness for one of the two cases; it follows the
    paper's proof. Case (a) is one search: the candidates are each
    vertex of [X_1], then each pair in [X_1] order, and the first whose
    projections cover [|E|/s] tails is returned. A union's size is
    counted from the per-vertex tail sets, each tail at the first
    projection that holds it; no union is built until one qualifies.
    Every union lies within the distinct tails of [E], so when there are
    fewer than [|E|/s] of those the search is skipped. Its cost is
    [O(|X_1|^2)] candidates, each linear in its projections' sizes. When
    no candidate qualifies, the expectation argument guarantees a common
    tail [e*] shared by enough projections, which [solve] finds by exact
    counting. Projections are always taken along the {e first} part,
    which is how Lemma 5 consumes this lemma. *)

type outcome =
  | Union_small of { zs : int list; union : Partite.edge list }
      (** Case (a): [|zs| <= 2]; [union] is [∪ pi_z(E)], edges of arity
          [k-1]. *)
  | Intersect_large of { zs : int list; witness : Partite.edge }
      (** Case (b): [witness] is an [e* in ∩_{z in zs} pi_z(E)], arity
          [k-1]. *)

val solve : s:float -> eps:float -> parts:int array array -> edges:Partite.edge list -> outcome
(** Raises [Invalid_argument] when preconditions fail ([s <= 0],
    [eps] out of range, [|X_1| > s(1+eps)], or no edges) or — which the
    lemma proves impossible — when neither case can be witnessed. *)

val verify :
  s:float ->
  eps:float ->
  parts:int array array ->
  edges:Partite.edge list ->
  outcome ->
  (unit, string) result
(** Independently re-check an outcome against the lemma's statement. *)
