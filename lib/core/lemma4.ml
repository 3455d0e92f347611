type outcome =
  | Union_small of { zs : int list; union : Partite.edge list }
  | Intersect_large of { zs : int list; witness : Partite.edge }

(* Projections are along part 0 throughout (Lemma 5 peels parts off the
   front). For each vertex z of X_1 we collect the set of tails
   pi_z(E); for each tail we remember which vertices project onto it.
   The tables whose order reaches the outcome (the per-vertex tail sets,
   which [fold_union] walks, and [by_tail], whose first max-count tail
   is case (b)'s witness) are never randomised, so the outcome does not
   depend on the runtime's hash seed. *)

type projections = {
  by_vertex : (int, (Partite.edge, unit) Hashtbl.t) Hashtbl.t;
  by_tail : (Partite.edge, int list ref) Hashtbl.t;
  total : int;
}

let project edges =
  let by_vertex = Hashtbl.create 64 in
  let by_tail = Hashtbl.create ~random:false 1024 in
  List.iter
    (fun e ->
      let z = e.(0) in
      let tail = Partite.tail_key ~part:0 e in
      let tails =
        match Hashtbl.find_opt by_vertex z with
        | Some t -> t
        | None ->
            let t = Hashtbl.create ~random:false 64 in
            Hashtbl.add by_vertex z t;
            t
      in
      if not (Hashtbl.mem tails tail) then begin
        Hashtbl.replace tails tail ();
        match Hashtbl.find_opt by_tail tail with
        | Some l -> l := z :: !l
        | None -> Hashtbl.add by_tail tail (ref [ z ])
      end)
    edges;
  { by_vertex; by_tail; total = List.length edges }

let check_preconditions ~s ~eps ~parts ~edges =
  if s <= 0.0 then invalid_arg "Lemma4: s must be positive";
  if eps < 0.0 || eps >= 0.5 then invalid_arg "Lemma4: eps must be in [0, 1/2)";
  if Array.length parts = 0 then invalid_arg "Lemma4: no parts";
  if edges = [] then invalid_arg "Lemma4: no edges";
  let x1 = float_of_int (Array.length parts.(0)) in
  if x1 > s *. (1.0 +. eps) +. 1e-9 then
    invalid_arg
      (Printf.sprintf "Lemma4: |X_1| = %d exceeds s(1+eps) = %.3f"
         (Array.length parts.(0))
         (s *. (1.0 +. eps)))

(* Folds [f] over ∪_{z ∈ zs} pi_z(E), each tail at the first projection
   that holds it, in [zs] order and then each projection's table order:
   [union_size] counts the union without building it, and [union_edges]
   builds the one that qualifies. *)
let fold_union p zs f init =
  let rec held tail = function
    | [] -> false
    | t :: earlier -> Hashtbl.mem t tail || held tail earlier
  in
  let rec go earlier acc = function
    | [] -> acc
    | z :: rest -> (
        match Hashtbl.find_opt p.by_vertex z with
        | None -> go earlier acc rest
        | Some t ->
            let acc =
              Hashtbl.fold
                (fun tail () acc -> if held tail earlier then acc else f tail acc)
                t acc
            in
            go (t :: earlier) acc rest)
  in
  go [] init zs

let union_size p zs = fold_union p zs (fun _ n -> n + 1) 0
let union_edges p zs = fold_union p zs List.cons []

let solve ~s ~eps ~parts ~edges =
  check_preconditions ~s ~eps ~parts ~edges;
  let p = project edges in
  let threshold_a = float_of_int p.total /. s in
  let x1 = Array.to_list parts.(0) in
  (* Case (a): the first Z, each vertex of X_1 and then each pair in scan
     order, whose projections cover |E|/s tails. Every such union lies
     within [by_tail]'s keys, so too few distinct tails rule (a) out. *)
  let covers zs = float_of_int (union_size p zs) >= threshold_a in
  let found =
    if float_of_int (Hashtbl.length p.by_tail) < threshold_a then None
    else
      let rec pairs = function
        | [] -> []
        | z1 :: rest -> List.map (fun z2 -> [ z1; z2 ]) rest @ pairs rest
      in
      List.find_opt covers (List.map (fun z -> [ z ]) x1 @ pairs x1)
  in
  match found with
  | Some zs -> Union_small { zs; union = union_edges p zs }
  | None -> (
      (* Case (b): find the tail shared by the most projections. The
         expectation argument of the paper guarantees one shared by at
         least s(1+eps)(1-2eps) of them once (a) fails everywhere. A
         vertex joins a tail's list once, so its length is the count. *)
      let threshold_b = s *. (1.0 +. eps) *. (1.0 -. (2.0 *. eps)) in
      let best = ref None in
      Hashtbl.iter
        (fun tail zs ->
          let c = List.length !zs in
          match !best with
          | Some (_, _, c') when c' >= c -> ()
          | _ -> best := Some (tail, zs, c))
        p.by_tail;
      match !best with
      | Some (tail, zs, c) when float_of_int c >= threshold_b ->
          Intersect_large { zs = List.sort compare !zs; witness = tail }
      | Some (_, _, c) ->
          invalid_arg
            (Printf.sprintf
               "Lemma4: no witness found (best intersection %d < %.2f) — \
                preconditions must have been violated"
               c threshold_b)
      | None -> invalid_arg "Lemma4: empty projection structure")

let verify ~s ~eps ~parts ~edges outcome =
  let ( let* ) r f = Result.bind r f in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let total = List.length edges in
  let member_x1 z = Array.exists (fun v -> v = z) parts.(0) in
  match outcome with
  | Union_small { zs; union } ->
      let* () = if List.length zs <= 2 then Ok () else fail "case (a): |Z| > 2" in
      let* () =
        if List.for_all member_x1 zs then Ok () else fail "case (a): Z not in X_1"
      in
      (* Recompute the union independently. *)
      let expected = Hashtbl.create 64 in
      List.iter
        (fun z ->
          List.iter
            (fun t -> Hashtbl.replace expected t ())
            (Partite.pi_z ~part:0 ~z edges))
        zs;
      let* () =
        if List.length union = Hashtbl.length expected
           && List.for_all (Hashtbl.mem expected) union
        then Ok ()
        else fail "case (a): union does not match pi projections"
      in
      if float_of_int (List.length union) >= (float_of_int total /. s) -. 1e-9
      then Ok ()
      else
        fail "case (a): union size %d below |E|/s = %.2f" (List.length union)
          (float_of_int total /. s)
  | Intersect_large { zs; witness } ->
      let need = s *. (1.0 +. eps) *. (1.0 -. (2.0 *. eps)) in
      let* () =
        if float_of_int (List.length zs) >= need -. 1e-9 then Ok ()
        else fail "case (b): |Z| = %d below %.2f" (List.length zs) need
      in
      let* () =
        if List.for_all member_x1 zs then Ok () else fail "case (b): Z not in X_1"
      in
      if
        List.for_all
          (fun z ->
            List.exists (fun t -> t = witness) (Partite.pi_z ~part:0 ~z edges))
          zs
      then Ok ()
      else fail "case (b): witness not in every projection"
