module Intset = Rme_util.Intset

type edge = int array

type t = { parts : int array array; edges : edge list }

let max_edges = 1 lsl 30

(* The running product is compared with [max_edges / size i] before it
   is multiplied by [size i], so it never overflows. *)
let within_cap ~count ~size =
  let rec go acc i =
    i = count || (acc <= max_edges / size i && go (acc * size i) (i + 1))
  in
  go 1 0

let complete ~parts =
  let k = Array.length parts in
  if
    not
      (Array.exists (fun p -> p = [||]) parts
      || within_cap ~count:k ~size:(fun i -> Array.length parts.(i)))
  then invalid_arg "Partite.complete: too many edges (over 2^30)";
  let acc = ref [] in
  let e = Array.make k 0 in
  let rec fill i =
    if i = k then acc := Array.copy e :: !acc
    else
      Array.iter
        (fun v ->
          e.(i) <- v;
          fill (i + 1))
        parts.(i)
  in
  if k = 0 then { parts; edges = [] }
  else begin
    fill 0;
    { parts; edges = List.rev !acc }
  end

let vertices_of_edges edges =
  List.fold_left
    (fun acc e -> Array.fold_left (fun acc v -> Intset.add v acc) acc e)
    Intset.empty edges

let tail_key ~part e =
  let k = Array.length e in
  Array.init (k - 1) (fun i -> if i < part then e.(i) else e.(i + 1))

let pi_z ~part ~z edges =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun e ->
      if e.(part) <> z then None
      else begin
        let key = tail_key ~part e in
        if Hashtbl.mem seen key then None
        else begin
          Hashtbl.add seen key ();
          Some key
        end
      end)
    edges

(* Never randomised: [Hiding.solve]'s majority fold breaks ties in
   iteration order, which must not depend on the runtime's hash seed. *)
let group_by_value edges ~f =
  let tbl = Hashtbl.create ~random:false 16 in
  List.iter
    (fun e ->
      let y = f e in
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl y) in
      Hashtbl.replace tbl y (e :: prev))
    edges;
  tbl
