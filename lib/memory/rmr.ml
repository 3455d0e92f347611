type model = Cc | Dsm

let model_of_string = function
  | "cc" | "CC" -> Some Cc
  | "dsm" | "DSM" -> Some Dsm
  | _ -> None

let model_name = function Cc -> "CC" | Dsm -> "DSM"

let pp_model ppf m = Format.pp_print_string ppf (model_name m)

let all_models = [ Cc; Dsm ]

type t = {
  model : model;
  cache : Cache.t option;
  totals : int array;
  passages : int array;
}

let create model ~n =
  {
    model;
    cache = (match model with Cc -> Some (Cache.create ~n) | Dsm -> None);
    totals = Array.make n 0;
    passages = Array.make n 0;
  }

let model t = t.model

let cache t = t.cache

let dsm_incurs ~owner ~pid =
  match owner with Some o -> o <> pid | None -> true

let record t ~pid ~loc ~owner ~is_read =
  let rmr =
    match t.model with
    | Dsm -> dsm_incurs ~owner ~pid
    | Cc -> (
        match t.cache with
        | Some c -> Cache.access c ~pid ~loc ~is_read
        | None -> assert false)
  in
  if rmr then begin
    t.totals.(pid) <- t.totals.(pid) + 1;
    t.passages.(pid) <- t.passages.(pid) + 1
  end;
  rmr

let would_incur t ~pid ~loc ~owner ~is_read =
  match t.model with
  | Dsm -> dsm_incurs ~owner ~pid
  | Cc -> (
      match t.cache with
      | Some c -> (not is_read) || not (Cache.has_copy c ~pid ~loc)
      | None -> assert false)

let on_crash t ~pid =
  match t.cache with Some c -> Cache.drop_process c ~pid | None -> ()

let total t ~pid = t.totals.(pid)

let passage t ~pid = t.passages.(pid)

let start_passage t ~pid = t.passages.(pid) <- 0

let reset t =
  Array.fill t.totals 0 (Array.length t.totals) 0;
  Array.fill t.passages 0 (Array.length t.passages) 0;
  match t.cache with Some c -> Cache.clear c | None -> ()
