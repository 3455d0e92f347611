module Bitword = Rme_util.Bitword

type t =
  | Read
  | Write of int
  | Cas of { expected : int; desired : int }
  | Fas of int
  | Faa of int
  | Rmw of { name : string; f : width:int -> int -> int }

let fai = Faa 1

let is_read = function
  | Read -> true
  | Write _ | Cas _ | Fas _ | Faa _ | Rmw _ -> false

(* Every step calls this, so it builds no closure: a local [truncate]
   over [width] would be allocated on each call. *)
let next_value ~width op current =
  match op with
  | Read -> current
  | Write v | Fas v -> Bitword.truncate ~width v
  | Cas { expected; desired } ->
      if current = Bitword.truncate ~width expected then Bitword.truncate ~width desired
      else current
  | Faa d -> Bitword.add ~width current d
  | Rmw { f; _ } -> Bitword.truncate ~width (f ~width current)

let name = function
  | Read -> "read"
  | Write _ -> "write"
  | Cas _ -> "cas"
  | Fas _ -> "fas"
  | Faa _ -> "faa"
  | Rmw { name; _ } -> "rmw:" ^ name

let pp ppf = function
  | Read -> Format.pp_print_string ppf "read"
  | Write v -> Format.fprintf ppf "write(%d)" v
  | Cas { expected; desired } -> Format.fprintf ppf "cas(%d,%d)" expected desired
  | Fas v -> Format.fprintf ppf "fas(%d)" v
  | Faa d -> Format.fprintf ppf "faa(%d)" d
  | Rmw { name; _ } -> Format.fprintf ppf "rmw:%s" name
