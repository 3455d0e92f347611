module Bitword = Rme_util.Bitword
module Vec = Rme_util.Vec

type loc = int

(* [last_accessor] uses -1 for "never accessed" so [apply] stays
   allocation-free; the option view is built only on query. *)
type cell = {
  owner : int option;
  init : int;
  mutable value : int;
  mutable last_accessor : int;
}

type t = { width : int; cells : cell Vec.t }

let create ~width =
  Bitword.check_width width;
  { width; cells = Vec.create () }

let width t = t.width

let num_locs t = Vec.length t.cells

let alloc ?owner t ~init =
  let init = Bitword.truncate ~width:t.width init in
  Vec.push t.cells { owner; init; value = init; last_accessor = -1 }

let alloc_array ?owner t ~init ~len = Array.init len (fun _ -> alloc ?owner t ~init)

let cell t loc = Vec.get t.cells loc

let value t loc = (cell t loc).value

let owner t loc = (cell t loc).owner

let last_accessor t loc =
  let a = (cell t loc).last_accessor in
  if a < 0 then None else Some a

let apply t ~pid loc op =
  let c = cell t loc in
  let old = c.value in
  c.value <- Op.next_value ~width:t.width op old;
  c.last_accessor <- pid;
  old

let peek_next_value t loc op = Op.next_value ~width:t.width op (value t loc)

let snapshot t = Array.init (num_locs t) (fun i -> (cell t i).value)

let reset_values t =
  Vec.iter
    (fun c ->
      c.value <- c.init;
      c.last_accessor <- -1)
    t.cells

type checkpoint = { ck_values : int array; ck_accessors : int array }

let checkpoint t =
  let n = num_locs t in
  let ck_values = Array.make n 0 and ck_accessors = Array.make n 0 in
  for i = 0 to n - 1 do
    let c = cell t i in
    ck_values.(i) <- c.value;
    ck_accessors.(i) <- c.last_accessor
  done;
  { ck_values; ck_accessors }

let restore t ck =
  if Array.length ck.ck_values <> num_locs t then
    invalid_arg "Memory.restore: checkpoint from a different memory";
  for i = 0 to num_locs t - 1 do
    let c = cell t i in
    c.value <- ck.ck_values.(i);
    c.last_accessor <- ck.ck_accessors.(i)
  done
