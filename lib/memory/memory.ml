module Bitword = Rme_util.Bitword

type loc = int

(* One flat array per field, indexed by location; the first [len]
   entries are live and the arrays double when full. [accessors] uses -1
   for "never accessed" so [apply] stays allocation-free; the option view
   is built only on query. [owners] holds the option [alloc] was given,
   so [owner] allocates nothing either. *)
type t = {
  width : int;
  mutable len : int;
  mutable values : int array;
  mutable inits : int array;
  mutable accessors : int array;
  mutable owners : int option array;
}

let create ~width =
  Bitword.check_width width;
  let cap = 16 in
  {
    width;
    len = 0;
    values = Array.make cap 0;
    inits = Array.make cap 0;
    accessors = Array.make cap (-1);
    owners = Array.make cap None;
  }

let width t = t.width

let num_locs t = t.len

let grow t =
  let cap = 2 * Array.length t.values in
  let extend a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 t.len;
    a'
  in
  t.values <- extend t.values 0;
  t.inits <- extend t.inits 0;
  t.accessors <- extend t.accessors (-1);
  t.owners <- extend t.owners None

let alloc ?owner t ~init =
  let init = Bitword.truncate ~width:t.width init in
  if t.len = Array.length t.values then grow t;
  let loc = t.len in
  t.values.(loc) <- init;
  t.inits.(loc) <- init;
  t.owners.(loc) <- owner;
  t.len <- loc + 1;
  loc

let alloc_array ?owner t ~init ~len = Array.init len (fun _ -> alloc ?owner t ~init)

let check t loc =
  if loc < 0 || loc >= t.len then
    invalid_arg (Printf.sprintf "Memory: location %d out of bounds [0, %d)" loc t.len)

let value t loc =
  check t loc;
  t.values.(loc)

let owner t loc =
  check t loc;
  t.owners.(loc)

let last_accessor t loc =
  check t loc;
  let a = t.accessors.(loc) in
  if a < 0 then None else Some a

let apply t ~pid loc op =
  check t loc;
  let old = t.values.(loc) in
  t.values.(loc) <- Op.next_value ~width:t.width op old;
  t.accessors.(loc) <- pid;
  old

let snapshot t = Array.sub t.values 0 t.len

let reset_values t =
  Array.blit t.inits 0 t.values 0 t.len;
  Array.fill t.accessors 0 t.len (-1)
