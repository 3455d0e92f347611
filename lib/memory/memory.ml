module Bitword = Rme_util.Bitword

type loc = int

(* One flat array per field, indexed by location; the first [len]
   entries are live and the arrays double when full, or grow to fit a
   reservation. [accessors] uses -1 for "never accessed" so [apply]
   stays allocation-free; the option view is built only on query.
   [owners] holds the option [alloc] was given, so [owner] allocates
   nothing either. *)
type t = {
  width : int;
  mutable len : int;
  mutable values : int array;
  mutable inits : int array;
  mutable accessors : int array;
  mutable owners : int option array;
}

(* A fresh memory's capacity, and the spare slots a reservation adds.
   Growing to the reservation plus these, rather than to the next
   doubling (32,768 slots for Katzan–Morrison's 21,159 at n = 1024,
   w = 4), makes [Stepper.create] for that lock 1.8x cheaper, and the
   few single allocations that follow a lock's layout (the stepper's
   cs-cell) still fit. *)
let headroom = 16

let create ~width =
  Bitword.check_width width;
  let cap = headroom in
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

(* Reallocate the four arrays at capacity [cap] >= [t.len]. *)
let resize t cap =
  let extend a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 t.len;
    a'
  in
  t.values <- extend t.values 0;
  t.inits <- extend t.inits 0;
  t.accessors <- extend t.accessors (-1);
  t.owners <- extend t.owners None

let reserve t extra =
  let need = t.len + extra in
  let cap = Array.length t.values in
  if need > cap then resize t (max (2 * cap) (need + headroom))

let alloc ?owner t ~init =
  let init = Bitword.truncate ~width:t.width init in
  if t.len = Array.length t.values then resize t (2 * t.len);
  let loc = t.len in
  t.values.(loc) <- init;
  t.inits.(loc) <- init;
  t.owners.(loc) <- owner;
  t.len <- loc + 1;
  loc

(* [Some p] for every pid the experiments simulate, built once. A large
   layout stores these old blocks into the (major-heap) owner array: a
   fresh [Some p] per process would be remembered by the write barrier
   and promoted one by one at the next minor collection, which cost
   more than the rest of building Katzan–Morrison at n = 1024. *)
let some_pid = Array.init 4096 Option.some

let owner_opt p = if p >= 0 && p < Array.length some_pid then some_pid.(p) else Some p

(* Owners past [len] are still [None]: the arrays are filled with it and
   [len] never shrinks. *)
let alloc_block ?per_process t ~init ~len =
  let init = Bitword.truncate ~width:t.width init in
  reserve t len;
  let base = t.len in
  Array.fill t.values base len init;
  Array.fill t.inits base len init;
  (match per_process with
  | Some r when len > 0 ->
      if r < 1 || len mod r <> 0 then
        invalid_arg (Printf.sprintf "Memory.alloc_block: %d locations in runs of %d" len r);
      for p = 0 to (len / r) - 1 do
        Array.fill t.owners (base + (p * r)) r (owner_opt p)
      done
  | Some _ | None -> ());
  t.len <- base + len;
  base

let alloc_array ?owner t ~init ~len =
  reserve t len;
  Array.init len (fun _ -> alloc ?owner t ~init)

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
