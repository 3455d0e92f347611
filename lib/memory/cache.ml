module Intset = Rme_util.Intset

(* Generation/epoch stamping. A copy held by [pid] of [loc] is
   represented by the stamp [(epochs.(pid) lsl gen_bits) lor gens.(loc)]
   recorded at install time; it is valid iff it still equals that
   expression. Bumping [gens.(loc)] (any non-read) or [epochs.(pid)]
   (a crash) therefore invalidates in O(1) without touching stamps.

   Stamps live in one open-addressing table per pid, created on the
   pid's first read: slot [i] is the pair [tbl.(2i)] (a location, or -1
   when empty) and [tbl.(2i+1)] (its stamp). Probing is linear from a
   hashed home slot over a power-of-two capacity. Entries are never
   deleted one by one — an invalidated copy just keeps a stale stamp —
   so probes need no tombstones. A table doubles when half full, and
   the rehash drops stale entries, so its size follows the copies the
   pid has held rather than the locations that exist.

   A read probes its pid's table once. On a miss, [find] has stopped at
   the empty slot where the location belongs, and the copy is installed
   there without a second probe. *)

let gen_bits = 31
let gen_mask = (1 lsl gen_bits) - 1
let empty_table : int array = [||]
let min_slots = 8

type t = {
  n : int;
  epochs : int array; (* pid -> crash epoch *)
  mutable gens : int array; (* loc -> write generation *)
  tables : int array array; (* pid -> interleaved (loc, stamp) slots *)
  used : int array; (* pid -> occupied slots of its table *)
}

let create ~n =
  {
    n;
    epochs = Array.make n 0;
    gens = Array.make 64 0;
    tables = Array.make n empty_table;
    used = Array.make n 0;
  }

let n t = t.n

let ensure_loc t loc =
  if loc >= Array.length t.gens then begin
    let cap = max (loc + 1) (2 * Array.length t.gens) in
    let gens = Array.make cap 0 in
    Array.blit t.gens 0 gens 0 (Array.length t.gens);
    t.gens <- gens
  end

let[@inline] home loc mask =
  let h = loc * 0x9E3779B1 in
  (h lxor (h lsr 15)) land mask

(* Index (into [tbl]) of the slot holding [loc], or of the empty slot
   where it would go. [tbl] is non-empty and at most half full, so the
   probe stops. *)
let[@inline] find tbl loc =
  let mask = (Array.length tbl lsr 1) - 1 in
  let i = ref (home loc mask) in
  while
    let k = Array.unsafe_get tbl (2 * !i) in
    k <> loc && k <> -1
  do
    i := (!i + 1) land mask
  done;
  2 * !i

(* Store an entry for [loc], known to be absent, in a table with room. *)
let insert_absent tbl loc stamp =
  let j = find tbl loc in
  tbl.(j) <- loc;
  tbl.(j + 1) <- stamp

let[@inline] stamp_of t ~pid ~loc = (t.epochs.(pid) lsl gen_bits) lor t.gens.(loc)

(* Move [pid]'s valid entries into a fresh table of [slots] slots,
   dropping stale ones. *)
let rehash t ~pid ~slots =
  let old = t.tables.(pid) in
  let tbl = Array.make (2 * slots) (-1) in
  let kept = ref 0 in
  for i = 0 to (Array.length old lsr 1) - 1 do
    let loc = old.(2 * i) in
    if loc >= 0 && old.((2 * i) + 1) = stamp_of t ~pid ~loc then begin
      insert_absent tbl loc old.((2 * i) + 1);
      incr kept
    end
  done;
  t.tables.(pid) <- tbl;
  t.used.(pid) <- !kept

let has_copy t ~pid ~loc =
  loc < Array.length t.gens
  &&
  let tbl = t.tables.(pid) in
  tbl != empty_table
  &&
  let j = find tbl loc in
  Array.unsafe_get tbl j = loc
  && Array.unsafe_get tbl (j + 1) = stamp_of t ~pid ~loc

(* Install a copy of [loc], known to be absent, at slot index [j] of
   [pid]'s table: the empty slot where [find] stopped, or -1 before the
   pid's first read, which creates the table. A table at half load
   doubles after the new entry goes in. *)
let install t ~pid ~loc ~stamp j =
  if j < 0 then begin
    let tbl = Array.make (2 * min_slots) (-1) in
    t.tables.(pid) <- tbl;
    insert_absent tbl loc stamp
  end
  else begin
    let tbl = t.tables.(pid) in
    Array.unsafe_set tbl j loc;
    Array.unsafe_set tbl (j + 1) stamp
  end;
  let used = t.used.(pid) + 1 in
  t.used.(pid) <- used;
  let slots = Array.length t.tables.(pid) lsr 1 in
  if 2 * used > slots then rehash t ~pid ~slots:(2 * slots)

let access t ~pid ~loc ~is_read =
  ensure_loc t loc;
  if is_read then begin
    let stamp = stamp_of t ~pid ~loc in
    let tbl = t.tables.(pid) in
    let j = if tbl == empty_table then -1 else find tbl loc in
    if j >= 0 && Array.unsafe_get tbl j = loc then begin
      (* A held location: free if the copy is valid, else refresh it. *)
      let valid = Array.unsafe_get tbl (j + 1) = stamp in
      if not valid then Array.unsafe_set tbl (j + 1) stamp;
      not valid
    end
    else begin
      install t ~pid ~loc ~stamp j;
      true
    end
  end
  else begin
    (* Invalidate every copy of [loc] at once. *)
    t.gens.(loc) <- (t.gens.(loc) + 1) land gen_mask;
    true
  end

let drop_process t ~pid = t.epochs.(pid) <- t.epochs.(pid) + 1

let valid_set t ~pid =
  let acc = ref Intset.empty in
  let tbl = t.tables.(pid) in
  for i = 0 to (Array.length tbl lsr 1) - 1 do
    let loc = tbl.(2 * i) in
    if loc >= 0 && tbl.((2 * i) + 1) = stamp_of t ~pid ~loc then
      acc := Intset.add loc !acc
  done;
  !acc

let clear t =
  Array.fill t.epochs 0 t.n 0;
  Array.fill t.gens 0 (Array.length t.gens) 0;
  for pid = 0 to t.n - 1 do
    let tbl = t.tables.(pid) in
    if t.used.(pid) > 0 then Array.fill tbl 0 (Array.length tbl) (-1);
    t.used.(pid) <- 0
  done

let copy_into ~src ~dst =
  if src.n <> dst.n then invalid_arg "Cache.copy_into: process count mismatch";
  Array.blit src.epochs 0 dst.epochs 0 src.n;
  let sg = Array.length src.gens and dg = Array.length dst.gens in
  if dg < sg then dst.gens <- Array.copy src.gens
  else begin
    Array.blit src.gens 0 dst.gens 0 sg;
    Array.fill dst.gens sg (dg - sg) 0
  end;
  for pid = 0 to src.n - 1 do
    let s = src.tables.(pid) and d = dst.tables.(pid) in
    let sl = Array.length s and dl = Array.length d in
    if sl = dl then Array.blit s 0 d 0 sl
    else if sl < dl then begin
      (* Keep [dst]'s larger table: re-insert [src]'s entries into it. *)
      Array.fill d 0 dl (-1);
      for i = 0 to (sl lsr 1) - 1 do
        if s.(2 * i) >= 0 then insert_absent d s.(2 * i) s.((2 * i) + 1)
      done
    end
    else dst.tables.(pid) <- Array.copy s;
    dst.used.(pid) <- src.used.(pid)
  done

let copy t =
  let fresh = create ~n:t.n in
  copy_into ~src:t ~dst:fresh;
  fresh

let equal_for t t' ~pid = Intset.equal (valid_set t ~pid) (valid_set t' ~pid)
