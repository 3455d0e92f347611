(* The pre-optimisation CC cache: a Hashtbl-of-Hashtbls transcription
   of the paper's definition, kept as the reference implementation for
   the differential test in test_cache_diff.ml. Deliberately naive —
   every operation allocates and drop_process walks the whole cache —
   so that its verdicts are easy to audit against the CC rule by eye.

   Do not use outside tests; the production implementation is
   lib/memory/cache.ml (flat generation/epoch stamping). *)

module Intset = Rme_util.Intset

type t = {
  n : int;
  by_pid : (int, unit) Hashtbl.t array; (* pid -> set of cached locs *)
  by_loc : (int, Intset.t) Hashtbl.t; (* loc -> pids holding copies *)
}

let create ~n =
  {
    n;
    by_pid = Array.init n (fun _ -> Hashtbl.create 16);
    by_loc = Hashtbl.create 64;
  }

let n t = t.n

let has_copy t ~pid ~loc = Hashtbl.mem t.by_pid.(pid) loc

let holders t loc =
  Option.value ~default:Intset.empty (Hashtbl.find_opt t.by_loc loc)

let install t ~pid ~loc =
  if not (has_copy t ~pid ~loc) then begin
    Hashtbl.replace t.by_pid.(pid) loc ();
    Hashtbl.replace t.by_loc loc (Intset.add pid (holders t loc))
  end

let invalidate_loc t ~loc =
  Intset.iter (fun pid -> Hashtbl.remove t.by_pid.(pid) loc) (holders t loc);
  Hashtbl.remove t.by_loc loc

let access t ~pid ~loc ~is_read =
  if is_read then begin
    let rmr = not (has_copy t ~pid ~loc) in
    install t ~pid ~loc;
    rmr
  end
  else begin
    invalidate_loc t ~loc;
    true
  end

let drop_process t ~pid =
  Hashtbl.iter
    (fun loc () ->
      let remaining = Intset.remove pid (holders t loc) in
      if Intset.is_empty remaining then Hashtbl.remove t.by_loc loc
      else Hashtbl.replace t.by_loc loc remaining)
    t.by_pid.(pid);
  Hashtbl.reset t.by_pid.(pid)

let valid_set t ~pid =
  Hashtbl.fold (fun loc () acc -> Intset.add loc acc) t.by_pid.(pid) Intset.empty

let clear t =
  Array.iter Hashtbl.reset t.by_pid;
  Hashtbl.reset t.by_loc
