(* Auto chunk size: aim for a handful of chunks per worker so tiny
   tasks amortise the atomic fetch, while keeping enough chunks in
   flight that uneven work still balances. Coarse tasks come in small
   batches (n close to jobs), which auto-resolves to chunk 1. *)
let auto_chunk ~jobs n = max 1 (min 64 (n / (jobs * 4)))

(* The caller and its helpers claim index chunks from one atomic
   counter; each result lands at its own index. *)
let parallel ~jobs n f =
  let chunk = auto_chunk ~jobs n in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let failure = Atomic.make None in
  let rec drain () =
    let base = Atomic.fetch_and_add next chunk in
    if base < n then begin
      for i = base to min n (base + chunk) - 1 do
        match f i with
        | v -> results.(i) <- Some v
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set failure None (Some (e, bt)))
      done;
      drain ()
    end
  in
  let helpers = ref [] in
  (try
     for _ = 2 to min jobs n do
       helpers := Domain.spawn drain :: !helpers
     done
   with e ->
     (* Hand out no more work, so the helpers already running stop
        after their current chunk. *)
     let bt = Printexc.get_raw_backtrace () in
     Atomic.set next n;
     List.iter Domain.join !helpers;
     Printexc.raise_with_backtrace e bt);
  drain ();
  List.iter Domain.join !helpers;
  (match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  Array.map (function Some v -> v | None -> assert false) results

let map_array ~jobs n f = if jobs > 1 && n > 1 then parallel ~jobs n f else Array.init n f

let map_list ~jobs f xs =
  let arr = Array.of_list xs in
  Array.to_list (map_array ~jobs (Array.length arr) (fun i -> f arr.(i)))
