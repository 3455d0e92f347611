type job = unit -> unit

(* The helpers' shared state. A pool of one has no helpers and none of
   it. A larger pool spawns its helpers at its first parallel map, so
   creating and shutting down a pool costs no domain until it is used. *)
type shared = {
  queue : job Queue.t;
  lock : Mutex.t;
  work_ready : Condition.t;
  mutable workers : unit Domain.t array; (* [||] until the first parallel map *)
  mutable closed : bool;
}

type t = { jobs : int; shared : shared option }

let worker s () =
  let rec next () =
    Mutex.lock s.lock;
    let rec wait () =
      if Queue.is_empty s.queue && not s.closed then begin
        Condition.wait s.work_ready s.lock;
        wait ()
      end
    in
    wait ();
    match Queue.take_opt s.queue with
    | Some job ->
        Mutex.unlock s.lock;
        job ();
        next ()
    | None ->
        (* Closed and drained. *)
        Mutex.unlock s.lock
  in
  next ()

let close s =
  Mutex.lock s.lock;
  let was_closed = s.closed in
  s.closed <- true;
  Condition.broadcast s.work_ready;
  let workers = s.workers in
  Mutex.unlock s.lock;
  if not was_closed then Array.iter Domain.join workers

let shutdown t = Option.iter close t.shared

let create ~jobs =
  let jobs = if jobs <= 0 then max 1 (Domain.recommended_domain_count ()) else jobs in
  let shared =
    if jobs = 1 then None
    else
      Some
        {
          queue = Queue.create ();
          lock = Mutex.create ();
          work_ready = Condition.create ();
          workers = [||];
          closed = false;
        }
  in
  { jobs; shared }

(* With [s.lock] held. *)
let spawn_workers t s =
  if Array.length s.workers = 0 then begin
    s.workers <- Array.init (t.jobs - 1) (fun _ -> Domain.spawn (worker s));
    (* Helper domains blocked on the condition variable would otherwise
       keep the runtime alive (or be killed mid-wait) at program exit. *)
    at_exit (fun () -> close s)
  end

let jobs t = t.jobs

let sequential n f =
  if n = 0 then [||]
  else begin
    let out = Array.make n (f 0) in
    for i = 1 to n - 1 do
      out.(i) <- f i
    done;
    out
  end

(* Auto chunk size: aim for a handful of chunks per worker so tiny
   tasks amortise the atomic fetch, while keeping enough chunks in
   flight that uneven work still balances. Coarse tasks come in small
   batches (n close to jobs), which auto-resolves to chunk 1. *)
let auto_chunk ~jobs n = max 1 (min 64 (n / (jobs * 4)))

(* One [drain] job per helper that can be busy, and the caller drains
   too; each result lands at its own index. *)
let parallel t s n f =
  let chunk = auto_chunk ~jobs:t.jobs n in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let pending = Atomic.make n in
  let failure = Atomic.make None in
  let fin_lock = Mutex.create () in
  let fin = Condition.create () in
  let rec drain () =
    let base = Atomic.fetch_and_add next chunk in
    if base < n then begin
      let hi = min n (base + chunk) in
      for i = base to hi - 1 do
        match f i with
        | v -> results.(i) <- Some v
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set failure None (Some (e, bt)))
      done;
      if Atomic.fetch_and_add pending (base - hi) = hi - base then begin
        Mutex.lock fin_lock;
        Condition.broadcast fin;
        Mutex.unlock fin_lock
      end;
      drain ()
    end
  in
  Mutex.lock s.lock;
  spawn_workers t s;
  for _ = 1 to min (t.jobs - 1) (n - 1) do
    Queue.add drain s.queue
  done;
  Condition.broadcast s.work_ready;
  Mutex.unlock s.lock;
  drain ();
  (* The caller ran out of fresh indices; tasks may still be in flight
     in helper domains. *)
  Mutex.lock fin_lock;
  while Atomic.get pending > 0 do
    Condition.wait fin fin_lock
  done;
  Mutex.unlock fin_lock;
  (match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  Array.map (function Some v -> v | None -> assert false) results

let map_array t n f =
  match t.shared with
  | Some s when n > 1 -> parallel t s n f
  | Some _ | None -> sequential n f

let map_list t f xs =
  let arr = Array.of_list xs in
  Array.to_list (map_array t (Array.length arr) (fun i -> f arr.(i)))
