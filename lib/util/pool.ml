type job = unit -> unit

type t = {
  jobs : int;
  queue : job Queue.t;
  lock : Mutex.t;
  work_ready : Condition.t;
  mutable workers : unit Domain.t array;
  mutable closed : bool;
}

let worker t () =
  let rec next () =
    Mutex.lock t.lock;
    let rec wait () =
      if Queue.is_empty t.queue && not t.closed then begin
        Condition.wait t.work_ready t.lock;
        wait ()
      end
    in
    wait ();
    match Queue.take_opt t.queue with
    | Some job ->
        Mutex.unlock t.lock;
        job ();
        next ()
    | None ->
        (* Closed and drained. *)
        Mutex.unlock t.lock
  in
  next ()

let shutdown t =
  Mutex.lock t.lock;
  let was_closed = t.closed in
  t.closed <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.lock;
  if not was_closed then Array.iter Domain.join t.workers

let create ~jobs =
  let jobs = if jobs <= 0 then max 1 (Domain.recommended_domain_count ()) else jobs in
  let t =
    {
      jobs;
      queue = Queue.create ();
      lock = Mutex.create ();
      work_ready = Condition.create ();
      workers = [||];
      closed = false;
    }
  in
  if jobs > 1 then begin
    t.workers <- Array.init (jobs - 1) (fun _ -> Domain.spawn (worker t));
    (* Helper domains blocked on the condition variable would otherwise
       keep the runtime alive (or be killed mid-wait) at program exit. *)
    at_exit (fun () -> shutdown t)
  end;
  t

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

let map_array t n f =
  if n <= 1 || t.jobs = 1 then sequential n f
  else begin
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
    Mutex.lock t.lock;
    for _ = 1 to min (t.jobs - 1) (n - 1) do
      Queue.add drain t.queue
    done;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.lock;
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
  end

let map_list t f xs =
  let arr = Array.of_list xs in
  Array.to_list (map_array t (Array.length arr) (fun i -> f arr.(i)))
