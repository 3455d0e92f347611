module H = Rme_sim.Harness
module Lock_intf = Rme_sim.Lock_intf
module Rmr = Rme_memory.Rmr
module Pool = Rme_util.Pool
module Intset = Rme_util.Intset
module A = Rme_core.Adversary

(* ------------------------------------------------------------------ *)
(* Harness trial cells. *)

type cell = {
  lock : Lock_intf.factory;
  n : int;
  width : int;
  model : Rmr.model;
  seed : int;
  superpassages : int;
  crashes : H.crash_policy;
  allow_cs_crash : bool;
  max_crashes : int;
}

let cell ?(superpassages = 1) ?(crashes = H.No_crashes) ?(allow_cs_crash = false)
    ?(max_crashes = 1) ~seed ~n ~width ~model lock =
  { lock; n; width; model; seed; superpassages; crashes; allow_cs_crash; max_crashes }

type cell_result = {
  ok : bool;
  timed_out : bool;
  max_passage_rmr : int;
  mean_passage_rmr : float;
  total_crashes : int;
  total_rmrs : int;
  cs_entries : int;
  max_bypass : int;
}

(* The memo key is the cell with the factory replaced by its name
   (factories are closures; names are unique, including the
   [katzan-morrison-b<arity>] variants). Everything else is ints,
   floats and lists, so structural equality and [Hashtbl.hash] apply. *)
type key = {
  k_lock : string;
  k_n : int;
  k_width : int;
  k_model : Rmr.model;
  k_seed : int;
  k_sp : int;
  k_crashes : H.crash_policy;
  k_cs_crash : bool;
  k_max_crashes : int;
}

let key_of_cell c =
  {
    k_lock = c.lock.Lock_intf.name;
    k_n = c.n;
    k_width = c.width;
    k_model = c.model;
    k_seed = c.seed;
    k_sp = c.superpassages;
    k_crashes = c.crashes;
    k_cs_crash = c.allow_cs_crash;
    k_max_crashes = c.max_crashes;
  }

(* The harness's default step budget bounds every cell, so a stuck lock
   ends as a deterministic [timed_out] result instead of hanging. *)
let compute_cell c =
  let cfg =
    {
      (H.default_config ~n:c.n ~width:c.width c.model) with
      H.superpassages = c.superpassages;
      policy = H.Random_policy c.seed;
      crashes = c.crashes;
      allow_cs_crash = c.allow_cs_crash;
      max_crashes_per_process = c.max_crashes;
    }
  in
  let r = H.run cfg c.lock in
  {
    ok = r.H.ok;
    timed_out = r.H.timed_out;
    max_passage_rmr = r.H.max_passage_rmr;
    mean_passage_rmr = r.H.mean_passage_rmr;
    total_crashes = r.H.total_crashes;
    total_rmrs =
      Array.fold_left (fun acc (p : H.proc_stats) -> acc + p.H.total_rmrs) 0 r.H.procs;
    cs_entries =
      Array.fold_left (fun acc (p : H.proc_stats) -> acc + p.H.cs_entries) 0 r.H.procs;
    max_bypass =
      Array.fold_left (fun acc (p : H.proc_stats) -> max acc p.H.max_bypass) 0 r.H.procs;
  }

(* ------------------------------------------------------------------ *)
(* Adversary cells. *)

type adv_cell = {
  a_lock : Lock_intf.factory;
  a_n : int;
  a_width : int;
  a_model : Rmr.model;
  a_k : int option;
}

let adv_cell ?k ~n ~width ~model lock =
  { a_lock = lock; a_n = n; a_width = width; a_model = model; a_k = k }

type adv_result = { rounds : int; bound : float; survivors : int }

type adv_key = {
  ak_lock : string;
  ak_n : int;
  ak_width : int;
  ak_model : Rmr.model;
  ak_k : int;
}

let adv_config c =
  let cfg = A.default_config ~n:c.a_n ~width:c.a_width c.a_model in
  match c.a_k with Some k -> { cfg with A.k } | None -> cfg

(* Key on the *effective* threshold so that an explicit [k] equal to the
   default (A2's first column vs E3) shares the memo entry. *)
let adv_key_of c =
  {
    ak_lock = c.a_lock.Lock_intf.name;
    ak_n = c.a_n;
    ak_width = c.a_width;
    ak_model = c.a_model;
    ak_k = (adv_config c).A.k;
  }

let compute_adv c =
  let r = A.run (adv_config c) c.a_lock in
  {
    rounds = r.A.rounds_completed;
    bound = r.A.predicted_lower_bound;
    survivors = Intset.cardinal r.A.survivors;
  }

(* ------------------------------------------------------------------ *)
(* The engine. *)

type counters = { computed : int; cached : int }

type t = {
  pool : Pool.t;
  guard : Mutex.t;  (* protects the memos and the counters. *)
  memo : (key, cell_result) Hashtbl.t;
  adv_memo : (adv_key, adv_result) Hashtbl.t;
  progress : bool;
  mutable n_computed : int;
  mutable n_cached : int;
}

let create ?(jobs = 1) ?(progress = false) () =
  {
    pool = Pool.create ~jobs;
    guard = Mutex.create ();
    memo = Hashtbl.create 256;
    adv_memo = Hashtbl.create 64;
    progress;
    n_computed = 0;
    n_cached = 0;
  }

let jobs t = Pool.jobs t.pool
let shutdown t = Pool.shutdown t.pool

let counters t =
  Mutex.lock t.guard;
  let c = { computed = t.n_computed; cached = t.n_cached } in
  Mutex.unlock t.guard;
  c

let pp_eta seconds =
  if seconds >= 90.0 then Printf.sprintf "%.0fm%02.0fs" (seconds /. 60.0) (Float.rem seconds 60.0)
  else Printf.sprintf "%.0fs" seconds

(* A live progress line on stderr for one batch of [total] requests, of
   which [nw] are computed: [tick ()] counts a computed cell (from any
   domain) and redraws at most every 0.1 s; [finish ()] prints the
   final line. *)
let progress_line ~what ~total ~nw =
  let done_count = Atomic.make 0 in
  let guard = Mutex.create () in
  let t0 = Unix.gettimeofday () in
  let last_printed = ref neg_infinity in
  let draw ~final =
    let now = Unix.gettimeofday () in
    Mutex.lock guard;
    if final || now -. !last_printed >= 0.1 then begin
      last_printed := now;
      let d = Atomic.get done_count in
      let eta =
        if d > 0 && d < nw then
          Printf.sprintf " eta %s" (pp_eta ((now -. t0) /. float_of_int d *. float_of_int (nw - d)))
        else ""
      in
      Printf.eprintf "\r[rme] %s cells %d/%d (computed %d/%d, memo %d)%s%s%!" what
        (total - nw + d)
        total d nw (total - nw) eta
        (if final then "\n" else "")
    end;
    Mutex.unlock guard
  in
  let tick () =
    Atomic.incr done_count;
    draw ~final:false
  in
  (tick, fun () -> draw ~final:true)

let commit t table k r =
  Mutex.lock t.guard;
  Hashtbl.replace table k r;
  t.n_computed <- t.n_computed + 1;
  Mutex.unlock t.guard

(* Compute the batch's missing unique keys in parallel over the pool.
   The work list keeps first-occurrence order, so the pool sees cells in
   canonical order; results merge by key, so the memo content is
   independent of domain interleaving. *)
let prefetch_memo t table key_of compute ~what cells =
  let total = List.length cells in
  let seen = Hashtbl.create 16 in
  Mutex.lock t.guard;
  let missing =
    List.filter_map
      (fun c ->
        let k = key_of c in
        if Hashtbl.mem table k || Hashtbl.mem seen k then None
        else begin
          Hashtbl.add seen k ();
          Some (k, c)
        end)
      cells
  in
  let work = Array.of_list missing in
  let nw = Array.length work in
  t.n_cached <- t.n_cached + total - nw;
  Mutex.unlock t.guard;
  let tick, finish =
    if t.progress && nw > 0 then progress_line ~what ~total ~nw
    else (ignore, ignore)
  in
  ignore
    (Pool.map_array t.pool nw (fun i ->
         let k, c = work.(i) in
         commit t table k (compute c);
         tick ()));
  finish ()

let get_memo t table key_of compute c =
  let k = key_of c in
  Mutex.lock t.guard;
  let hit = Hashtbl.find_opt table k in
  Mutex.unlock t.guard;
  match hit with
  | Some r -> r
  | None ->
      let r = compute c in
      commit t table k r;
      r

let prefetch t cells = prefetch_memo t t.memo key_of_cell compute_cell ~what:"trial" cells
let get t c = get_memo t t.memo key_of_cell compute_cell c

let prefetch_adv t cells =
  prefetch_memo t t.adv_memo adv_key_of compute_adv ~what:"adversary" cells

let get_adv t c = get_memo t t.adv_memo adv_key_of compute_adv c
let map t f xs = Pool.map_list t.pool f xs
