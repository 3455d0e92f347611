module H = Rme_sim.Harness
module Lock_intf = Rme_sim.Lock_intf
module Pool = Rme_util.Pool
module Intset = Rme_util.Intset
module A = Rme_core.Adversary

(* A cell is a lock and the config its driver runs it under. Engine
   configs never carry a critical-section body ([cs = None]), so the memo
   key [(lock name, config)] is plain data: structural equality and
   [Hashtbl.hash] apply. Lock names are unique, including the
   [katzan-morrison-b<arity>] variants. *)
type 'config cell_of = { lock : Lock_intf.factory; config : 'config }

let key c = (c.lock.Lock_intf.name, c.config)

(* ------------------------------------------------------------------ *)
(* Harness trial cells. *)

type cell = H.config cell_of

let cell ?(superpassages = 1) ?(crashes = H.No_crashes) ?(allow_cs_crash = false)
    ?(max_crashes = 1) ~seed ~n ~width ~model lock =
  {
    lock;
    config =
      {
        (H.default_config ~n ~width model) with
        H.superpassages;
        policy = H.Random_policy seed;
        crashes;
        allow_cs_crash;
        max_crashes_per_process = max_crashes;
      };
  }

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

let compute_cell c =
  let r = H.run c.config c.lock in
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

type adv_cell = A.config cell_of

(* The threshold is resolved here, so an explicit [k] equal to the
   default (A2's first column vs E3) shares the memo entry. *)
let adv_cell ?k ~n ~width ~model lock =
  let config = A.default_config ~n ~width model in
  { lock; config = (match k with Some k -> { config with A.k } | None -> config) }

type adv_result = { rounds : int; bound : float; survivors : int }

let compute_adv c =
  let r = A.run c.config c.lock in
  {
    rounds = r.A.rounds_completed;
    bound = r.A.predicted_lower_bound;
    survivors = Intset.cardinal r.A.survivors;
  }

(* ------------------------------------------------------------------ *)
(* The engine. *)

type counters = { computed : int; cached : int }

type t = {
  jobs : int;
  guard : Mutex.t;  (* protects the memos and the counters. *)
  memo : (string * H.config, cell_result) Hashtbl.t;
  adv_memo : (string * A.config, adv_result) Hashtbl.t;
  mutable n_computed : int;
  mutable n_cached : int;
}

let create ?(jobs = 1) () =
  {
    jobs = (if jobs <= 0 then max 1 (Domain.recommended_domain_count ()) else jobs);
    guard = Mutex.create ();
    memo = Hashtbl.create 16;
    adv_memo = Hashtbl.create 16;
    n_computed = 0;
    n_cached = 0;
  }

let jobs t = t.jobs
let shutdown _ = ()

let counters t =
  Mutex.lock t.guard;
  let c = { computed = t.n_computed; cached = t.n_cached } in
  Mutex.unlock t.guard;
  c

let commit t table k r =
  Mutex.lock t.guard;
  Hashtbl.replace table k r;
  t.n_computed <- t.n_computed + 1;
  Mutex.unlock t.guard

(* Compute the batch's missing unique keys in one parallel map. The
   work list keeps first-occurrence order, so the map sees cells in
   canonical order; results merge by key, so the memo content is
   independent of domain interleaving. *)
let prefetch_memo t table compute cells =
  let total = List.length cells in
  let seen = Hashtbl.create 16 in
  Mutex.lock t.guard;
  let missing =
    List.filter_map
      (fun c ->
        let k = key c in
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
  ignore
    (Pool.map_array ~jobs:t.jobs nw (fun i ->
         let k, c = work.(i) in
         commit t table k (compute c)))

let get_memo t table compute c =
  let k = key c in
  Mutex.lock t.guard;
  let hit = Hashtbl.find_opt table k in
  Mutex.unlock t.guard;
  match hit with
  | Some r -> r
  | None ->
      let r = compute c in
      commit t table k r;
      r

let prefetch t cells = prefetch_memo t t.memo compute_cell cells
let get t c = get_memo t t.memo compute_cell c
let prefetch_adv t cells = prefetch_memo t t.adv_memo compute_adv cells
let get_adv t c = get_memo t t.adv_memo compute_adv c
let map t f xs = Pool.map_list ~jobs:t.jobs f xs
