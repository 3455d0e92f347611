(* Differential test: the flat generation/epoch cache (lib/memory/cache.ml)
   against the pre-optimisation Hashtbl reference (cache_reference.ml).

   Both implementations replay the same random sequence of accesses,
   crashes and clears; after every step the RMR verdict
   must agree, and the per-process valid sets must be extensionally
   equal. A narrow location mode clusters near 0, as real locks do; a
   wide mode gives each pid hundreds of distinct locations up to 10^5,
   so per-process tables rehash several times. Two fixed cases check
   the representation's costs: warm hot paths allocate nothing, and the
   footprint follows the copies held, not the locations touched. *)

module Cache = Rme_memory.Cache
module Reference = Cache_reference
module Intset = Rme_util.Intset

type op =
  | Access of { pid : int; loc : int; is_read : bool }
  | Drop of int
  | Clear

type scenario = { n : int; ops : op list }

let pp_op = function
  | Access { pid; loc; is_read } ->
      Printf.sprintf "%s p%d R%d" (if is_read then "read" else "write") pid loc
  | Drop pid -> Printf.sprintf "crash p%d" pid
  | Clear -> "clear"

let print_scenario s =
  Printf.sprintf "n=%d; %s" s.n (String.concat "; " (List.map pp_op s.ops))

(* Narrow mode: locations cluster near 0 (realistic contention) but
   occasionally jump further out. *)
let gen_loc =
  QCheck.Gen.(
    frequency [ (6, int_bound 15); (3, int_bound 300); (1, int_bound 1500) ])

(* Wide mode: mostly fresh locations from a range of 10^5, with a few
   hot ones so copies are also hit and invalidated. *)
let gen_loc_wide = QCheck.Gen.(frequency [ (1, int_bound 15); (5, int_bound 100_000) ])

let gen_ops ~n ~gen_loc ~len =
  QCheck.Gen.(
    let gen_op =
      frequency
        [
          ( 12,
            map3
              (fun pid loc is_read -> Access { pid; loc; is_read })
              (int_bound (n - 1)) gen_loc bool );
          (2, map (fun pid -> Drop pid) (int_bound (n - 1)));
          (1, return Clear);
        ]
    in
    list_size len gen_op)

let gen_scenario =
  QCheck.Gen.(
    int_range 1 6 >>= fun n ->
    gen_ops ~n ~gen_loc ~len:(int_bound 250) >>= fun ops -> return { n; ops })

(* 800 to 1500 ops over at most 2 pids, half of the runs without
   clears, so a pid collects hundreds of copies. *)
let gen_ops_wide ~n =
  QCheck.Gen.(
    gen_ops ~n ~gen_loc:gen_loc_wide ~len:(int_range 800 1500) >>= fun ops ->
    bool >>= fun keep_clears ->
    return (if keep_clears then ops else List.filter (fun op -> op <> Clear) ops))

let gen_scenario_wide =
  QCheck.Gen.(int_range 1 2 >>= fun n -> gen_ops_wide ~n >>= fun ops -> return { n; ops })

let arb_scenario = QCheck.make ~print:print_scenario gen_scenario
let arb_scenario_wide = QCheck.make ~print:print_scenario gen_scenario_wide

let check_agreement ~step flat reference =
  for pid = 0 to Cache.n flat - 1 do
    let fs = Cache.valid_set flat ~pid and rs = Reference.valid_set reference ~pid in
    if not (Intset.equal fs rs) then
      QCheck.Test.fail_reportf
        "step %d: valid_set p%d differs: flat=%s reference=%s" step pid
        (Format.asprintf "%a" Intset.pp fs)
        (Format.asprintf "%a" Intset.pp rs);
    (* has_copy must agree with membership in the valid set. *)
    Intset.iter
      (fun loc ->
        if not (Cache.has_copy flat ~pid ~loc) then
          QCheck.Test.fail_reportf "step %d: p%d R%d in valid_set but no copy"
            step pid loc)
      fs
  done

let run_scenario { n; ops } =
  let flat = Cache.create ~n and reference = Reference.create ~n in
  List.iteri
    (fun step op ->
      (match op with
      | Access { pid; loc; is_read } ->
          let fr = Cache.access flat ~pid ~loc ~is_read
          and rr = Reference.access reference ~pid ~loc ~is_read in
          if fr <> rr then
            QCheck.Test.fail_reportf
              "step %d (%s): RMR verdict differs: flat=%b reference=%b" step
              (pp_op op) fr rr
      | Drop pid ->
          Cache.drop_process flat ~pid;
          Reference.drop_process reference ~pid
      | Clear ->
          Cache.clear flat;
          Reference.clear reference);
      check_agreement ~step flat reference)
    ops;
  true

let prop_differential =
  QCheck.Test.make ~count:400 ~name:"flat cache =~ Hashtbl reference"
    arb_scenario run_scenario

let prop_differential_wide =
  QCheck.Test.make ~count:40 ~name:"flat cache =~ Hashtbl reference, wide locations"
    arb_scenario_wide run_scenario

(* Words allocated by [f ()], net of the measurement itself. *)
let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  let after = Gc.minor_words () in
  let baseline = Gc.minor_words () -. after in
  after -. before -. baseline

let test_hot_paths_allocate_nothing () =
  let n = 8 and locs = 300 in
  let c = Cache.create ~n in
  (* Warm up: every pid reads every location, so tables reach their
     final size and [gens] covers every location. *)
  for pid = 0 to n - 1 do
    for loc = 0 to locs - 1 do
      ignore (Cache.access c ~pid ~loc ~is_read:true)
    done
  done;
  let calls = 100_000 in
  let rmrs = ref 0 in
  let access () =
    for i = 1 to calls do
      if Cache.access c ~pid:(i mod n) ~loc:(i * 7 mod locs) ~is_read:(i mod 5 <> 0)
      then incr rmrs
    done
  in
  let has_copy () =
    for i = 1 to calls do
      if Cache.has_copy c ~pid:(i mod n) ~loc:(i * 11 mod locs) then incr rmrs
    done
  in
  Alcotest.(check (float 0.)) "access: words over 10^5 warm calls" 0. (minor_words_of access);
  Alcotest.(check (float 0.)) "has_copy: words over 10^5 warm calls" 0.
    (minor_words_of has_copy);
  Alcotest.(check bool) "calls did work" true (!rmrs > 0)

(* 1024 pids each read 16 locations scattered over 20k: the footprint,
   the per-location generations included, stays within a small number
   of words per copy held. *)
let test_footprint_follows_copies () =
  let n = 1024 and per_pid = 16 and locs = 20_000 and words_per_copy = 16 in
  let c = Cache.create ~n in
  let rng = Rme_util.Splitmix.create 2024 in
  for pid = 0 to n - 1 do
    for _ = 1 to per_pid do
      ignore (Cache.access c ~pid ~loc:(Rme_util.Splitmix.int rng locs) ~is_read:true)
    done
  done;
  let copies = ref 0 in
  for pid = 0 to n - 1 do
    copies := !copies + Intset.cardinal (Cache.valid_set c ~pid)
  done;
  let words = Obj.reachable_words (Obj.repr c) in
  if words > words_per_copy * !copies then
    Alcotest.failf "%d reachable words for %d copies (bound %d per copy)" words !copies
      words_per_copy

let suite =
  ( "cache-diff",
    [
      Qc.to_alcotest prop_differential;
      Qc.to_alcotest prop_differential_wide;
      Alcotest.test_case "warm access and has_copy allocate nothing" `Quick
        test_hot_paths_allocate_nothing;
      Alcotest.test_case "footprint follows copies held" `Quick
        test_footprint_follows_copies;
    ] )
