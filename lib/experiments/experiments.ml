module Table = Rme_util.Table
module Intset = Rme_util.Intset
module Splitmix = Rme_util.Splitmix
module Bitword = Rme_util.Bitword
module H = Rme_sim.Harness
module Lock_intf = Rme_sim.Lock_intf
module Rmr = Rme_memory.Rmr
module Registry = Rme_locks.Registry
module Bounds = Rme_core.Bounds
module Hiding = Rme_core.Hiding
module Km = Rme_locks.Katzan_morrison

type outcome = Table.t list

(* Every table is described once, as rows of slots: literal text, or a
   memo cell with a formatter that fills one or more columns from the
   cell's result. [render] prefetches every slot's cell (one parallel
   batch per cell kind), then fills the rows from the memo in table
   order — so tables are bit-identical to a sequential run, a shown cell
   is always a prefetched one, and cells shared between experiments are
   computed once per engine. *)

type slot =
  | Text of string
  | Trial of Engine.cell * (Engine.cell_result -> string list)
  | Adv of Engine.adv_cell * (Engine.adv_result -> string list)

type spec = { title : string; columns : string list; rows : slot list list }

let render eng specs =
  let slots = List.concat_map (fun s -> List.concat s.rows) specs in
  Engine.prefetch eng
    (List.filter_map (function Trial (c, _) -> Some c | _ -> None) slots);
  Engine.prefetch_adv eng
    (List.filter_map (function Adv (c, _) -> Some c | _ -> None) slots);
  let fill = function
    | Text s -> [ s ]
    | Trial (c, f) -> f (Engine.get eng c)
    | Adv (c, f) -> f (Engine.get_adv eng c)
  in
  List.map
    (fun s ->
      let t = Table.create ~title:s.title ~columns:s.columns in
      List.iter (fun row -> Table.add_row t (List.concat_map fill row)) s.rows;
      t)
    specs

let texts = List.map (fun s -> Text s)
let int_text i = Text (string_of_int i)

(* The most common slot: a trial cell's max RMRs per passage. *)
let max_rmr c =
  Trial
    ( c,
      fun r -> [ (if r.Engine.ok then string_of_int r.Engine.max_passage_rmr else "FAIL") ]
    )

(* ------------------------------------------------------------------ *)
(* E1: the RMR landscape across algorithms (the measured version of the
   paper's §1.2 comparison). *)

let theory_of (factory : Lock_intf.factory) ~n ~w =
  match factory.Lock_intf.name with
  | "tas" | "ticket" -> "O(n) worst"
  | "mcs" -> "O(1)"
  | "peterson-tree" -> Printf.sprintf "O(log n)=%.0f" (Bounds.log_n ~n)
  | "rcas" | "rstamp" -> "O(n)"
  | "rtournament" -> Printf.sprintf "O(log n)=%.0f" (Bounds.log_n ~n)
  | "katzan-morrison" -> Printf.sprintf "O(log_w n)=%.0f" (Bounds.km_upper ~n ~w)
  | "sublog-tournament" ->
      Printf.sprintf "O(log n/llog n)=%.1f" (Bounds.log_over_loglog ~n)
  | "clh" -> "O(1) (CC)"
  | "epoch-mcs" -> "O(1) (system-wide)"
  | _ -> "?"

let e1_lock_landscape ~engine ?(seed = 42) ?(width = 16) ?(ns = [ 2; 4; 8; 16; 32; 64 ])
    () =
  let n_max = List.fold_left max 2 ns in
  render engine
    (List.map
       (fun model ->
         {
           title =
             Printf.sprintf
               "E1 (%s): max RMRs per passage, crash-free, w=%d (rows: lock; cols: n)"
               (Rmr.model_name model) width;
           columns =
             ("lock" :: List.map (Printf.sprintf "n=%d") ns) @ [ "theory (largest n)" ];
           rows =
             List.map
               (fun (factory : Lock_intf.factory) ->
                 (Text factory.Lock_intf.name
                 :: List.map
                      (fun n ->
                        if Lock_intf.supports factory ~n ~width then
                          max_rmr
                            (Engine.cell ~superpassages:2 ~seed ~n ~width ~model factory)
                        else Text "n/a")
                      ns)
                 @ [ Text (theory_of factory ~n:n_max ~w:width) ])
               Registry.all;
         })
       Rmr.all_models)

(* ------------------------------------------------------------------ *)
(* E2: the word-size tradeoff of the Katzan–Morrison lock. *)

let e2_word_size_tradeoff ~engine ?(seed = 7) ?(ns = [ 16; 64; 256; 1024 ])
    ?(ws = [ 2; 4; 8; 16; 32; 62 ]) () =
  render engine
    (List.map
       (fun model ->
         {
           title =
             Printf.sprintf
               "E2 (%s): Katzan-Morrison max RMRs per passage vs word size (theory: \
                ceil(log_w n) levels)"
               (Rmr.model_name model);
           columns =
             "n" :: List.concat_map (fun w -> [ Printf.sprintf "w=%d" w; "lvls" ]) ws;
           rows =
             List.map
               (fun n ->
                 int_text n
                 :: List.concat_map
                      (fun w ->
                        [
                          max_rmr (Engine.cell ~seed ~n ~width:w ~model Km.factory);
                          int_text (Bounds.tree_levels ~n ~b:(min w n));
                        ])
                      ws)
               ns;
         })
       Rmr.all_models)

(* ------------------------------------------------------------------ *)
(* E3: rounds forced by the lower-bound adversary. *)

let e3_adversary_bound ~engine ?(ns = [ 64; 256; 1024; 4096 ]) ?(ws = [ 4; 8; 16; 32 ])
    () =
  let summary (r : Engine.adv_result) =
    [
      string_of_int r.Engine.rounds;
      Printf.sprintf "%.1f" r.Engine.bound;
      string_of_int r.Engine.survivors;
    ]
  in
  render engine
    (List.concat_map
       (fun model ->
         List.map
           (fun (factory : Lock_intf.factory) ->
             {
               title =
                 Printf.sprintf
                   "E3 (%s, %s): adversary rounds (= RMRs forced on survivors) vs \
                    Theorem 1 bound"
                   factory.Lock_intf.name (Rmr.model_name model);
               columns =
                 "n"
                 :: List.concat_map
                      (fun w -> [ Printf.sprintf "w=%d" w; "bound"; "surv" ])
                      ws;
               rows =
                 List.map
                   (fun n ->
                     int_text n
                     :: List.concat_map
                          (fun w ->
                            if Lock_intf.supports factory ~n ~width:w then
                              [ Adv (Engine.adv_cell ~n ~width:w ~model factory, summary) ]
                            else texts [ "n/a"; "-"; "-" ])
                          ws)
                   ns;
             })
           Registry.recoverable)
       Rmr.all_models)

(* ------------------------------------------------------------------ *)
(* E4: the Process-Hiding Lemma with the paper's constants. *)

let e4_families : (string * (y:int -> Rme_core.Partite.edge -> int)) list =
  [
    ("fas (last writer)", fun ~y e ->
        if Array.length e = 0 then y else e.(Array.length e - 1) mod 2);
    ("or (KM bit-set, w=1)", fun ~y e ->
        Array.fold_left (fun acc p -> acc lor (1 lsl (p mod 2))) y e);
    ("faa (wrap w=1)", fun ~y e ->
        Array.fold_left (fun acc p -> Bitword.add ~width:1 acc (1 + (p mod 3))) y e);
    ("parity (arbitrary rmw)", fun ~y e ->
        Array.fold_left (fun acc p -> acc lxor (p land 1)) y e);
  ]

type hiding_trial = {
  solution : Hiding.t;
  verified : (unit, string) result;
  min_hidden : int;
  query_error : string option;
}

let hiding_trial p ~m ~f ~seed ~trials =
  let gsize = Hiding.min_group_size p in
  let groups = Array.init m (fun i -> Array.init gsize (fun j -> (i * gsize) + j)) in
  let solution = Hiding.solve p ~groups ~f ~y0:0 in
  let rng = Splitmix.create seed in
  let v = Hiding.all_v solution in
  let budget = int_of_float (p.Hiding.delta *. float_of_int (Intset.cardinal v)) in
  let pool = Array.concat (Array.to_list groups) in
  let min_hidden = ref max_int and query_error = ref None in
  for _ = 1 to trials do
    Splitmix.shuffle rng pool;
    let d =
      Array.sub pool 0 (Splitmix.int rng (budget + 1))
      |> Array.fold_left (fun acc x -> Intset.add x acc) Intset.empty
    in
    let hs = Hiding.query solution ~d in
    min_hidden := min !min_hidden (List.length hs);
    match (Hiding.verify_query solution ~f ~d hs, !query_error) with
    | Error e, None -> query_error := Some e
    | Ok (), _ | Error _, Some _ -> ()
  done;
  {
    solution;
    verified = Hiding.verify solution ~f;
    min_hidden = !min_hidden;
    query_error = !query_error;
  }

let e4_hiding_lemma ~engine ?(seed = 99) ?(m = 3) ?(trials = 50) () =
  let p = Hiding.paper_params ~ell:1 ~delta:1.0 in
  let gsize = Hiding.min_group_size p in
  (* Each family is an independent solve + adversarial-query trial run
     (with its own RNG from [seed]): one parallel task per family. *)
  let rows =
    Engine.map engine
      (fun (name, f) ->
        let r = hiding_trial p ~m ~f ~seed ~trials in
        texts
          [
            name;
            string_of_int (Array.length r.solution.Hiding.groups);
            (match r.verified with Ok () -> "ok" | Error e -> "FAIL: " ^ e);
            string_of_int r.min_hidden;
            Printf.sprintf "%.1f" (float_of_int m /. 2.0);
            (if r.query_error = None then "ok" else "FAIL");
          ])
      e4_families
  in
  render engine
    [
      {
        title =
          Printf.sprintf
            "E4: Process-Hiding Lemma, paper constants (ell=1, delta=1, k=%d, \
             subgroup=%d, groups of %d, m=%d); %d random discovery sets each"
            p.Hiding.k p.Hiding.subgroup_size gsize m trials;
        columns =
          [ "operation family"; "solved"; "verify"; "min |I_D|"; "m/2"; "query verify" ];
        rows;
      };
    ]

(* ------------------------------------------------------------------ *)
(* E5: recovery cost under increasing crash rates. *)

let e5_crash_cost ~engine ?(seed = 5) ?(n = 8)
    ?(probs = [ 0.0; 0.01; 0.02; 0.05; 0.1; 0.2 ]) () =
  let superpassages = 4 in
  (* RMRs per super-passage: the true cost of recovery — crashes split
     super-passages into more (cheaper) passages, so the per-passage
     mean alone understates the recovery overhead. *)
  let cost (r : Engine.cell_result) =
    if r.Engine.ok then
      let work = r.Engine.total_rmrs - r.Engine.cs_entries in
      [
        Printf.sprintf "%.1f ~ %.1f /%d"
          (float_of_int work /. float_of_int (n * superpassages))
          r.Engine.mean_passage_rmr r.Engine.total_crashes;
      ]
    else [ "FAIL" ]
  in
  render engine
    (List.map
       (fun model ->
         {
           title =
             Printf.sprintf
               "E5 (%s): recoverable locks under crashes, n=%d, w=16 (cells: mean RMRs \
                per super-passage ~ mean per passage / crashes)"
               (Rmr.model_name model) n;
           columns = "lock" :: List.map (Printf.sprintf "p=%.2f") probs;
           rows =
             List.map
               (fun (factory : Lock_intf.factory) ->
                 Text factory.Lock_intf.name
                 :: List.map
                      (fun prob ->
                        let crashes =
                          if prob = 0.0 then H.No_crashes
                          else H.Crash_prob { prob; seed = seed * 31 }
                        in
                        Trial
                          ( Engine.cell ~superpassages ~crashes ~allow_cs_crash:true
                              ~max_crashes:6 ~seed ~n ~width:16 ~model factory,
                            cost ))
                      probs)
               Registry.recoverable;
         })
       Rmr.all_models)

(* ------------------------------------------------------------------ *)
(* E6: CC vs DSM side by side. The seed and shape deliberately match
   E1's n=32 column, so when both experiments run on one engine every
   E6 cell is a memo-cache hit. *)

let e6_model_comparison ~engine ?(seed = 42) ?(n = 32) () =
  let max_mean (r : Engine.cell_result) =
    if r.Engine.ok then
      [
        string_of_int r.Engine.max_passage_rmr;
        Printf.sprintf "%.1f" r.Engine.mean_passage_rmr;
      ]
    else [ "FAIL"; "-" ]
  in
  render engine
    [
      {
        title =
          Printf.sprintf
            "E6: CC vs DSM, n=%d, w=16, crash-free (max / mean RMRs per passage)" n;
        columns = [ "lock"; "CC max"; "CC mean"; "DSM max"; "DSM mean" ];
        rows =
          List.map
            (fun (factory : Lock_intf.factory) ->
              Text factory.Lock_intf.name
              :: List.concat_map
                   (fun model ->
                     if Lock_intf.supports factory ~n ~width:16 then
                       [
                         Trial
                           ( Engine.cell ~superpassages:2 ~seed ~n ~width:16 ~model factory,
                             max_mean );
                       ]
                     else texts [ "n/a"; "-" ])
                   [ Rmr.Cc; Rmr.Dsm ])
            Registry.all;
      };
    ]

(* ------------------------------------------------------------------ *)
(* E7: the min(log_w n, log n / log log n) crossover. *)

let e7_crossover ~engine ?(n = 65536) ?(ws = [ 2; 3; 4; 6; 8; 12; 16; 24; 32; 48; 62 ])
    () =
  let lll = Bounds.log_over_loglog ~n in
  (* Measured companion: KM at a smaller n across the crossover; at
     n_meas = 4096, log2 n = 12 lies inside the w sweep. The seed
     matches E2, so at n_meas = 1024 the shared (n, w) cells
     cache-hit. *)
  let n_meas = min n 4096 in
  render engine
    [
      {
        title =
          Printf.sprintf
            "E7: Theorem 1 crossover at n=%d (log2 n = %.0f): bound = min(log_w n, log \
             n/log log n)"
            n (Bounds.log_n ~n);
        columns = [ "w"; "log_w n"; "log n/log log n"; "Theorem 1 bound"; "regime" ];
        rows =
          List.map
            (fun w ->
              let lwn = Bounds.km_upper ~n ~w in
              texts
                [
                  string_of_int w;
                  Printf.sprintf "%.2f" lwn;
                  Printf.sprintf "%.2f" lll;
                  Printf.sprintf "%.2f" (Bounds.theorem1_lower ~n ~w);
                  (if lwn <= lll then "word-size term" else "log/loglog term");
                ])
            ws;
      };
      {
        title =
          Printf.sprintf "E7b: measured KM (CC) max passage RMRs across the crossover, n=%d"
            n_meas;
        columns = [ "w"; "measured max RMR"; "ceil(log_w n)"; "bound" ];
        rows =
          List.map
            (fun w ->
              [
                int_text w;
                max_rmr (Engine.cell ~seed:7 ~n:n_meas ~width:w ~model:Rmr.Cc Km.factory);
                Text (Printf.sprintf "%.0f" (Bounds.km_upper ~n:n_meas ~w));
                Text (Printf.sprintf "%.2f" (Bounds.theorem1_lower ~n:n_meas ~w));
              ])
            [ 2; 4; 8; 10; 16; 32 ];
      };
    ]

(* ------------------------------------------------------------------ *)
(* E8: the system-wide crash separation (paper conclusion / [11], [14]):
   under simultaneous crashes with epoch support, O(1) RMRs per passage
   are possible — the lower bound inherently needs individual crashes. *)

let e8_system_wide ~engine ?(seed = 3) ?(ns = [ 4; 8; 16; 32; 64 ]) () =
  let rows =
    [
      ("epoch-mcs, crash-free", H.No_crashes);
      ("epoch-mcs, 2 system crashes", H.System_crash_script [ 10; 120 ]);
      ("epoch-mcs, 5 system crashes", H.System_crash_script [ 5; 30; 80; 160; 300 ]);
    ]
  in
  render engine
    [
      {
        title =
          "E8: system-wide crash model — epoch-MCS max RMRs per passage stays O(1) in n \
           despite crashes (vs Theorem 1's growth under individual crashes)";
        columns = "lock / crashes" :: List.map (Printf.sprintf "n=%d") ns;
        rows =
          List.map
            (fun (name, crashes) ->
              Text name
              :: List.map
                   (fun n ->
                     max_rmr
                       (Engine.cell ~superpassages:3 ~crashes ~allow_cs_crash:true ~seed ~n
                          ~width:16 ~model:Rmr.Cc Rme_locks.Epoch_mcs.factory))
                   ns)
            rows
          (* Companion: the individual-crash adversary bound at the same n. *)
          @ [
              texts
                ("Theorem 1 bound (individual crashes)"
                :: List.map
                     (fun n -> Printf.sprintf "%.1f" (Bounds.theorem1_lower ~n ~w:16))
                     ns);
            ];
      };
    ]

(* ------------------------------------------------------------------ *)
(* A1: ablation — Katzan–Morrison tree arity below the word size. The
   design choice b = Θ(w) is what converts word width into fewer levels;
   forcing smaller arity at the same w gives strictly more levels. *)

let a1_arity_ablation ~engine ?(seed = 9) ?(n = 256) ?(arities = [ 2; 4; 8; 16; 32 ]) () =
  render engine
    [
      {
        title =
          Printf.sprintf
            "A1 (ablation): KM tree arity at fixed w=32, n=%d — arity below the word \
             size wastes the word (max RMRs per passage)"
            n;
        columns = [ "arity b"; "levels"; "CC max"; "DSM max" ];
        rows =
          List.map
            (fun b ->
              [ int_text b; int_text (Bounds.tree_levels ~n ~b) ]
              @ List.map
                  (fun model ->
                    max_rmr
                      (Engine.cell ~seed ~n ~width:32 ~model (Km.factory_with_arity b)))
                  [ Rmr.Cc; Rmr.Dsm ])
            arities;
      };
    ]

(* A2: ablation — the adversary's contention threshold k (the paper's
   w^d). Larger k merges more processes per hiding group: rounds shrink
   by at most a constant factor (log_{k} n vs log_w n), never below the
   bound. At w=16 the first column, k=17, is the default threshold —
   the same cell E3 computes. *)

let a2_k_ablation ~engine ?(n = 1024) ?(w = 16) ?(ks = [ 17; 24; 32; 64; 128 ]) () =
  render engine
    [
      {
        title =
          Printf.sprintf
            "A2 (ablation): adversary contention threshold k at n=%d, w=%d (rounds forced; \
             Theorem 1 bound %.2f)"
            n w (Bounds.theorem1_lower ~n ~w);
        columns = "lock" :: List.map (Printf.sprintf "k=%d") ks;
        rows =
          List.map
            (fun (factory : Lock_intf.factory) ->
              Text factory.Lock_intf.name
              :: List.map
                   (fun k ->
                     if Lock_intf.supports factory ~n ~width:w then
                       Adv
                         ( Engine.adv_cell ~k ~n ~width:w ~model:Rmr.Cc factory,
                           fun r -> [ string_of_int r.Engine.rounds ] )
                     else Text "n/a")
                   ks)
            Registry.recoverable;
      };
    ]

(* A3: ablation — contention adaptivity. Katzan–Morrison's full
   algorithm is adaptive: O(min(k, log_w n)) for k concurrent
   contenders. Our implementation is the non-adaptive O(log_w n) core
   (DESIGN.md documents the simplification): a solo passage still climbs
   every level. This ablation measures that gap honestly. The contended
   cells share E2's (n=256, w) sweep. *)

let a3_adaptivity ~engine ?(n = 256) ?(ws = [ 4; 8; 16; 32 ]) () =
  let solos =
    Engine.map engine
      (fun w ->
        let m = Rme_core.Machine.create ~n ~width:w ~model:Rmr.Cc Km.factory in
        let ok = Rme_core.Machine.run_to_completion m ~pid:0 ~cap:100_000 ~on_step:ignore in
        assert ok;
        (* exclude the single CS step (a write: 1 RMR) *)
        Rme_core.Machine.total_rmrs m ~pid:0 - 1)
      ws
  in
  render engine
    [
      {
        title =
          Printf.sprintf
            "A3 (ablation): contention adaptivity at n=%d (CC) — our KM core pays \
             ceil(log_w n) levels even solo; the full algorithm of [19] would pay \
             O(min(k, log_w n))"
            n;
        columns = [ "w"; "solo passage RMRs"; "contended max RMRs"; "levels" ];
        rows =
          List.map2
            (fun w solo ->
              [
                int_text w;
                int_text solo;
                max_rmr (Engine.cell ~seed:7 ~n ~width:w ~model:Rmr.Cc Km.factory);
                int_text (Bounds.tree_levels ~n ~b:(min w n));
              ])
            ws solos;
      };
    ]

(* F1: fairness. The RME literature studies FCFS and starvation-freedom
   as extended properties (paper §1.2, "ignoring any extended
   properties"); the harness measures them as bypass counts: how many
   critical sections others completed between a request and its grant. *)

let f1_fairness ~engine ?(seed = 31) ?(n = 8) ?(sp = 6) () =
  let bypass (r : Engine.cell_result) =
    let worst = r.Engine.max_bypass in
    [ string_of_int worst; (if worst <= (2 * n) - 2 then "yes" else "no") ]
  in
  render engine
    [
      {
        title =
          Printf.sprintf
            "F1: fairness — max CS entries by others between request and grant (n=%d, %d \
             super-passages, random schedule, CC)"
            n sp;
        columns = [ "lock"; "max bypass"; "doorway-FIFO (bypass <= 2n-2)" ];
        rows =
          List.filter_map
            (fun (factory : Lock_intf.factory) ->
              if Lock_intf.supports factory ~n ~width:16 then
                Some
                  [
                    Text factory.Lock_intf.name;
                    Trial
                      ( Engine.cell ~superpassages:sp ~seed ~n ~width:16 ~model:Rmr.Cc
                          factory,
                        bypass );
                  ]
              else None)
            Registry.all;
      };
    ]

(* ------------------------------------------------------------------ *)
(* The catalogue, shared by [rme experiment] and the bench harness: each
   entry times its experiment on the caller's engine and prints its
   tables and the counters line. *)

type report = { wall_s : float; computed : int; cached : int }
type entry = { id : string; descr : string; run : Engine.t -> report }

let entry id descr tables =
  let run eng =
    let c0 = Engine.counters eng in
    let t0 = Unix.gettimeofday () in
    List.iter Table.print (tables eng);
    let wall_s = Unix.gettimeofday () -. t0 in
    let c1 = Engine.counters eng in
    let r =
      {
        wall_s;
        computed = c1.Engine.computed - c0.Engine.computed;
        cached = c1.Engine.cached - c0.Engine.cached;
      }
    in
    Printf.printf "(%s completed in %.1fs; j=%d; cells: %d computed, %d cached)\n\n%!" id
      wall_s (Engine.jobs eng) r.computed r.cached;
    r
  in
  { id; descr; run }

let all =
  [
    entry "e1" "RMR landscape across lock algorithms" (fun engine ->
        e1_lock_landscape ~engine ());
    entry "e2" "Katzan-Morrison word-size tradeoff" (fun engine ->
        e2_word_size_tradeoff ~engine ());
    entry "e3" "lower-bound adversary vs Theorem 1" (fun engine ->
        e3_adversary_bound ~engine ());
    entry "e4" "Process-Hiding Lemma (paper constants)" (fun engine ->
        e4_hiding_lemma ~engine ());
    entry "e5" "crash-recovery cost" (fun engine -> e5_crash_cost ~engine ());
    entry "e6" "CC vs DSM" (fun engine -> e6_model_comparison ~engine ());
    entry "e7" "min(log_w n, log/loglog) crossover" (fun engine ->
        e7_crossover ~engine ());
    entry "e8" "system-wide crash separation (epoch-MCS)" (fun engine ->
        e8_system_wide ~engine ());
    entry "a1" "ablation: KM tree arity vs word size" (fun engine ->
        a1_arity_ablation ~engine ());
    entry "a2" "ablation: adversary contention threshold k" (fun engine ->
        a2_k_ablation ~engine ());
    entry "a3" "ablation: contention adaptivity of the KM core" (fun engine ->
        a3_adaptivity ~engine ());
    entry "f1" "fairness: bypass counts per lock" (fun engine -> f1_fairness ~engine ());
  ]

let select = function
  | [ "all" ] -> Ok all
  | ids ->
      let found, unknown =
        List.partition_map
          (fun id ->
            match List.find_opt (fun e -> e.id = id) all with
            | Some e -> Left e
            | None -> Right (Printf.sprintf "%S" id))
          ids
      in
      if unknown = [] then Ok found
      else
        Error
          (Printf.sprintf "unknown experiment%s %s (available: %s, all)"
             (if List.length unknown > 1 then "s" else "")
             (String.concat ", " unknown)
             (String.concat ", " (List.map (fun e -> e.id) all)))
