(* The rme command-line interface.

   Subcommands:
     rme locks                         list the lock algorithms
     rme simulate  --lock km ...       run a workload through the harness
     rme adversary --lock rcas ...     run the lower-bound construction
     rme lemma ...                     solve a Process-Hiding instance
     rme experiment e1 .. f1 | all     regenerate the paper's tables
                    [-j N]             ... sharding cells over N domains
*)

open Cmdliner
module H = Rme_sim.Harness
module Lock_intf = Rme_sim.Lock_intf
module Rmr = Rme_memory.Rmr
module Registry = Rme_locks.Registry
module A = Rme_core.Adversary
module T = Rme_core.Schedule_table
module Intset = Rme_util.Intset
module Engine = Rme_experiments.Engine

(* ---------------- shared arguments ---------------- *)

let lock_conv =
  let parse s =
    match Registry.find s with
    | Some f -> Ok f
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown lock %S (available: %s)" s
                (String.concat ", " (Registry.names ()))))
  in
  let print ppf (f : Lock_intf.factory) =
    Format.pp_print_string ppf f.Lock_intf.name
  in
  Arg.conv (parse, print)

let model_conv =
  let parse s =
    match Rmr.model_of_string s with
    | Some m -> Ok m
    | None -> Error (`Msg "model must be cc or dsm")
  in
  Arg.conv (parse, Rmr.pp_model)

let lock_arg =
  Arg.(
    required
    & opt (some lock_conv) None
    & info [ "lock"; "l" ] ~docv:"LOCK" ~doc:"Lock algorithm (see $(b,rme locks)).")

let n_arg default =
  Arg.(value & opt int default & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

let width_arg =
  Arg.(
    value & opt int 16
    & info [ "width"; "w" ] ~docv:"W" ~doc:"Word size in bits (1-62).")

let model_arg =
  Arg.(
    value & opt model_conv Rmr.Cc
    & info [ "model"; "m" ] ~docv:"MODEL" ~doc:"Cost model: cc or dsm.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let ( let* ) = Result.bind

(* Reject what the simulator would raise on, before anything runs. *)
let check_size (lock : Lock_intf.factory) ~n ~width =
  if n < 1 then Error (Printf.sprintf "-n must be at least 1 (got %d)" n)
  else if width < 1 || width > 62 then
    Error (Printf.sprintf "--width must be in 1..62 (got %d)" width)
  else if not (Lock_intf.supports lock ~n ~width) then
    Error
      (Printf.sprintf "lock %s needs --width >= %d for n = %d" lock.Lock_intf.name
         (lock.Lock_intf.min_width ~n) n)
  else Ok ()

(* ---------------- rme locks ---------------- *)

let locks_cmd =
  let run () =
    List.iter
      (fun (f : Lock_intf.factory) ->
        Printf.printf "%-16s %s  min-width(n=64)=%d\n" f.Lock_intf.name
          (if f.Lock_intf.recoverable then "recoverable " else "conventional")
          (f.Lock_intf.min_width ~n:64))
      Registry.all
  in
  Cmd.v (Cmd.info "locks" ~doc:"List the available lock algorithms.")
    Term.(const run $ const ())

(* ---------------- rme simulate ---------------- *)

let simulate lock n width model seed superpassages crash_prob cs_crash trace =
  let* () = check_size lock ~n ~width in
  let* () =
    if superpassages < 1 then
      Error (Printf.sprintf "--superpassages must be at least 1 (got %d)" superpassages)
    else if not (crash_prob >= 0.0 && crash_prob <= 1.0) then
      Error (Printf.sprintf "--crash-prob must be in [0, 1] (got %g)" crash_prob)
    else if crash_prob > 0.0 && not lock.Lock_intf.recoverable then
      Error
        (Printf.sprintf "--crash-prob needs a recoverable lock; %s is not recoverable"
           lock.Lock_intf.name)
    else if crash_prob > 0.0 && List.memq lock Registry.system_wide then
      Error
        (Printf.sprintf
           "--crash-prob injects individual crashes; %s is for system-wide crashes only"
           lock.Lock_intf.name)
    else Ok ()
  in
  let crashes =
    if crash_prob > 0.0 then H.Crash_prob { prob = crash_prob; seed = seed * 31 }
    else H.No_crashes
  in
  let cfg =
    {
      (H.default_config ~n ~width model) with
      superpassages;
      policy = H.Random_policy seed;
      crashes;
      allow_cs_crash = cs_crash;
      max_crashes_per_process = 8;
      record_trace = trace;
    }
  in
  let r = H.run cfg lock in
  Printf.printf "lock=%s n=%d w=%d model=%s superpassages=%d\n"
    lock.Lock_intf.name n width (Rmr.model_name model) superpassages;
  Printf.printf "ok=%b steps=%d crashes=%d\n" r.H.ok r.H.steps r.H.total_crashes;
  Printf.printf "max passage RMRs=%d mean=%.2f\n" r.H.max_passage_rmr
    r.H.mean_passage_rmr;
  List.iter (fun v -> Printf.printf "VIOLATION: %s\n" v) r.H.violations;
  (match r.H.trace with
  | Some t -> Format.printf "%a" Rme_sim.Trace.pp t
  | None -> ());
  if r.H.ok then Ok () else Error "the run was not ok"

let simulate_cmd =
  let sp =
    Arg.(
      value & opt int 2
      & info [ "superpassages"; "s" ] ~docv:"K" ~doc:"Super-passages per process.")
  in
  let crash_prob =
    Arg.(
      value & opt float 0.0
      & info [ "crash-prob" ] ~docv:"P" ~doc:"Per-step crash probability.")
  in
  let cs_crash =
    Arg.(value & flag & info [ "cs-crash" ] ~doc:"Allow crashes inside the CS.")
  in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"Print the full trace.") in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a lock through a workload and report RMRs.")
    Term.(
      term_result'
        (const simulate $ lock_arg $ n_arg 8 $ width_arg $ model_arg $ seed_arg
       $ sp $ crash_prob $ cs_crash $ trace))

(* ---------------- rme adversary ---------------- *)

let adversary lock n width model k check rounds_detail =
  let* () = check_size lock ~n ~width in
  let* () =
    if not lock.Lock_intf.recoverable then
      Error
        (Printf.sprintf
           "the adversary needs a recoverable lock (Theorem 1); %s is not recoverable"
           lock.Lock_intf.name)
    else if List.memq lock Registry.system_wide then
      Error
        (Printf.sprintf
           "the adversary crashes processes one at a time (Theorem 1); %s is for \
            system-wide crashes only"
           lock.Lock_intf.name)
    else Ok ()
  in
  let cfg = A.default_config ~n ~width model in
  let cfg = match k with Some k -> { cfg with A.k } | None -> cfg in
  let* () = if cfg.A.k < 2 then Error "-k must be at least 2" else Ok () in
  let r = A.run cfg lock in
  Printf.printf "lock=%s n=%d w=%d k=%d model=%s\n" lock.Lock_intf.name n width
    cfg.A.k (Rmr.model_name model);
  Printf.printf
    "rounds=%d (Theorem 1 bound: %.2f)\nsurvivors=%d min survivor RMRs=%d\n"
    r.A.rounds_completed r.A.predicted_lower_bound
    (Intset.cardinal r.A.survivors)
    r.A.survivor_min_rmrs;
  Printf.printf "finished=%d removed=%d escaped=%d replay-checked steps=%d\n"
    r.A.finished r.A.removed r.A.escaped r.A.replay_checked_steps;
  if rounds_detail then
    List.iter
      (fun (ri : A.round_info) ->
        Printf.printf "  round %2d %-9s active %5d -> %5d finished=%d removed=%d\n"
          ri.A.index
          (A.round_kind_name ri.A.kind)
          ri.A.active_before ri.A.active_after ri.A.newly_finished
          ri.A.newly_removed)
      r.A.rounds;
  if check then begin
    let rep = T.check r.A.schedule in
    Format.printf "invariant check: %a@." T.pp_report rep;
    if not (T.ok rep) then Error "invariant check failed"
    else if rep.T.rounds_checked = 0 then
      Error
        "invariant check checked nothing: no round has at most 10 active \
         processes"
    else Ok ()
  end
  else Ok ()

let adversary_cmd =
  let k =
    Arg.(
      value & opt (some int) None
      & info [ "k" ] ~docv:"K" ~doc:"Contention threshold (default w+1).")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check-invariants" ]
          ~doc:
            "Materialise the schedule table and verify invariants I1-I10 on \
             every round with at most 10 active processes; fails when there \
             is no such round.")
  in
  let detail = Arg.(value & flag & info [ "rounds" ] ~doc:"Print per-round detail.") in
  Cmd.v
    (Cmd.info "adversary"
       ~doc:"Run the Theorem 1 lower-bound construction against a lock.")
    Term.(
      term_result'
        (const adversary $ lock_arg $ n_arg 64 $ width_arg $ model_arg $ k $ check
       $ detail))

(* ---------------- rme lemma ---------------- *)

let lemma ell delta m family seed trials =
  let module Hiding = Rme_core.Hiding in
  let fs = Rme_experiments.Experiments.e4_families in
  let* f =
    Option.to_result (List.assoc_opt family fs)
      ~none:
        (Printf.sprintf "unknown family %S (available: %s)" family
           (String.concat ", " (List.map fst fs)))
  in
  let* () =
    if ell < 1 then Error (Printf.sprintf "--ell must be at least 1 (got %d)" ell)
    else if not (delta >= 1.0) then
      Error (Printf.sprintf "--delta must be at least 1 (got %g)" delta)
    else if m < 1 then Error (Printf.sprintf "--groups must be at least 1 (got %d)" m)
    else if trials < 1 then
      Error (Printf.sprintf "--trials must be at least 1 (got %d)" trials)
    else Ok ()
  in
  let p = Hiding.paper_params ~ell ~delta in
  let* () =
    Hiding.check_params p
    |> Result.map_error (Printf.sprintf "--ell %d --delta %g: %s" ell delta)
  in
  (* [solve] lists all subgroup^k tuples of each group. *)
  let* () =
    let k = p.Hiding.k and s = p.Hiding.subgroup_size in
    if Rme_core.Partite.within_cap ~count:k ~size:(fun _ -> s) then Ok ()
    else
      Error
        (Printf.sprintf
           "--ell %d --delta %g needs %d^%d tuples per group, over the solver's cap of 2^30"
           ell delta s k)
  in
  Printf.printf "params: ell=%d delta=%.1f k=%d subgroup=%d group-size=%d m=%d\n"
    ell delta p.Hiding.k p.Hiding.subgroup_size (Hiding.min_group_size p) m;
  let r = Rme_experiments.Experiments.hiding_trial p ~m ~f ~seed ~trials in
  let* () = Result.map_error (( ^ ) "solve: FAILED ") r.verified in
  print_endline "solve: ok (all lemma clauses verified)";
  let* () =
    match r.query_error with Some e -> Error ("query: FAILED " ^ e) | None -> Ok ()
  in
  Printf.printf "%d random discovery sets: min |I_D| = %d (needs >= %.1f)\n" trials
    r.min_hidden
    (float_of_int m /. 2.0);
  Ok ()

let lemma_cmd =
  let ell = Arg.(value & opt int 1 & info [ "ell" ] ~doc:"Value-domain bits.") in
  let delta = Arg.(value & opt float 1.0 & info [ "delta" ] ~doc:"Discovery budget.") in
  let m = Arg.(value & opt int 3 & info [ "groups" ] ~doc:"Number of groups.") in
  let family =
    Arg.(
      value
      & opt string "fas (last writer)"
      & info [ "family" ] ~doc:"Operation family (see experiment e4).")
  in
  let trials = Arg.(value & opt int 20 & info [ "trials" ] ~doc:"Random D sets.") in
  Cmd.v
    (Cmd.info "lemma" ~doc:"Solve and verify a Process-Hiding Lemma instance.")
    Term.(term_result' (const lemma $ ell $ delta $ m $ family $ seed_arg $ trials))

(* ---------------- rme experiment ---------------- *)

let experiment jobs ids =
  let module E = Rme_experiments.Experiments in
  let* () =
    if jobs < 0 then Error (Printf.sprintf "--jobs must be at least 0 (got %d)" jobs)
    else Ok ()
  in
  let* entries = E.select ids in
  let engine = Engine.create ~jobs () in
  List.iter (fun (e : E.entry) -> e.E.run engine) entries;
  Ok ()

let experiment_cmd =
  let ids =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"ID" ~doc:"Experiment ids (e1..f1) or 'all'.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Shard trial cells over $(docv) domains (0 = auto-detect). Tables \
             are bit-identical at any value.")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate the paper-shaped experiment tables.")
    Term.(term_result' (const experiment $ jobs $ ids))

(* ---------------- main ---------------- *)

let eval ?argv () =
  let doc =
    "Simulator, algorithms and lower-bound machinery for word-size RMR \
     tradeoffs in recoverable mutual exclusion (Chan, Giakkoupis, Woelfel, \
     PODC 2023)."
  in
  let info = Cmd.info "rme" ~version:"1.0.0" ~doc in
  Cmd.eval ?argv ~term_err:1
    (Cmd.group info
       [
         locks_cmd;
         simulate_cmd;
         adversary_cmd;
         lemma_cmd;
         experiment_cmd;
       ])
