module Intset = Rme_util.Intset
module Vec = Rme_util.Vec
module Memory = Rme_memory.Memory
module Op = Rme_memory.Op
module Trace = Rme_sim.Trace
module Rmr = Rme_memory.Rmr
module Cache = Rme_memory.Cache

type violation = {
  round : int;
  invariant : string;
  column : Intset.t option;
  detail : string;
}

type report = {
  rounds_checked : int;
  columns_checked : int;
  assertions : int;
  violations : violation list;
}

let ok r = r.violations = []

(* Enumerate all subsets of a small set, as a list. *)
let subsets set =
  let elems = Intset.to_sorted_list set in
  List.fold_left
    (fun acc e -> acc @ List.map (fun s -> Intset.add e s) acc)
    [ Intset.empty ] elems

type column_obs = { col : Intset.t; values : int array }

(* What (I3)/(I9) compare between a column and the maximal schedule.
   Poised operations are compared by location and operation name:
   arbitrary RMW operations carry closures, which are not structurally
   comparable. *)
type proc_state = {
  phase : Trace.section;
  poised : (int * string) option;
  rmrs : int;
  cache : Intset.t option;
}

let proc_state m p =
  {
    phase = Machine.phase m ~pid:p;
    poised = Option.map (fun (loc, op) -> (loc, Op.name op)) (Machine.peek m ~pid:p);
    rmrs = Machine.total_rmrs m ~pid:p;
    cache = Option.map (fun c -> Cache.valid_set c ~pid:p) (Rmr.cache (Machine.rmr m));
  }

(* The largest active set whose row is materialised: [2^10] replays. *)
let max_actives = 10

let check (sched : Adversary.committed_schedule) =
  let ctx = sched.Adversary.ctx in
  let violations = ref [] in
  let violate ~round ~invariant ?column detail =
    violations := { round; invariant; column; detail } :: !violations
  in
  let rounds_checked = ref 0 in
  let columns_checked = ref 0 in
  let assertions = ref 0 in
  (* Every column of every round replays on this one play; its trace
     holds the events of the last replay only. *)
  let trace = Trace.create () in
  let play = Schedule.fresh_play ~trace ctx in
  let m = play.Schedule.m in
  let mem = Machine.memory m in
  List.iteri
    (fun idx meta ->
      let round = idx + 1 in
      let active = meta.Adversary.meta_active in
      let finished = meta.Adversary.meta_finished in
      if Intset.cardinal active <= max_actives then begin
        incr rounds_checked;
        let prefix =
          Vec.of_array (Array.sub sched.Adversary.directives 0 meta.Adversary.boundary)
        in
        let run_column col =
          Schedule.replay play ~keep:(fun p -> Intset.mem p col) prefix
        in
        (* Maximal column first. *)
        let s_max = Intset.union active finished in
        match run_column s_max with
        | exception Schedule.Diverged d ->
            violate ~round ~invariant:"I3" ~column:s_max
              (Printf.sprintf "maximal replay diverged: %s" d)
        | () ->
            let max_values = Memory.snapshot mem in
            let num_locs = Array.length max_values in
            let last_acc = Array.init num_locs (fun l -> Memory.last_accessor mem l) in
            let max_state = Hashtbl.create 16 in
            Intset.iter (fun p -> Hashtbl.replace max_state p (proc_state m p)) active;
            let observations = ref [] in
            List.iter
              (fun t ->
                let col = Intset.union finished t in
                incr columns_checked;
                match run_column col with
                | exception Schedule.Diverged d ->
                    violate ~round ~invariant:"I3" ~column:col
                      (Printf.sprintf "replay diverged: %s" d)
                | () ->
                    assertions := !assertions + play.Schedule.checked;
                    (* I8 (DSM): owner-exclusive access to active-owned
                       objects, in every column. *)
                    if ctx.Schedule.model = Rmr.Dsm then
                      Trace.iter
                        (function
                          | Trace.Step { pid; loc; _ } -> (
                              match Memory.owner mem loc with
                              | Some o when Intset.mem o active && o <> pid ->
                                  violate ~round ~invariant:"I8" ~column:col
                                    (Printf.sprintf "p%d accessed R%d owned by active p%d"
                                       pid loc o)
                              | Some _ | None -> ())
                          | Trace.Crash _ -> ())
                        trace;
                    (* I4 / I6 / I7 / I10 / I3 / I9, per kept process. *)
                    Intset.iter
                      (fun p ->
                        let completed = Machine.completed m ~pid:p in
                        let in_f = Intset.mem p finished in
                        if completed <> in_f then
                          violate ~round ~invariant:"I4" ~column:col
                            (Printf.sprintf "p%d completed=%b but finished=%b" p
                               completed in_f);
                        let crashes = Machine.crashes m ~pid:p in
                        if crashes > 1 then
                          violate ~round ~invariant:"I6" ~column:col
                            (Printf.sprintf "p%d crashed %d times" p crashes);
                        if (not in_f) && crashes > 0 then
                          violate ~round ~invariant:"I6" ~column:col
                            (Printf.sprintf "unfinished p%d crashed" p);
                        if (not in_f) && Machine.cs_entries m ~pid:p > 0 then
                          violate ~round ~invariant:"I7" ~column:col
                            (Printf.sprintf "unfinished p%d entered the CS" p);
                        if Intset.mem p t then begin
                          let st = proc_state m p and mx = Hashtbl.find max_state p in
                          if st.rmrs < round then
                            violate ~round ~invariant:"I10" ~column:col
                              (Printf.sprintf "active p%d has %d RMRs in round %d" p
                                 st.rmrs round);
                          if st.phase <> mx.phase then
                            violate ~round ~invariant:"I3" ~column:col
                              (Printf.sprintf "p%d phase differs from maximal" p);
                          if st.poised <> mx.poised then
                            violate ~round ~invariant:"I3" ~column:col
                              (Printf.sprintf "p%d poised op differs from maximal" p);
                          if st.rmrs <> mx.rmrs then
                            violate ~round ~invariant:"I9" ~column:col
                              (Printf.sprintf "p%d RMR count differs from maximal" p);
                          match (st.cache, mx.cache) with
                          | Some c, Some cmax ->
                              if not (Intset.equal c cmax) then
                                violate ~round ~invariant:"I9" ~column:col
                                  (Printf.sprintf "p%d cache set differs from maximal"
                                     p)
                          | None, None | Some _, None | None, Some _ -> ()
                        end)
                      col;
                    observations :=
                      { col; values = Memory.snapshot mem }
                      :: !observations)
              (subsets active);
            (* I5: per object, column values must take at most two forms:
               the maximal value when the column contains the object's
               last (maximal-schedule) accessor, a single y_R otherwise. *)
            let obs = !observations in
            for l = 0 to num_locs - 1 do
              let with_acc, without_acc =
                List.partition
                  (fun o ->
                    match last_acc.(l) with
                    | Some a -> Intset.mem a o.col
                    | None -> false)
                  obs
              in
              List.iter
                (fun o ->
                  if o.values.(l) <> max_values.(l) then
                    violate ~round ~invariant:"I5" ~column:o.col
                      (Printf.sprintf
                         "R%d = %d in a column containing its last accessor, \
                          maximal has %d"
                         l o.values.(l) max_values.(l)))
                with_acc;
              match without_acc with
              | [] -> ()
              | first :: rest ->
                  let y_r = first.values.(l) in
                  List.iter
                    (fun o ->
                      if o.values.(l) <> y_r then
                        violate ~round ~invariant:"I5" ~column:o.col
                          (Printf.sprintf "R%d = %d, other accessor-free columns have %d"
                             l o.values.(l) y_r))
                    rest
            done
      end)
    sched.Adversary.metas;
  {
    rounds_checked = !rounds_checked;
    columns_checked = !columns_checked;
    assertions = !assertions;
    violations = List.rev !violations;
  }

let pp_report ppf r =
  Format.fprintf ppf "rounds=%d columns=%d assertions=%d violations=%d"
    r.rounds_checked r.columns_checked r.assertions (List.length r.violations);
  List.iter
    (fun v ->
      Format.fprintf ppf "@.  [%s] round %d%s: %s" v.invariant v.round
        (match v.column with
        | Some c -> Format.asprintf " col %a" Intset.pp c
        | None -> "")
        v.detail)
    r.violations
