module Intset = Rme_util.Intset
module Vec = Rme_util.Vec
module Memory = Rme_memory.Memory
module Op = Rme_memory.Op
module Rmr = Rme_memory.Rmr

type config = {
  n : int;
  width : int;
  model : Rmr.model;
  k : int;
}

(* Setup-phase steps one process may take in a round before it counts
   as locally stuck, and the most rounds a construction runs. *)
let local_cap = 10_000
let max_rounds = 200

(* The contention threshold is the paper's k = w^d; any k > w works for
   the construction (a w-bit object offers only w "slots" worth of
   one-RMR distinct announcements, so with more than w poised processes
   per group the pigeonhole argument behind the Process-Hiding Lemma has
   room to operate, while groups of exactly w can be unhideable — e.g.
   w processes each FAA-ing a distinct bit). *)
let default_config ~n ~width model = { n; width; model; k = max 2 (width + 1) }

type round_kind = Low_contention | High_read | High_hide

let round_kind_name = function
  | Low_contention -> "low"
  | High_read -> "high-read"
  | High_hide -> "high-hide"

type round_info = {
  index : int;
  kind : round_kind;
  active_before : int;
  active_after : int;
  newly_finished : int;
  newly_removed : int;
  replays : int;
}

type round_meta = {
  boundary : int;  (* committed directive count at end of the round *)
  meta_active : Intset.t;
  meta_finished : Intset.t;
  meta_removed : Intset.t;
}

type committed_schedule = {
  ctx : Schedule.context;
  directives : (Schedule.directive * Schedule.record) array;
  metas : round_meta list;  (* oldest first *)
}

type result = {
  rounds : round_info list;
  rounds_completed : int;
  survivors : Intset.t;
  survivor_min_rmrs : int;
  finished : int;
  removed : int;
  escaped : int;
  replay_checked_steps : int;
  predicted_lower_bound : float;
  schedule : committed_schedule;
}

(* Removals discovered mid-plan: the round must be replanned from a
   replayed base schedule without these processes. *)
exception Restart of Intset.t

(* ------------------------------------------------------------------ *)
(* Hiding plans: the per-group instantiation of the Process-Hiding
   Lemma. Given the current value of the contended object and the poised
   operations of a group, find step sets A (the pretended execution) and
   B + z (the real one) with the same resulting value, such that z is
   outside the crash set V = A + B. *)

type hide_plan = {
  steppers : int list; (* execution order of B + z *)
  hp_z : int;
  v : int list; (* V = A + B, each to crash and complete *)
  y_next : int;
}

(* The search pool for hiding plans is capped at this many members;
   subsets are enumerated over pool {e indices}, so the index subsets for
   every pool size can be shared across all calls (and across domains:
   the table below is computed once at module initialisation and
   immutable afterwards). *)
let max_pool = 16

let index_subsets : int list list array =
  Array.init (max_pool + 1) (fun n ->
      let acc = ref [] in
      for i = 0 to n - 1 do
        acc := [ i ] :: !acc;
        for j = i + 1 to n - 1 do
          acc := [ i; j ] :: !acc;
          for l = j + 1 to n - 1 do
            acc := [ i; j; l ] :: !acc
          done
        done
      done;
      List.rev !acc)

let find_hiding ~width ~y0 ~members ~forbidden =
  (* [members]: (pid, poised op) ascending by pid, all non-read. *)
  let ops = members in
  let pids = List.map fst members in
  (* Indexing the members once replaces the per-element [List.assoc] of
     subset evaluation with O(1) array reads. *)
  let arr = Array.of_list members in
  let pool = min max_pool (Array.length arr) in
  let by_value = Hashtbl.create 64 in
  List.iter
    (fun idxs ->
      let y =
        List.fold_left
          (fun y i -> Op.next_value ~width (snd arr.(i)) y)
          y0 idxs
      in
      let s = List.map (fun i -> fst arr.(i)) idxs in
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_value y) in
      Hashtbl.replace by_value y (s :: prev))
    index_subsets.(pool);
  let candidate = ref None in
  Hashtbl.iter
    (fun y subsets ->
      if !candidate = None then begin
        let rec pairs = function
          | [] -> ()
          | s2 :: rest ->
              List.iter
                (fun s1 ->
                  if !candidate = None && s1 <> s2 then begin
                    let zs =
                      List.filter
                        (fun z ->
                          (not (List.mem z s1)) && not (Intset.mem z forbidden))
                        s2
                    in
                    match zs with
                    | z :: _ ->
                        let v =
                          List.sort_uniq compare
                            (s1 @ List.filter (fun x -> x <> z) s2)
                        in
                        candidate :=
                          Some { steppers = s2; hp_z = z; v; y_next = y }
                    | [] -> ()
                  end)
                rest;
              if !candidate = None then pairs rest
        in
        pairs subsets
      end)
    by_value;
  match !candidate with
  | Some _ as c -> c
  | None -> begin
      (* Fallback: an absorbing operation (write/FAS) hides anything that
         steps before it — the Chan–Woelfel technique. *)
      let absorbing =
        List.find_opt
          (fun (_, op) ->
            match op with Op.Write _ | Op.Fas _ -> true | _ -> false)
          ops
      in
      match absorbing with
      | Some (alpha, alpha_op) -> begin
          let z =
            List.find_opt (fun p -> p <> alpha && not (Intset.mem p forbidden)) pids
          in
          match z with
          | Some z ->
              let y_mid = Op.next_value ~width (List.assoc z ops) y0 in
              let y_next = Op.next_value ~width alpha_op y_mid in
              Some { steppers = [ z; alpha ]; hp_z = z; v = [ alpha ]; y_next }
          | None -> None
        end
      | None -> None
    end

(* ------------------------------------------------------------------ *)

let run config factory =
  if config.k < 2 then invalid_arg "Adversary.run: k must be >= 2";
  if not factory.Rme_sim.Lock_intf.recoverable then
    invalid_arg
      (Printf.sprintf "Adversary.run: lock %s is not recoverable"
         factory.Rme_sim.Lock_intf.name);
  let ctx =
    { Schedule.n = config.n; width = config.width; model = config.model; factory }
  in
  let committed : (Schedule.directive * Schedule.record) Vec.t = Vec.create () in
  let metas = ref [] in
  let removed = ref Intset.empty in
  let finished = ref Intset.empty in
  let active = ref (Intset.of_range 0 (config.n - 1)) in
  let escaped = ref Intset.empty in
  let total_checked = ref 0 in
  (* One scratch play serves every attempt. Right after a commit the
     scratch {e is} the committed state (the commit's planning executed
     on it), so the next attempt resumes it as-is — replay becomes free
     at every round boundary. Any change to [removed] since that commit
     — a mid-plan [Restart], or processes dropped at the commit itself —
     invalidates the resume and forces a full filtered replay from step
     0 on the reset machine: that replay is the executable witness that
     the removals affected nobody kept, so it is performed exactly when
     it verifies something new. *)
  let scratch = Schedule.fresh_play ctx in
  let committed_removed = ref Intset.empty in
  let clean = ref true in
  let replay () =
    if not (!clean && Intset.equal !removed !committed_removed) then begin
      Schedule.replay scratch ~keep:(fun p -> not (Intset.mem p !removed)) committed;
      total_checked := !total_checked + scratch.Schedule.checked
    end;
    (* The attempt about to run will mutate the scratch past the
       committed prefix. *)
    clean := false;
    scratch
  in
  (* -------------------------------------------------------------- *)
  (* Plan (and tentatively execute) one round on [play]. Raises
     [Restart] when processes must be removed first. On success returns
     the round's directives, its kind, the new finished list and the
     surviving active list. *)
  let plan_round (play : Schedule.play) =
    let directives : (Schedule.directive * Schedule.record) Vec.t = Vec.create () in
    let actives = Intset.to_sorted_list !active in
    let active_set = !active in
    let discovery_check ~observer ~loc ~exempt =
      let vis =
        Intset.diff
          (Intset.remove observer
             (Intset.inter (Schedule.visible_at play loc) active_set))
          exempt
      in
      if not (Intset.is_empty vis) then Some vis else None
    in
    let push_step pid hidden_as (s : Rme_sim.Trace.step) =
      ignore
        (Vec.push directives
           ( Schedule.D_step { pid; hidden_as },
             Schedule.R_step { loc = s.loc; old_value = s.old_value } ))
    in
    let complete_with_checks pid ~exempt =
      let ok, count =
        Schedule.do_complete play ~pid ~on_step:(fun (s : Rme_sim.Trace.step) ->
            match discovery_check ~observer:pid ~loc:s.loc ~exempt with
            | Some vis -> raise (Restart vis)
            | None -> ())
      in
      (ok, count)
    in
    (* Setup phase: run every active to its next RMR-incurring step. *)
    let cs_ready = ref [] in
    List.iter
      (fun pid ->
        let taken = ref 0 in
        let continue = ref true in
        while !continue do
          match Machine.peek play.Schedule.m ~pid with
          | None ->
              escaped := Intset.add pid !escaped;
              raise (Restart (Intset.singleton pid))
          | Some (loc, _op) ->
              if Machine.poised_rmr play.Schedule.m ~pid then continue := false
              else if !taken >= local_cap then
                (* Locally stuck: waiting on a grant that will never come
                   inside this construction; drop the waiter. *)
                raise (Restart (Intset.singleton pid))
              else begin
                (match discovery_check ~observer:pid ~loc ~exempt:Intset.empty with
                | Some _ ->
                    (* Removing the observer keeps everyone else intact. *)
                    raise (Restart (Intset.singleton pid))
                | None -> ());
                ignore (Schedule.do_local play ~pid);
                incr taken
              end
        done;
        if !taken > 0 then
          ignore (Vec.push directives (Schedule.D_local pid, Schedule.R_local !taken));
        if Machine.phase play.Schedule.m ~pid = Rme_sim.Trace.Cs then
          cs_ready := pid :: !cs_ready)
      actives;
    (* Processes poised on their critical-section step are finished
       deliberately (the proof "forces them to run to completion"). *)
    let new_finished = ref [] in
    List.iter
      (fun pid ->
        let ok, count = complete_with_checks pid ~exempt:Intset.empty in
        if not ok then raise (Restart (Intset.singleton pid));
        ignore (Vec.push directives (Schedule.D_complete pid, Schedule.R_complete count));
        new_finished := pid :: !new_finished)
      (List.rev !cs_ready);
    let actives = List.filter (fun p -> not (List.mem p !cs_ready)) actives in
    if actives = [] then (directives, Low_contention, !new_finished, [])
    else begin
      let poised =
        List.map
          (fun pid ->
            match Machine.peek play.Schedule.m ~pid with
            | Some (loc, op) -> (pid, loc, op)
            | None -> raise (Schedule.Diverged "active process lost its poised step"))
          actives
      in
      let by_loc = Hashtbl.create 32 in
      List.iter
        (fun (pid, loc, op) ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt by_loc loc) in
          Hashtbl.replace by_loc loc ((pid, op) :: prev))
        poised;
      let high_locs =
        Hashtbl.fold
          (fun loc members acc ->
            if List.length members >= config.k then loc :: acc else acc)
          by_loc []
        |> List.sort compare
      in
      let high_count =
        List.fold_left
          (fun acc loc -> acc + List.length (Hashtbl.find by_loc loc))
          0 high_locs
      in
      if high_locs <> [] && 2 * high_count >= List.length actives then begin
        (* ---------------- high contention ---------------- *)
        let to_remove = ref Intset.empty in
        List.iter
          (fun (pid, loc, _) ->
            if not (List.mem loc high_locs) then
              to_remove := Intset.add pid !to_remove)
          poised;
        List.iter
          (fun loc ->
            (match Memory.owner (Machine.memory play.Schedule.m) loc with
            | Some o when Intset.mem o active_set ->
                to_remove := Intset.add o !to_remove
            | Some _ | None -> ());
            Intset.iter
              (fun q -> to_remove := Intset.add q !to_remove)
              (Intset.inter (Schedule.visible_at play loc) active_set))
          high_locs;
        let groups = ref [] in
        List.iter
          (fun loc ->
            let members =
              Hashtbl.find by_loc loc
              |> List.filter (fun (p, _) -> not (Intset.mem p !to_remove))
              |> List.sort compare
            in
            let rec chunk = function
              | rest when List.length rest < config.k ->
                  List.iter
                    (fun (p, _) -> to_remove := Intset.add p !to_remove)
                    rest
              | rest ->
                  let g = List.filteri (fun i _ -> i < config.k) rest in
                  let rest' = List.filteri (fun i _ -> i >= config.k) rest in
                  groups := (loc, g) :: !groups;
                  chunk rest'
            in
            chunk members)
          high_locs;
        let groups = List.rev !groups in
        let has_reader g = List.exists (fun (_, op) -> Op.is_read op) g in
        let reader_groups = List.filter (fun (_, g) -> has_reader g) groups in
        if 2 * List.length reader_groups >= List.length groups then begin
          (* Read case: only read-poised members of reader groups stay;
             reads are unobservable, so they all step. *)
          let keep = ref Intset.empty in
          List.iter
            (fun (_, g) ->
              List.iter
                (fun (p, op) -> if Op.is_read op then keep := Intset.add p !keep)
                g)
            reader_groups;
          List.iter
            (fun (p, _, _) ->
              if not (Intset.mem p !keep) then
                to_remove := Intset.add p !to_remove)
            poised;
          if not (Intset.is_empty (Intset.inter !to_remove active_set)) then
            raise (Restart !to_remove);
          List.iter
            (fun pid ->
              let info = Schedule.do_step play ~pid ~hidden_as:[] in
              push_step pid [] info)
            (Intset.to_sorted_list !keep);
          (directives, High_read, !new_finished, Intset.to_sorted_list !keep)
        end
        else begin
          (* Hide case. *)
          List.iter
            (fun (_, g) ->
              if has_reader g then
                List.iter (fun (p, _) -> to_remove := Intset.add p !to_remove) g)
            groups;
          if not (Intset.is_empty (Intset.inter !to_remove active_set)) then
            raise (Restart !to_remove);
          let groups = List.filter (fun (_, g) -> not (has_reader g)) groups in
          let width = config.width in
          let survivors = ref [] in
          let plans = ref [] in
          let by_obj = Hashtbl.create 8 in
          List.iter
            (fun (loc, g) ->
              let prev = Option.value ~default:[] (Hashtbl.find_opt by_obj loc) in
              Hashtbl.replace by_obj loc (g :: prev))
            groups;
          Hashtbl.iter
            (fun loc gs ->
              let y = ref (Memory.value (Machine.memory play.Schedule.m) loc) in
              List.iter
                (fun g ->
                  match find_hiding ~width ~y0:!y ~members:g ~forbidden:!removed with
                  | Some plan ->
                      y := plan.y_next;
                      plans := (loc, g, plan) :: !plans
                  | None ->
                      raise
                        (Restart
                           (List.fold_left
                              (fun acc (p, _) -> Intset.add p acc)
                              Intset.empty g)))
                (List.rev gs))
            by_obj;
          let plans = List.rev !plans in
          let all_v =
            List.concat_map (fun (_, _, plan) -> plan.v) plans
            |> List.sort_uniq compare
          in
          let v_set =
            List.fold_left (fun a p -> Intset.add p a) Intset.empty all_v
          in
          List.iter
            (fun (_loc, _g, plan) ->
              List.iter
                (fun pid ->
                  let info = Schedule.do_step play ~pid ~hidden_as:plan.v in
                  push_step pid plan.v info)
                plan.steppers;
              survivors := plan.hp_z :: !survivors)
            plans;
          List.iter
            (fun pid ->
              Machine.crash play.Schedule.m ~pid;
              ignore (Vec.push directives (Schedule.D_crash pid, Schedule.R_crash)))
            all_v;
          List.iter
            (fun pid ->
              let ok, count = complete_with_checks pid ~exempt:v_set in
              if not ok then raise (Restart (Intset.add pid v_set));
              ignore
                (Vec.push directives
                   (Schedule.D_complete pid, Schedule.R_complete count));
              new_finished := pid :: !new_finished)
            all_v;
          (directives, High_hide, !new_finished, List.sort compare !survivors)
        end
      end
      else begin
        (* ---------------- low contention ---------------- *)
        let chosen = ref [] in
        let to_remove = ref Intset.empty in
        let loc_readers = Hashtbl.create 32 in
        let loc_writer = Hashtbl.create 32 in
        List.iter
          (fun (pid, loc, op) ->
            let owner_conflict =
              match Memory.owner (Machine.memory play.Schedule.m) loc with
              | Some o -> o <> pid && Intset.mem o active_set
              | None -> false
            in
            let visible_conflict =
              not
                (Intset.is_empty
                   (Intset.remove pid
                      (Intset.inter (Schedule.visible_at play loc) active_set)))
            in
            let write_taken = Hashtbl.mem loc_writer loc in
            let read_taken = Hashtbl.mem loc_readers loc in
            if owner_conflict || visible_conflict then
              to_remove := Intset.add pid !to_remove
            else if Op.is_read op then begin
              if write_taken then to_remove := Intset.add pid !to_remove
              else begin
                Hashtbl.replace loc_readers loc ();
                chosen := pid :: !chosen
              end
            end
            else if write_taken || read_taken then
              to_remove := Intset.add pid !to_remove
            else begin
              Hashtbl.replace loc_writer loc ();
              chosen := pid :: !chosen
            end)
          poised;
        if not (Intset.is_empty !to_remove) then raise (Restart !to_remove);
        let survivors = ref [] in
        List.iter
          (fun pid ->
            let info = Schedule.do_step play ~pid ~hidden_as:[] in
            push_step pid [] info;
            if Machine.phase play.Schedule.m ~pid = Rme_sim.Trace.Cs then begin
              let ok, count = complete_with_checks pid ~exempt:Intset.empty in
              if not ok then raise (Restart (Intset.singleton pid));
              ignore
                (Vec.push directives
                   (Schedule.D_complete pid, Schedule.R_complete count));
              new_finished := pid :: !new_finished
            end
            else survivors := pid :: !survivors)
          (List.rev !chosen);
        (directives, Low_contention, !new_finished, List.sort compare !survivors)
      end
    end
  in
  (* -------------------------------------------------------------- *)
  let rounds = ref [] in
  let last_commit_min_rmrs = ref max_int in
  let round_index = ref 0 in
  let continue = ref true in
  while
    !continue && !round_index < max_rounds && Intset.cardinal !active >= 2
  do
    incr round_index;
    let active_before = Intset.cardinal !active in
    let active_snapshot = !active in
    let removed_snapshot = !removed in
    let attempts = ref 0 in
    let committed_this = ref false in
    while not !committed_this do
      incr attempts;
      if !attempts > config.n + 4 then
        raise (Schedule.Diverged "round did not stabilise after n restarts");
      let play = replay () in
      match plan_round play with
      | directives, kind, new_finished, survivors ->
          (* Commit. Actives that neither survived nor finished are
             removed from the schedule outright (the proof's switch to a
             sub-schedule without them); subsequent replays re-verify
             that nobody ever observed them. *)
          Vec.iter (fun dr -> ignore (Vec.push committed dr)) directives;
          List.iter (fun p -> finished := Intset.add p !finished) new_finished;
          let survivor_set =
            List.fold_left (fun acc p -> Intset.add p acc) Intset.empty survivors
          in
          let dropped =
            List.fold_left
              (fun acc p -> Intset.remove p acc)
              (Intset.diff !active survivor_set)
              new_finished
          in
          (* The scratch now holds exactly the committed state: mark it
             resumable for the keep-set this attempt replayed under, and
             record the survivor statistics it will be asked for later
             (reading them now spares any end-of-run reconstruction). *)
          clean := true;
          committed_removed := !removed;
          last_commit_min_rmrs :=
            Intset.fold
              (fun p acc -> min acc (Machine.total_rmrs play.Schedule.m ~pid:p))
              survivor_set max_int;
          removed := Intset.union !removed dropped;
          active := survivor_set;
          committed_this := true;
          metas :=
            {
              boundary = Vec.length committed;
              meta_active = !active;
              meta_finished = !finished;
              meta_removed = !removed;
            }
            :: !metas;
          rounds :=
            {
              index = !round_index;
              kind;
              active_before;
              active_after = Intset.cardinal !active;
              newly_finished = List.length new_finished;
              newly_removed =
                active_before - Intset.cardinal !active
                - List.length new_finished;
              replays = !attempts;
            }
            :: !rounds
      | exception Restart more ->
          let fresh = Intset.diff more !removed in
          if Intset.is_empty fresh then
            raise (Schedule.Diverged "restart requested without new removals");
          removed := Intset.union !removed fresh;
          active := Intset.diff !active fresh;
          if Intset.cardinal !active < 2 then begin
            (* This round cannot be built; abandon it and keep the
               survivors of the last committed round — they already hold
               the RMRs the committed rounds forced. *)
            active := active_snapshot;
            removed := removed_snapshot;
            committed_this := true;
            decr round_index;
            continue := false
          end
    done
  done;
  (* Final witness: one full filtered replay of the complete committed
     schedule under the final keep-set, asserting every kept record.
     (Survivor statistics were stashed at the last commit instead of
     being read back here: this witness excludes the directives of
     processes dropped at that commit, whose cache effects the committed
     execution included, so its RMR totals are not the committed ones.) *)
  if Vec.length committed > 0 then begin
    Schedule.replay scratch ~keep:(fun p -> not (Intset.mem p !removed)) committed;
    total_checked := !total_checked + scratch.Schedule.checked
  end;
  let survivor_min_rmrs = !last_commit_min_rmrs in
  {
    rounds = List.rev !rounds;
    rounds_completed = !round_index;
    survivors = !active;
    survivor_min_rmrs =
      (if survivor_min_rmrs = max_int then 0 else survivor_min_rmrs);
    finished = Intset.cardinal !finished;
    removed = Intset.cardinal !removed;
    escaped = Intset.cardinal !escaped;
    replay_checked_steps = !total_checked;
    predicted_lower_bound = Bounds.theorem1_lower ~n:config.n ~w:config.width;
    schedule =
      { ctx; directives = Vec.to_array committed; metas = List.rev !metas };
  }
