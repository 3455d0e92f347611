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
  (* Indexing the members once replaces the per-element [List.assoc] of
     subset evaluation with O(1) array reads. *)
  let arr = Array.of_list members in
  let pool = min max_pool (Array.length arr) in
  (* Unrandomised, so that which plan is found first (iteration order
     below) does not depend on the runtime's hash seed. *)
  let by_value = Hashtbl.create ~random:false 64 in
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
  (* Two subsets reaching the same value y: pretend s1, execute s2, with
     z a member of s2 outside s1 that may survive. *)
  let plan y s1 s2 =
    List.find_opt
      (fun z -> (not (List.mem z s1)) && not (Intset.mem z forbidden))
      s2
    |> Option.map (fun z ->
           let v = List.sort_uniq compare (s1 @ List.filter (( <> ) z) s2) in
           { steppers = s2; hp_z = z; v; y_next = y })
  in
  let rec pairs y = function
    | [] -> None
    | s2 :: rest -> (
        match List.find_map (fun s1 -> plan y s1 s2) rest with
        | Some _ as p -> p
        | None -> pairs y rest)
  in
  match Seq.find_map (fun (y, subsets) -> pairs y subsets) (Hashtbl.to_seq by_value) with
  | Some _ as p -> p
  | None ->
      (* Fallback: an absorbing operation (write/FAS) hides anything that
         steps before it — the Chan–Woelfel technique. *)
      let absorbing (_, op) =
        match op with Op.Write _ | Op.Fas _ -> true | _ -> false
      in
      Option.bind (List.find_opt absorbing members) (fun (alpha, alpha_op) ->
          List.find_opt
            (fun (p, _) -> p <> alpha && not (Intset.mem p forbidden))
            members
          |> Option.map (fun (z, z_op) ->
                 let y_mid = Op.next_value ~width z_op y0 in
                 let y_next = Op.next_value ~width alpha_op y_mid in
                 { steppers = [ z; alpha ]; hp_z = z; v = [ alpha ]; y_next }))

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
    let m = play.Schedule.m in
    let memory = Machine.memory m in
    let directives : (Schedule.directive * Schedule.record) Vec.t = Vec.create () in
    let push d r = ignore (Vec.push directives (d, r)) in
    let active_set = !active in
    (* The other actives whose effect on [loc] [pid] could observe. *)
    let seen_by pid loc =
      Intset.remove pid (Intset.inter (Schedule.visible_at play loc) active_set)
    in
    (* Every removal set below is a subset of [active_set], so any
       non-empty one forces a replan. *)
    let restart_unless_empty s = if not (Intset.is_empty s) then raise (Restart s) in
    let step pid hidden_as =
      let s = Schedule.do_step play ~pid ~hidden_as in
      push (Schedule.D_step { pid; hidden_as })
        (Schedule.R_step { loc = s.loc; old_value = s.old_value })
    in
    (* Run [pid] to completion; the processes in [exempt] (crashed this
       round alongside it) may be seen. *)
    let new_finished = ref [] in
    let finish ?(exempt = Intset.empty) pid =
      let ok, count =
        Schedule.do_complete play ~pid ~on_step:(fun (s : Rme_sim.Trace.step) ->
            restart_unless_empty (Intset.diff (seen_by pid s.loc) exempt))
      in
      if not ok then raise (Restart (Intset.add pid exempt));
      push (Schedule.D_complete pid) (Schedule.R_complete count);
      new_finished := pid :: !new_finished
    in
    (* Setup phase: run every active to its next RMR-incurring step. A
       process that would observe another active, or is locally stuck
       (waiting on a grant that will never come inside this
       construction), is removed; removing the observer keeps everyone
       else intact. *)
    let rec setup pid taken =
      match Machine.peek m ~pid with
      | None ->
          escaped := Intset.add pid !escaped;
          raise (Restart (Intset.singleton pid))
      | Some _ when Machine.poised_rmr m ~pid -> taken
      | Some (loc, _) ->
          if taken >= local_cap || not (Intset.is_empty (seen_by pid loc)) then
            raise (Restart (Intset.singleton pid));
          ignore (Schedule.do_local play ~pid);
          setup pid (taken + 1)
    in
    let actives = Intset.to_sorted_list active_set in
    List.iter
      (fun pid ->
        let taken = setup pid 0 in
        if taken > 0 then push (Schedule.D_local pid) (Schedule.R_local taken))
      actives;
    (* Processes poised on their critical-section step are finished
       deliberately (the proof "forces them to run to completion"). *)
    let cs_ready, actives =
      List.partition (fun pid -> Machine.phase m ~pid = Rme_sim.Trace.Cs) actives
    in
    List.iter finish cs_ready;
    let outcome kind survivors = (directives, kind, !new_finished, survivors) in
    if actives = [] then outcome Low_contention []
    else begin
      (* The poised (pid, op) pairs grouped by location: one stable sort
         of the pid-ordered triples, then a linear split into runs, each
         ascending by pid, the runs ascending by location. *)
      let runs =
        List.map
          (fun pid ->
            match Machine.peek m ~pid with
            | Some (loc, op) -> (loc, pid, op)
            | None -> raise (Schedule.Diverged "active process lost its poised step"))
          actives
        |> List.stable_sort (fun (l1, _, _) (l2, _, _) -> Int.compare l1 l2)
        |> List.fold_left
             (fun runs (loc, pid, op) ->
               match runs with
               | (l, ms) :: rest when l = loc -> (l, (pid, op) :: ms) :: rest
               | _ -> (loc, [ (pid, op) ]) :: runs)
             []
        |> List.rev_map (fun (loc, ms) -> (loc, List.rev ms))
      in
      let pids ms = Intset.of_list (List.map fst ms) in
      let high, low = List.partition (fun (_, ms) -> List.length ms >= config.k) runs in
      let high_count = List.fold_left (fun acc (_, ms) -> acc + List.length ms) 0 high in
      if high <> [] && 2 * high_count >= List.length actives then begin
        (* ---------------- high contention ---------------- *)
        (* Everyone off the high-contention objects goes, and so do an
           active owner of one and every active visible on one. *)
        let to_remove = ref Intset.empty in
        let remove s = to_remove := Intset.union !to_remove s in
        List.iter (fun (_, ms) -> remove (pids ms)) low;
        List.iter
          (fun (loc, _) ->
            remove (Intset.inter (Schedule.visible_at play loc) active_set);
            match Memory.owner memory loc with
            | Some o when Intset.mem o active_set -> remove (Intset.singleton o)
            | Some _ | None -> ())
          high;
        (* Each object's remaining members in groups of exactly k, in pid
           order; the leftover (fewer than k) goes too. *)
        let rec chunk loc g i = function
          | ms when i = config.k -> (loc, List.rev g) :: chunk loc [] 0 ms
          | x :: ms -> chunk loc (x :: g) (i + 1) ms
          | [] ->
              remove (pids g);
              []
        in
        let groups =
          List.concat_map
            (fun (loc, ms) ->
              List.filter (fun (p, _) -> not (Intset.mem p !to_remove)) ms
              |> chunk loc [] 0)
            high
        in
        let has_reader (_, g) = List.exists (fun (_, op) -> Op.is_read op) g in
        let reader_groups, hide_groups = List.partition has_reader groups in
        let members gs = List.concat_map snd gs in
        if 2 * List.length reader_groups >= List.length groups then begin
          (* Read case: only read-poised members of reader groups stay
             (so a round that removes nobody keeps every active); reads
             are unobservable, so they all step. *)
          remove (pids (members hide_groups));
          let non_reads = List.filter (fun (_, op) -> not (Op.is_read op)) in
          remove (pids (non_reads (members reader_groups)));
          restart_unless_empty !to_remove;
          List.iter (fun pid -> step pid []) actives;
          outcome High_read actives
        end
        else begin
          (* Hide case: reader groups go; plans are threaded per object
             in location order, y starting afresh at each object. *)
          remove (pids (members reader_groups));
          restart_unless_empty !to_remove;
          let plans, _ =
            List.fold_left
              (fun (plans, last) (loc, g) ->
                let y0 =
                  match last with
                  | Some (l, y) when l = loc -> y
                  | _ -> Memory.value memory loc
                in
                match
                  find_hiding ~width:config.width ~y0 ~members:g ~forbidden:!removed
                with
                | Some plan -> (plan :: plans, Some (loc, plan.y_next))
                | None -> raise (Restart (pids g)))
              ([], None) hide_groups
          in
          let plans = List.rev plans in
          let all_v = List.sort_uniq compare (List.concat_map (fun p -> p.v) plans) in
          List.iter (fun p -> List.iter (fun pid -> step pid p.v) p.steppers) plans;
          List.iter
            (fun pid ->
              Machine.crash m ~pid;
              push (Schedule.D_crash pid) Schedule.R_crash)
            all_v;
          List.iter (finish ~exempt:(Intset.of_list all_v)) all_v;
          outcome High_hide (List.sort compare (List.map (fun plan -> plan.hp_z) plans))
        end
      end
      else begin
        (* ---------------- low contention ---------------- *)
        (* An independent set of the conflict graph: a process goes if
           an active other owns its object or is visible there; of the
           rest, the first on each object takes it, and a later one stays
           only if both it and the first read. *)
        let conflicted pid loc =
          (match Memory.owner memory loc with
          | Some o -> o <> pid && Intset.mem o active_set
          | None -> false)
          || not (Intset.is_empty (seen_by pid loc))
        in
        let clashes (loc, ms) =
          match List.partition (fun (pid, _) -> conflicted pid loc) ms with
          | gone, (_, op0) :: rest ->
              let both_read (_, op) = Op.is_read op0 && Op.is_read op in
              gone @ List.filter (fun x -> not (both_read x)) rest
          | gone, [] -> gone
        in
        restart_unless_empty (pids (List.concat_map clashes runs));
        (* Nobody clashed: every active steps. *)
        let survivors = ref [] in
        List.iter
          (fun pid ->
            step pid [];
            if Machine.phase m ~pid = Rme_sim.Trace.Cs then finish pid
            else survivors := pid :: !survivors)
          actives;
        outcome Low_contention (List.rev !survivors)
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
