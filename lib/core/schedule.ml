module Intset = Rme_util.Intset
module Op = Rme_memory.Op
module Trace = Rme_sim.Trace

type context = {
  n : int;
  width : int;
  model : Rme_memory.Rmr.model;
  factory : Rme_sim.Lock_intf.factory;
}

(* Steps a crash-and-complete run may take before it counts as stuck. *)
let completion_cap = 100_000

type directive =
  | D_local of int
  | D_step of { pid : int; hidden_as : int list }
  | D_crash of int
  | D_complete of int

type record =
  | R_local of int
  | R_step of { loc : int; old_value : int }
  | R_crash
  | R_complete of int

let pid_of_directive = function
  | D_local p | D_step { pid = p; _ } | D_crash p | D_complete p -> p

exception Diverged of string

let diverged fmt = Printf.ksprintf (fun m -> raise (Diverged m)) fmt

type play = {
  m : Machine.t;
  visible : (int, Intset.t) Hashtbl.t;
  mutable checked : int;
}

let fresh_play ?trace ctx =
  {
    m = Machine.create ?trace ~n:ctx.n ~width:ctx.width ~model:ctx.model ctx.factory;
    visible = Hashtbl.create 256;
    checked = 0;
  }

let visible_at play loc =
  Option.value ~default:Intset.empty (Hashtbl.find_opt play.visible loc)

let update_visible play (s : Trace.step) =
  match s.op with
  | Op.Read -> ()
  | Op.Write _ | Op.Fas _ -> Hashtbl.replace play.visible s.loc (Intset.singleton s.pid)
  | Op.Cas { expected; _ } ->
      if s.old_value = expected then
        Hashtbl.replace play.visible s.loc (Intset.singleton s.pid)
  | Op.Faa _ | Op.Rmw _ ->
      Hashtbl.replace play.visible s.loc (Intset.add s.pid (visible_at play s.loc))

let do_local play ~pid =
  let s = Machine.step play.m ~pid in
  if s.rmr then diverged "local step of p%d incurred an RMR" pid;
  update_visible play s;
  s

let do_step play ~pid ~hidden_as =
  let s = Machine.step play.m ~pid in
  (match hidden_as with
  | [] -> update_visible play s
  | v ->
      (* Officially, the crash-bound A-processes produced this value. *)
      Hashtbl.replace play.visible s.loc
        (List.fold_left (fun acc p -> Intset.add p acc) Intset.empty v));
  s

let do_complete play ~pid ~on_step =
  let count = ref 0 in
  let ok =
    Machine.run_to_completion play.m ~pid ~cap:completion_cap ~on_step:(fun s ->
        incr count;
        update_visible play s;
        on_step s)
  in
  (ok, !count)

let exec_replay play (d, r) =
  match (d, r) with
  | D_local pid, R_local expected ->
      let taken = ref 0 in
      let continue = ref true in
      while !continue do
        match Machine.peek play.m ~pid with
        | None -> continue := false
        | Some _ ->
            if Machine.poised_rmr play.m ~pid || !taken >= expected then
              continue := false
            else begin
              ignore (do_local play ~pid);
              incr taken
            end
      done;
      if !taken <> expected then
        diverged "replay: p%d took %d local steps, expected %d" pid !taken
          expected;
      play.checked <- play.checked + 1
  | D_step { pid; hidden_as }, R_step { loc; old_value } ->
      let s = do_step play ~pid ~hidden_as in
      if s.loc <> loc || s.old_value <> old_value then
        diverged "replay: p%d observed (R%d, %d), expected (R%d, %d)" pid s.loc
          s.old_value loc old_value;
      play.checked <- play.checked + 1
  | D_crash pid, R_crash -> Machine.crash play.m ~pid
  | D_complete pid, R_complete expected ->
      let ok, count = do_complete play ~pid ~on_step:ignore in
      if not ok then diverged "replay: p%d did not complete" pid;
      if count <> expected then
        diverged "replay: p%d completed in %d steps, expected %d" pid count
          expected;
      play.checked <- play.checked + 1
  | D_local _, (R_step _ | R_crash | R_complete _)
  | D_step _, (R_local _ | R_crash | R_complete _)
  | D_crash _, (R_local _ | R_step _ | R_complete _)
  | D_complete _, (R_local _ | R_step _ | R_crash) ->
      diverged "replay: directive/record mismatch"

let reset_play play =
  Machine.reset play.m;
  Hashtbl.reset play.visible;
  play.checked <- 0

let replay play ?(keep = fun _ -> true) directives =
  reset_play play;
  Rme_util.Vec.iter
    (fun dr -> if keep (pid_of_directive (fst dr)) then exec_replay play dr)
    directives
