module Memory = Rme_memory.Memory
module Op = Rme_memory.Op
module Rmr = Rme_memory.Rmr

type section = Trace.section = Remainder | Entry | Cs | Exit | Recovery
type step = Trace.step
type boundary = Begin_superpassage | Enter_cs | Leave_cs | End_superpassage

type proc = {
  mutable section : section;
  mutable prog : unit Prog.t; (* the entry, CS or exit program *)
  mutable recovery : Lock_intf.resume Prog.t; (* the program in [Recovery] *)
  mutable left : int;
  mutable crashes : int;
  mutable cs_entries : int;
}

type t = {
  memory : Memory.t;
  rmr : Rmr.t;
  lock : Lock_intf.instance;
  cs : pid:int -> attempt:int -> unit Prog.t;
  superpassages : int;
  procs : proc array;
  trace : Trace.t option;
}

let fresh superpassages =
  {
    section = Remainder;
    prog = Prog.Return ();
    recovery = Prog.Return Lock_intf.Passage_done;
    left = superpassages;
    crashes = 0;
    cs_entries = 0;
  }

let create ?trace ~n ~width ~model ~superpassages ~cs (factory : Lock_intf.factory) =
  let memory = Memory.create ~width in
  let lock = factory.make memory ~n in
  let cs_loc = Memory.alloc memory ~init:0 in
  let cs =
    match cs with
    | Some body -> body
    | None -> fun ~pid ~attempt:_ -> Prog.write cs_loc (pid land 1)
  in
  let procs = Array.init n (fun _ -> fresh superpassages) in
  { memory; rmr = Rmr.create model ~n; lock; cs; superpassages; procs; trace }

let memory t = t.memory
let rmr t = t.rmr
let n t = Array.length t.procs
let system_epoch t = t.lock.system_epoch
let procs t = t.procs

(* Every critical-section program contains a step, so this terminates. *)
let rec settle t ~pid ~on_boundary =
  let p = t.procs.(pid) in
  match (p.section, p.prog, p.recovery) with
  | (Entry | Cs | Exit), Prog.Step _, _ | Recovery, _, Prog.Step _ -> ()
  | Remainder, _, _ ->
      if p.left > 0 then begin
        on_boundary pid Begin_superpassage;
        run_in t p ~pid ~on_boundary Entry (t.lock.entry ~pid)
      end
  | Entry, Prog.Return (), _ | Recovery, _, Prog.Return Lock_intf.In_cs ->
      on_boundary pid Enter_cs;
      p.cs_entries <- p.cs_entries + 1;
      run_in t p ~pid ~on_boundary Cs (t.cs ~pid ~attempt:(t.superpassages - p.left))
  | Cs, Prog.Return (), _ ->
      on_boundary pid Leave_cs;
      run_in t p ~pid ~on_boundary Exit (t.lock.exit ~pid)
  | Recovery, _, Prog.Return Lock_intf.Resume_entry ->
      run_in t p ~pid ~on_boundary Entry (t.lock.entry ~pid)
  | Recovery, _, Prog.Return Lock_intf.Resume_exit ->
      run_in t p ~pid ~on_boundary Exit (t.lock.exit ~pid)
  | Exit, Prog.Return (), _ | Recovery, _, Prog.Return Lock_intf.Passage_done ->
      on_boundary pid End_superpassage;
      p.left <- p.left - 1;
      p.section <- Remainder

and run_in t p ~pid ~on_boundary section prog =
  p.section <- section;
  p.prog <- prog;
  settle t ~pid ~on_boundary

let poised_loc t ~pid =
  let p = t.procs.(pid) in
  match (p.section, p.prog, p.recovery) with
  | (Entry | Cs | Exit), Prog.Step (loc, _, _), _ | Recovery, _, Prog.Step (loc, _, _)
    ->
      loc
  | (Remainder | Entry | Cs | Exit | Recovery), _, _ -> -1

let not_poised fn = invalid_arg (fn ^ ": process is not poised on a step")

let poised_op t ~pid =
  let p = t.procs.(pid) in
  match (p.section, p.prog, p.recovery) with
  | (Entry | Cs | Exit), Prog.Step (_, op, _), _ | Recovery, _, Prog.Step (_, op, _) ->
      op
  | (Remainder | Entry | Cs | Exit | Recovery), _, _ -> not_poised "Stepper.poised_op"

let record t ~pid loc op =
  Rmr.record t.rmr ~pid ~loc ~owner:(Memory.owner t.memory loc)
    ~is_read:(Op.is_read op)

let emit t event = match t.trace with Some tr -> Trace.record tr event | None -> ()

(* Emit a step whose operation has just been applied. *)
let emit_step t ~pid section loc op old_value rmr : step =
  let new_value = Memory.value t.memory loc in
  let s = { Trace.pid; loc; op; old_value; new_value; rmr; section } in
  emit t (Trace.Step s);
  s

(* Apply the poised operation and resume the program with the value it
   read; return whether it incurred an RMR. *)
let apply_poised t ~pid =
  let p = t.procs.(pid) in
  match (p.section, p.prog, p.recovery) with
  | (Entry | Cs | Exit), Prog.Step (loc, op, k), _ ->
      let old = Memory.apply t.memory ~pid loc op in
      let rmr = record t ~pid loc op in
      p.prog <- k old;
      rmr
  | Recovery, _, Prog.Step (loc, op, k) ->
      let old = Memory.apply t.memory ~pid loc op in
      let rmr = record t ~pid loc op in
      p.recovery <- k old;
      rmr
  | (Remainder | Entry | Cs | Exit | Recovery), _, _ -> not_poised "Stepper.step"

let step_record t ~pid =
  let section = t.procs.(pid).section in
  let loc = poised_loc t ~pid and op = poised_op t ~pid in
  let old_value = Memory.value t.memory loc in
  let rmr = apply_poised t ~pid in
  emit_step t ~pid section loc op old_value rmr

let step t ~pid =
  match t.trace with None -> apply_poised t ~pid | Some _ -> (step_record t ~pid).rmr

let crash t ~pid =
  let p = t.procs.(pid) in
  if p.section = Remainder then
    invalid_arg "Stepper.crash: process is in the remainder section";
  emit t (Trace.Crash { pid; section = p.section });
  p.crashes <- p.crashes + 1;
  Rmr.on_crash t.rmr ~pid;
  p.section <- Recovery;
  p.prog <- Prog.Return ();
  p.recovery <- t.lock.recover ~pid

let epoch_step t =
  match t.lock.system_epoch with
  | Some loc ->
      let op = Op.Faa 1 in
      let old = Memory.apply t.memory ~pid:0 loc op in
      (match Rmr.cache t.rmr with
      | Some c -> ignore (Rme_memory.Cache.access c ~pid:0 ~loc ~is_read:false)
      | None -> ());
      ignore (emit_step t ~pid:0 Recovery loc op old true)
  | None -> ()

let assign p q =
  p.section <- q.section;
  p.prog <- q.prog;
  p.recovery <- q.recovery;
  p.left <- q.left;
  p.crashes <- q.crashes;
  p.cs_entries <- q.cs_entries

let reset t =
  Memory.reset_values t.memory;
  Rmr.reset t.rmr;
  Option.iter Trace.clear t.trace;
  Array.iter (fun p -> assign p (fresh t.superpassages)) t.procs

(* Programs are immutable values ([Prog.t] is a pure free monad), so a
   snapshot shares them; memory values, RMR counters and CC cache state
   are deep-copied. *)
type snapshot = {
  s_memory : Memory.checkpoint;
  s_rmr : Rmr.snapshot;
  s_procs : proc array;
}

let snapshot t =
  {
    s_memory = Memory.checkpoint t.memory;
    s_rmr = Rmr.snapshot t.rmr;
    s_procs = Array.map (fun p -> { p with left = p.left }) t.procs;
  }

let restore t s =
  if Array.length s.s_procs <> n t then
    invalid_arg "Stepper.restore: snapshot of a different process count";
  Memory.restore t.memory s.s_memory;
  Rmr.restore t.rmr s.s_rmr;
  Array.iteri (fun pid q -> assign t.procs.(pid) q) s.s_procs
