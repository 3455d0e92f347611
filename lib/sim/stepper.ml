module Memory = Rme_memory.Memory
module Op = Rme_memory.Op
module Rmr = Rme_memory.Rmr

type section = Trace.section = Remainder | Entry | Cs | Exit | Recovery
type step = Trace.step
type boundary = Begin_superpassage | Enter_cs | Leave_cs | End_superpassage

type proc = {
  mutable section : section;
  mutable prog : unit Prog.t; (* the program of the current section *)
  mutable resume : Lock_intf.resume; (* what [recover] decided, once it returned *)
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
    resume = Lock_intf.Passage_done;
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
  match p.prog with
  | Prog.Step _ -> ()
  | Prog.Return () -> (
      match (p.section, p.resume) with
      | Remainder, _ ->
          if p.left > 0 then begin
            on_boundary pid Begin_superpassage;
            run_in t p ~pid ~on_boundary Entry (t.lock.entry ~pid)
          end
      | Entry, _ | Recovery, Lock_intf.In_cs ->
          on_boundary pid Enter_cs;
          p.cs_entries <- p.cs_entries + 1;
          run_in t p ~pid ~on_boundary Cs (t.cs ~pid ~attempt:(t.superpassages - p.left))
      | Cs, _ ->
          on_boundary pid Leave_cs;
          run_in t p ~pid ~on_boundary Exit (t.lock.exit ~pid)
      | Recovery, Lock_intf.Resume_entry ->
          run_in t p ~pid ~on_boundary Entry (t.lock.entry ~pid)
      | Recovery, Lock_intf.Resume_exit ->
          run_in t p ~pid ~on_boundary Exit (t.lock.exit ~pid)
      | Exit, _ | Recovery, Lock_intf.Passage_done ->
          on_boundary pid End_superpassage;
          p.left <- p.left - 1;
          p.section <- Remainder)

and run_in t p ~pid ~on_boundary section prog =
  p.section <- section;
  p.prog <- prog;
  settle t ~pid ~on_boundary

(* A process is poised exactly when its program is a [Step]: in the
   remainder it is always [Return ()]. *)
let poised_loc t ~pid =
  match t.procs.(pid).prog with Prog.Step (loc, _, _) -> loc | Prog.Return () -> -1

let not_poised fn = invalid_arg (fn ^ ": process is not poised on a step")

let poised_op t ~pid =
  match t.procs.(pid).prog with
  | Prog.Step (_, op, _) -> op
  | Prog.Return () -> not_poised "Stepper.poised_op"

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
  match p.prog with
  | Prog.Step (loc, op, k) ->
      let old = Memory.apply t.memory ~pid loc op in
      let rmr = record t ~pid loc op in
      p.prog <- k old;
      rmr
  | Prog.Return () -> not_poised "Stepper.step"

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
  p.prog <-
    t.lock.recover ~pid (fun r ->
        p.resume <- r;
        Prog.Return ())

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
  p.resume <- q.resume;
  p.left <- q.left;
  p.crashes <- q.crashes;
  p.cs_entries <- q.cs_entries

let reset t =
  Memory.reset_values t.memory;
  Rmr.reset t.rmr;
  Option.iter Trace.clear t.trace;
  Array.iter (fun p -> assign p (fresh t.superpassages)) t.procs
