module Memory = Rme_memory.Memory
module Op = Rme_memory.Op
module Rmr = Rme_memory.Rmr
module Lock_intf = Rme_sim.Lock_intf
module Stepper = Rme_sim.Stepper

type t = Stepper.t

let settle t ~pid = Stepper.settle t ~pid ~on_boundary:(fun _ _ -> ())

(* One-shot: each process's single super-passage begins at once, so
   every process starts poised at the top of its entry section. *)
let begin_all t =
  for pid = 0 to Stepper.n t - 1 do
    settle t ~pid
  done

let create ?trace ~n ~width ~model factory =
  if not (Lock_intf.supports factory ~n ~width) then
    invalid_arg
      (Printf.sprintf "Machine.create: lock %s needs width >= %d for n = %d"
         factory.Lock_intf.name
         (factory.Lock_intf.min_width ~n)
         n);
  let t = Stepper.create ?trace ~n ~width ~model ~superpassages:1 ~cs:None factory in
  begin_all t;
  t

let memory = Stepper.memory
let rmr = Stepper.rmr
let n = Stepper.n

let phase t ~pid =
  settle t ~pid;
  (Stepper.procs t).(pid).section

let completed t ~pid = phase t ~pid = Stepper.Remainder

let peek t ~pid =
  settle t ~pid;
  let loc = Stepper.poised_loc t ~pid in
  if loc < 0 then None else Some (loc, Stepper.poised_op t ~pid)

(* Like [peek |> would_incur] but without materialising the option —
   the adversary asks this before every step it takes. *)
let poised_rmr t ~pid =
  settle t ~pid;
  let loc = Stepper.poised_loc t ~pid in
  loc >= 0
  && Rmr.would_incur (rmr t) ~pid ~loc
       ~owner:(Memory.owner (memory t) loc)
       ~is_read:(Op.is_read (Stepper.poised_op t ~pid))

let step t ~pid =
  if completed t ~pid then invalid_arg "Machine.step: process already completed";
  Stepper.step_record t ~pid

let crash = Stepper.crash

let run_to_completion t ~pid ~cap ~on_step =
  let rec loop taken =
    if completed t ~pid then true
    else if taken >= cap then false
    else begin
      on_step (step t ~pid);
      loop (taken + 1)
    end
  in
  loop 0

let crashes t ~pid = (Stepper.procs t).(pid).crashes
let cs_entries t ~pid = (Stepper.procs t).(pid).cs_entries
let total_rmrs t ~pid = Rmr.total (rmr t) ~pid

let reset t =
  Stepper.reset t;
  begin_all t
