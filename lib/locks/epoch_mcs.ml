module Memory = Rme_memory.Memory
module Bitword = Rme_util.Bitword
module Lock_intf = Rme_sim.Lock_intf
module Prog = Rme_sim.Prog
open Prog.Infix

let nil = 0
let st_idle = 0
let st_trying = 1
let st_releasing = 2

type t = {
  epoch : Memory.loc; (* incremented by the system on each crash *)
  reset_done : Memory.loc; (* last epoch whose queue reset completed *)
  cleaner_for : Memory.loc; (* election token: epoch someone is resetting *)
  owner : Memory.loc; (* pid + 1 of the CS-entitled process; 0 = free *)
  tail : Memory.loc;
  locked : Memory.loc array;
  next : Memory.loc array;
  status : Memory.loc array; (* st_* per process, persistent *)
  detached : Memory.loc array; (* 1: my queue node predates the last reset *)
}

let make memory ~n =
  let t =
    {
      epoch = Memory.alloc memory ~init:1;
      reset_done = Memory.alloc memory ~init:1;
      cleaner_for = Memory.alloc memory ~init:1;
      owner = Memory.alloc memory ~init:0;
      tail = Memory.alloc memory ~init:nil;
      locked =
        Array.init n (fun p -> Memory.alloc memory ~owner:p ~init:0);
      next =
        Array.init n (fun p -> Memory.alloc memory ~owner:p ~init:nil);
      status =
        Array.init n (fun p -> Memory.alloc memory ~owner:p ~init:st_idle);
      detached =
        Array.init n (fun p -> Memory.alloc memory ~owner:p ~init:0);
    }
  in
  (* Bring the queue up to date with the current epoch: elect one
     cleaner per epoch (CAS on [cleaner_for]); the winner resets the
     queue and publishes [reset_done]. Safe because after a system-wide
     crash no process from the previous epoch has steps in flight. *)
  let ensure_reset () =
    let* e = Prog.read t.epoch in
    let* rd = Prog.read t.reset_done in
    if rd = e then Prog.return ()
    else begin
      let* c = Prog.read t.cleaner_for in
      let* won =
        if c <> e then Prog.cas t.cleaner_for ~expected:c ~desired:e
        else Prog.return false
      in
      if won then begin
        let* () = Prog.write t.tail nil in
        Prog.write t.reset_done e
      end
      else begin
        let* _ = Prog.await t.reset_done (fun v -> v = e) in
        Prog.return ()
      end
    end
  in
  let entry ~pid =
    let me = pid + 1 in
    let* () = Prog.write t.status.(pid) st_trying in
    let* () = Prog.write t.detached.(pid) 0 in
    let* () = ensure_reset () in
    (* Plain MCS enqueue. *)
    let* () = Prog.write t.next.(pid) nil in
    let* () = Prog.write t.locked.(pid) 1 in
    let* pred = Prog.fas t.tail me in
    let* () =
      if pred = nil then Prog.return ()
      else begin
        let* () = Prog.write t.next.(pred - 1) me in
        let* _ = Prog.await t.locked.(pid) (fun v -> v = 0) in
        Prog.return ()
      end
    in
    (* Queue won; additionally wait out a pre-crash owner, then claim. *)
    let* _ = Prog.await t.owner (fun v -> v = 0) in
    Prog.write t.owner me
  in
  let exit ~pid =
    let me = pid + 1 in
    let* () = Prog.write t.status.(pid) st_releasing in
    let* det = Prog.read t.detached.(pid) in
    let* () =
      let* o = Prog.read t.owner in
      if o = me then Prog.write t.owner 0 else Prog.return ()
    in
    let* () =
      if det = 1 then
        (* The queue was reset while we held the lock: our node is not in
           it, and the post-reset head is gated on [owner = 0], which the
           write above opened. Nothing to hand off. *)
        Prog.write t.detached.(pid) 0
      else begin
        (* Plain MCS handoff. *)
        let* succ = Prog.read t.next.(pid) in
        if succ <> nil then Prog.write t.locked.(succ - 1) 0
        else begin
          let* swung = Prog.cas t.tail ~expected:me ~desired:nil in
          if swung then Prog.return ()
          else begin
            let* succ = Prog.await t.next.(pid) (fun v -> v <> nil) in
            Prog.write t.locked.(succ - 1) 0
          end
        end
      end
    in
    Prog.write t.status.(pid) st_idle
  in
  (* Only meaningful after a system-wide crash (the only crashes this
     lock supports): every process recovers together, so the queue of the
     previous epoch is garbage and is rebuilt. *)
  let recover ~pid =
    let me = pid + 1 in
    let* () = ensure_reset () in
    let* st = Prog.read t.status.(pid) in
    if st = st_idle then Prog.return Lock_intf.Resume_entry
    else begin
      let* o = Prog.read t.owner in
      if st = st_trying then begin
        if o = me then begin
          (* We held (or had just claimed) the lock: re-enter the CS. Our
             queue node is gone; mark the exit to skip the handoff. *)
          let* () = Prog.write t.detached.(pid) 1 in
          Prog.return Lock_intf.In_cs
        end
        else Prog.return Lock_intf.Resume_entry
      end
      else begin
        (* st_releasing *)
        if o = me then begin
          let* () = Prog.write t.detached.(pid) 1 in
          Prog.return Lock_intf.Resume_exit
        end
        else begin
          (* The release was committed before the crash; the rest of the
             exit was queue handoff, which the reset obsoleted. *)
          let* () = Prog.write t.status.(pid) st_idle in
          Prog.return Lock_intf.Passage_done
        end
      end
    end
  in
  { Lock_intf.entry; exit; recover; system_epoch = Some t.epoch }

let factory =
  {
    Lock_intf.name = "epoch-mcs";
    recoverable = true;
    min_width = (fun ~n -> max 2 (Bitword.bits_needed (n + 1)));
    make;
  }
