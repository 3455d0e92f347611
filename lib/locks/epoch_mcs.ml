module Memory = Rme_memory.Memory
module Bitword = Rme_util.Bitword
module Lock_intf = Rme_sim.Lock_intf
module Prog = Rme_sim.Prog
open Prog.K

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
     queue and publishes [reset_done], then [next]. Safe because after
     a system-wide crash no process from the previous epoch has steps in
     flight. *)
  let ensure_reset next =
    read t.epoch @@ fun e ->
    read t.reset_done @@ fun rd ->
    if rd = e then next ()
    else begin
      read t.cleaner_for @@ fun c ->
      let elected won =
        if won then begin
          write t.tail nil @@ fun _ ->
          write t.reset_done e @@ fun _ ->
          next ()
        end
        else begin
          await t.reset_done (fun v -> v = e) @@ fun _ ->
          next ()
        end
      in
      if c <> e then cas t.cleaner_for ~expected:c ~desired:e elected
      else elected false
    end
  in
  let entry ~pid =
    let me = pid + 1 in
    write t.status.(pid) st_trying @@ fun _ ->
    write t.detached.(pid) 0 @@ fun _ ->
    ensure_reset @@ fun () ->
    (* Plain MCS enqueue. *)
    write t.next.(pid) nil @@ fun _ ->
    write t.locked.(pid) 1 @@ fun _ ->
    fas t.tail me @@ fun pred ->
    (* Queue won; additionally wait out a pre-crash owner, then claim. *)
    let claim _ =
      await t.owner (fun v -> v = 0) @@ fun _ ->
      Prog.write t.owner me
    in
    if pred = nil then claim 0
    else begin
      write t.next.(pred - 1) me @@ fun _ ->
      await t.locked.(pid) (fun v -> v = 0) claim
    end
  in
  let exit ~pid =
    let me = pid + 1 in
    write t.status.(pid) st_releasing @@ fun _ ->
    read t.detached.(pid) @@ fun det ->
    read t.owner @@ fun o ->
    let idle _ = Prog.write t.status.(pid) st_idle in
    let hand_off _ =
      if det = 1 then
        (* The queue was reset while we held the lock: our node is not in
           it, and the post-reset head is gated on [owner = 0], which the
           owner write opened. Nothing to hand off. *)
        write t.detached.(pid) 0 idle
      else begin
        (* Plain MCS handoff. *)
        read t.next.(pid) @@ fun succ ->
        if succ <> nil then write t.locked.(succ - 1) 0 idle
        else begin
          cas t.tail ~expected:me ~desired:nil @@ fun swung ->
          if swung then idle 0
          else begin
            await t.next.(pid) (fun v -> v <> nil) @@ fun succ ->
            write t.locked.(succ - 1) 0 idle
          end
        end
      end
    in
    if o = me then write t.owner 0 hand_off else hand_off 0
  in
  (* Only meaningful after a system-wide crash (the only crashes this
     lock supports): every process recovers together, so the queue of the
     previous epoch is garbage and is rebuilt. *)
  let recover ~pid =
    let me = pid + 1 in
    ensure_reset @@ fun () ->
    read t.status.(pid) @@ fun st ->
    if st = st_idle then Prog.return Lock_intf.Resume_entry
    else begin
      read t.owner @@ fun o ->
      if st = st_trying then begin
        if o = me then begin
          (* We held (or had just claimed) the lock: re-enter the CS. Our
             queue node is gone; mark the exit to skip the handoff. *)
          write t.detached.(pid) 1 @@ fun _ ->
          Prog.return Lock_intf.In_cs
        end
        else Prog.return Lock_intf.Resume_entry
      end
      else begin
        (* st_releasing *)
        if o = me then begin
          write t.detached.(pid) 1 @@ fun _ ->
          Prog.return Lock_intf.Resume_exit
        end
        else begin
          (* The release was committed before the crash; the rest of the
             exit was queue handoff, which the reset obsoleted. *)
          write t.status.(pid) st_idle @@ fun _ ->
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
