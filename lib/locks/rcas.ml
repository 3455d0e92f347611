module Memory = Rme_memory.Memory
module Bitword = Rme_util.Bitword
module Lock_intf = Rme_sim.Lock_intf
module Prog = Rme_sim.Prog
open Prog.K

type t = {
  lock_word : Memory.loc; (* owner pid + 1; 0 = free *)
  status : Memory.loc array; (* status.(p) in p's segment, persistent *)
}

let st_idle = 0
let st_trying = 1
let st_releasing = 2

let make memory ~n =
  let t =
    {
      lock_word = Memory.alloc memory ~init:0;
      status =
        Array.init n (fun p -> Memory.alloc memory ~owner:p ~init:st_idle);
    }
  in
  let entry ~pid =
    let me = pid + 1 in
    write t.status.(pid) st_trying @@ fun _ ->
    let rec acquire () =
      await t.lock_word (fun v -> v = 0) @@ fun _ ->
      cas t.lock_word ~expected:0 ~desired:me @@ fun won ->
      if won then Prog.return () else acquire ()
    in
    acquire ()
  in
  let exit ~pid =
    let me = pid + 1 in
    write t.status.(pid) st_releasing @@ fun _ ->
    read t.lock_word @@ fun v ->
    let idle _ = Prog.write t.status.(pid) st_idle in
    if v = me then write t.lock_word 0 idle else idle 0
  in
  let recover ~pid =
    let me = pid + 1 in
    read t.status.(pid) @@ fun st ->
    (* idle means the crash struck before the first entry step: exit's
       final status write is the last step of the passage, so a crash can
       never observe idle *after* completing a super-passage. The entry
       protocol must still be run. *)
    if st = st_idle then Prog.return Lock_intf.Resume_entry
    else if st = st_releasing then Prog.return Lock_intf.Resume_exit
    else begin
      read t.lock_word @@ fun v ->
      if v = me then Prog.return Lock_intf.In_cs
      else Prog.return Lock_intf.Resume_entry
    end
  in
  { Lock_intf.entry; exit; recover; system_epoch = None }

let factory =
  {
    Lock_intf.name = "rcas";
    recoverable = true;
    min_width = (fun ~n -> max 2 (Bitword.bits_needed (n + 1)));
    make;
  }
