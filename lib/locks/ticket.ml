module Memory = Rme_memory.Memory
module Bitword = Rme_util.Bitword
module Lock_intf = Rme_sim.Lock_intf
module Prog = Rme_sim.Prog
open Prog.K

type t = {
  next : Memory.loc;
  serving : Memory.loc;
  width : int;
  my_ticket : int array; (* per-process register: ticket of current passage *)
}

let make memory ~n =
  let t =
    {
      next = Memory.alloc memory ~init:0;
      serving = Memory.alloc memory ~init:0;
      width = Memory.width memory;
      my_ticket = Array.make n 0;
    }
  in
  let entry ~pid =
    fai t.next @@ fun ticket ->
    t.my_ticket.(pid) <- ticket;
    await t.serving (fun v -> v = ticket) @@ fun _ ->
    Prog.return ()
  in
  let exit ~pid =
    Prog.write t.serving (Bitword.add ~width:t.width t.my_ticket.(pid) 1)
  in
  {
    Lock_intf.entry;
    exit;
    recover = (fun ~pid:_ k -> k Lock_intf.Resume_entry);
    system_epoch = None;
  }

let factory =
  {
    Lock_intf.name = "ticket";
    recoverable = false;
    min_width = (fun ~n -> Bitword.bits_needed (n + 1));
    make;
  }
