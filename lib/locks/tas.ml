module Memory = Rme_memory.Memory
module Lock_intf = Rme_sim.Lock_intf
module Prog = Rme_sim.Prog
open Prog.K

type t = { bit : Memory.loc }

let make memory ~n:_ =
  let bit = Memory.alloc memory ~init:0 in
  let t = { bit } in
  let rec acquire () =
    await t.bit (fun v -> v = 0) @@ fun _ ->
    fas t.bit 1 @@ fun old ->
    if old = 0 then Prog.return () else acquire ()
  in
  {
    Lock_intf.entry = (fun ~pid:_ -> acquire ());
    exit = (fun ~pid:_ -> Prog.write t.bit 0);
    recover = (fun ~pid:_ k -> k Lock_intf.Resume_entry);
    system_epoch = None;
  }

let factory =
  { Lock_intf.name = "tas"; recoverable = false; min_width = (fun ~n:_ -> 1); make }
