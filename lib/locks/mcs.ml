module Memory = Rme_memory.Memory
module Bitword = Rme_util.Bitword
module Lock_intf = Rme_sim.Lock_intf
module Prog = Rme_sim.Prog
open Prog.K

(* Queue-node pointers are encoded as pid + 1, with 0 meaning nil. *)
let nil = 0

type t = {
  tail : Memory.loc;
  locked : Memory.loc array; (* locked.(p): p spins here, in p's segment *)
  next : Memory.loc array; (* next.(p): successor pointer of p's node *)
}

let make memory ~n =
  let t =
    {
      tail = Memory.alloc memory ~init:nil;
      locked =
        Array.init n (fun p -> Memory.alloc memory ~owner:p ~init:0);
      next =
        Array.init n (fun p -> Memory.alloc memory ~owner:p ~init:nil);
    }
  in
  let entry ~pid =
    let me = pid + 1 in
    write t.next.(pid) nil @@ fun _ ->
    write t.locked.(pid) 1 @@ fun _ ->
    fas t.tail me @@ fun pred ->
    if pred = nil then Prog.return ()
    else begin
      write t.next.(pred - 1) me @@ fun _ ->
      await t.locked.(pid) (fun v -> v = 0) @@ fun _ ->
      Prog.return ()
    end
  in
  let exit ~pid =
    let me = pid + 1 in
    read t.next.(pid) @@ fun succ ->
    if succ <> nil then Prog.write t.locked.(succ - 1) 0
    else begin
      cas t.tail ~expected:me ~desired:nil @@ fun swung ->
      if swung then Prog.return ()
      else begin
        (* A successor swapped the tail but has not linked yet. *)
        await t.next.(pid) (fun v -> v <> nil) @@ fun succ ->
        Prog.write t.locked.(succ - 1) 0
      end
    end
  in
  {
    Lock_intf.entry;
    exit;
    recover = (fun ~pid:_ k -> k Lock_intf.Resume_entry);
    system_epoch = None;
  }

let factory =
  {
    Lock_intf.name = "mcs";
    recoverable = false;
    min_width = (fun ~n -> Bitword.bits_needed (n + 1));
    make;
  }
