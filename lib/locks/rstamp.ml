module Memory = Rme_memory.Memory
module Bitword = Rme_util.Bitword
module Lock_intf = Rme_sim.Lock_intf
module Prog = Rme_sim.Prog
open Prog.K

type t = {
  lock_word : Memory.loc;
  status : Memory.loc array;
}

let st_idle = 0
let st_trying = 1
let st_releasing = 2

let claim ~me =
  Rme_memory.Op.Rmw
    { name = Printf.sprintf "claim%d" me; f = (fun ~width:_ v -> if v = 0 then me else v) }

let release ~me =
  Rme_memory.Op.Rmw
    { name = Printf.sprintf "release%d" me; f = (fun ~width:_ v -> if v = me then 0 else v) }

let make memory ~n =
  let t =
    {
      lock_word = Memory.alloc memory ~init:0;
      status =
        Array.init n (fun p -> Memory.alloc memory ~owner:p ~init:st_idle);
    }
  in
  (* Each process's two operations, built once rather than per attempt. *)
  let claims = Array.init n (fun pid -> claim ~me:(pid + 1)) in
  let releases = Array.init n (fun pid -> release ~me:(pid + 1)) in
  let entry ~pid =
    write t.status.(pid) st_trying @@ fun _ ->
    let rec acquire () =
      await t.lock_word (fun v -> v = 0) @@ fun _ ->
      op t.lock_word claims.(pid) @@ fun old ->
      if old = 0 then Prog.return () else acquire ()
    in
    acquire ()
  in
  let exit ~pid =
    write t.status.(pid) st_releasing @@ fun _ ->
    (* The release RMW is idempotent by construction. *)
    op t.lock_word releases.(pid) @@ fun _ ->
    Prog.write t.status.(pid) st_idle
  in
  let recover ~pid k =
    let me = pid + 1 in
    read t.status.(pid) @@ fun st ->
    if st = st_idle then k Lock_intf.Resume_entry
    else if st = st_releasing then k Lock_intf.Resume_exit
    else begin
      read t.lock_word @@ fun v ->
      k (if v = me then Lock_intf.In_cs else Resume_entry)
    end
  in
  { Lock_intf.entry; exit; recover; system_epoch = None }

let factory =
  {
    Lock_intf.name = "rstamp";
    recoverable = true;
    min_width = (fun ~n -> max 2 (Bitword.bits_needed (n + 1)));
    make;
  }
