module Memory = Rme_memory.Memory
module Lock_intf = Rme_sim.Lock_intf
module Prog = Rme_sim.Prog
open Prog.K

type t = {
  flag : Memory.loc array array; (* flag.(node).(side) *)
  victim : Memory.loc array; (* victim.(node) *)
}

let make memory ~n =
  let nodes = Tree.num_nodes ~n in
  let t =
    {
      flag =
        Array.init (nodes + 1) (fun _ -> Memory.alloc_array memory ~init:0 ~len:2);
      victim = Memory.alloc_array memory ~init:0 ~len:(nodes + 1);
    }
  in
  (* Two-process Peterson acquisition at one node, then [next]. The
     wait tests two locations, so it is written as an explicit read loop
     rather than [await]. *)
  let acquire_node node side next =
    write t.flag.(node).(side) 1 @@ fun _ ->
    write t.victim.(node) side @@ fun _ ->
    let rec wait () =
      read t.flag.(node).(1 - side) @@ fun other_flag ->
      if other_flag = 0 then next ()
      else begin
        read t.victim.(node) @@ fun v ->
        if v <> side then next () else wait ()
      end
    in
    wait ()
  in
  let entry ~pid =
    let path = Tree.path ~n ~pid in
    let rec climb i =
      if i >= Array.length path then Prog.return ()
      else begin
        let node, side = path.(i) in
        acquire_node node side @@ fun () -> climb (i + 1)
      end
    in
    climb 0
  in
  let exit ~pid =
    let path = Tree.path ~n ~pid in
    let rec descend i =
      if i < 0 then Prog.return ()
      else begin
        let node, side = path.(i) in
        write t.flag.(node).(side) 0 @@ fun _ -> descend (i - 1)
      end
    in
    descend (Array.length path - 1)
  in
  {
    Lock_intf.entry;
    exit;
    recover = (fun ~pid:_ k -> k Lock_intf.Resume_entry);
    system_epoch = None;
  }

let factory =
  {
    Lock_intf.name = "peterson-tree";
    recoverable = false;
    min_width = (fun ~n:_ -> 1);
    make;
  }
