module Memory = Rme_memory.Memory
module Lock_intf = Rme_sim.Lock_intf
module Prog = Rme_sim.Prog
open Prog.K

type t = {
  node : Memory.loc array; (* node.(i): 0 free, side + 1 held; i in 1..num *)
  status : Memory.loc array; (* status.(p) in p's segment *)
}

let st_idle = 0
let st_trying = 1
let st_releasing = 2

let make memory ~n =
  let num = Tree.num_nodes ~n in
  let t =
    {
      node =
Memory.alloc_array memory ~init:0 ~len:(num + 1);
      status =
        Array.init n (fun p -> Memory.alloc memory ~owner:p ~init:st_idle);
    }
  in
  (* Index (exclusive) of the top of the contiguous held segment of
     [path]: [held_top path next] passes [next] the smallest [h] such
     that levels [0 .. h-1] are held and level [h] is not (so
     [h = length] means the whole path, hence the lock, is held). *)
  let held_top path next =
    let len = Array.length path in
    let rec scan h =
      if h >= len then next len
      else begin
        let node, side = path.(h) in
        read t.node.(node) @@ fun v ->
        if v = side + 1 then scan (h + 1) else next h
      end
    in
    scan 0
  in
  let entry ~pid =
    let path = Tree.path ~n ~pid in
    let len = Array.length path in
    write t.status.(pid) st_trying @@ fun _ ->
    let rec climb h =
      if h >= len then Prog.return ()
      else begin
        let node, side = path.(h) in
        let rec acquire () =
          await t.node.(node) (fun v -> v = 0) @@ fun _ ->
          cas t.node.(node) ~expected:0 ~desired:(side + 1) @@ fun won ->
          if won then climb (h + 1) else acquire ()
        in
        acquire ()
      end
    in
    held_top path climb
  in
  let exit ~pid =
    let path = Tree.path ~n ~pid in
    write t.status.(pid) st_releasing @@ fun _ ->
    held_top path @@ fun h ->
    let rec descend i =
      if i < 0 then Prog.write t.status.(pid) st_idle
      else begin
        let node, _side = path.(i) in
        write t.node.(node) 0 @@ fun _ -> descend (i - 1)
      end
    in
    descend (h - 1)
  in
  let recover ~pid =
    let path = Tree.path ~n ~pid in
    read t.status.(pid) @@ fun st ->
    (* idle = the crash hit before the first entry step (see Rcas). *)
    if st = st_idle then Prog.return Lock_intf.Resume_entry
    else if st = st_releasing then Prog.return Lock_intf.Resume_exit
    else begin
      held_top path @@ fun h ->
      if h = Array.length path then Prog.return Lock_intf.In_cs
      else Prog.return Lock_intf.Resume_entry
    end
  in
  { Lock_intf.entry; exit; recover; system_epoch = None }

let factory =
  {
    Lock_intf.name = "rtournament";
    recoverable = true;
    min_width = (fun ~n:_ -> 2);
    make;
  }
