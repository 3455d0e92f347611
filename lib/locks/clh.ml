module Memory = Rme_memory.Memory
module Bitword = Rme_util.Bitword
module Lock_intf = Rme_sim.Lock_intf
module Prog = Rme_sim.Prog
open Prog.K

(* Cells are indexed 0 .. 2n; cell values: 1 = locked (request pending),
   0 = granted. The tail stores a cell index. Cell 0 is the initial
   dummy (granted). Each process owns two cells and rotates: after a
   passage its "my cell" becomes the predecessor's cell. *)

type t = {
  tail : Memory.loc; (* holds a cell index *)
  cells : Memory.loc array;
  my_cell : int array; (* per-process register: current request cell *)
  pred_cell : int array; (* per-process register: predecessor's cell *)
}

let make memory ~n =
  let cells =
    Array.init ((2 * n) + 1) (fun i ->
        (* Cell ownership for DSM accounting: the initial cell of process
           p is p's; the dummy and rotated cells migrate, so ownership is
           only the initial assignment (CLH is a CC-model lock). *)
        let owner = if i >= 1 && i <= n then Some (i - 1) else None in
        Memory.alloc ?owner memory ~init:0)
  in
  let t =
    {
      tail = Memory.alloc memory ~init:0;
      cells;
      my_cell = Array.init n (fun p -> p + 1);
      pred_cell = Array.make n (n + 1);
    }
  in
  (* Assign distinct spare cells for the rotation. *)
  Array.iteri (fun p _ -> t.pred_cell.(p) <- n + 1 + p) t.my_cell;
  ignore (Array.length t.pred_cell);
  let entry ~pid =
    let mine = t.my_cell.(pid) in
    write t.cells.(mine) 1 @@ fun _ ->
    fas t.tail mine @@ fun pred ->
    t.pred_cell.(pid) <- pred;
    await t.cells.(pred) (fun v -> v = 0) @@ fun _ ->
    Prog.return ()
  in
  let exit ~pid =
    let mine = t.my_cell.(pid) in
    write t.cells.(mine) 0 @@ fun _ ->
    (* Rotate: reuse the predecessor's (now quiescent) cell next time. *)
    t.my_cell.(pid) <- t.pred_cell.(pid);
    Prog.return ()
  in
  {
    Lock_intf.entry;
    exit;
    recover = (fun ~pid:_ k -> k Lock_intf.Resume_entry);
    system_epoch = None;
  }

let factory =
  {
    Lock_intf.name = "clh";
    recoverable = false;
    min_width = (fun ~n -> Bitword.bits_needed ((2 * n) + 1));
    make;
  }
