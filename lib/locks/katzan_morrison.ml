module Memory = Rme_memory.Memory
module Bitword = Rme_util.Bitword
module Lock_intf = Rme_sim.Lock_intf
module Prog = Rme_sim.Prog
open Prog.Infix

(* Per-process, per-level persistent status encoding for [succ]:
   0 = successor not chosen yet; 1 = committed: no successor;
   s + 2 = committed: successor is slot s. *)
let succ_unset = 0
let succ_none = 1

let st_idle = 0
let st_trying = 1
let st_releasing = 2

type node = {
  mask : Memory.loc; (* bit s set <=> slot s occupied *)
  owner : Memory.loc; (* 0 = free; s + 1 = slot s owns the node *)
  who : Memory.loc array array; (* who.(s): occupant pid, in w-bit chunks *)
}

type t = {
  b : int; (* tree arity; b <= w so a node mask fits one word *)
  levels : int;
  n : int;
  width : int;
  pid_chunks : int;
  nodes : node array array; (* nodes.(k).(j) *)
  pstatus : Memory.loc array; (* per process, in its own segment *)
  succ : Memory.loc array array; (* succ.(p).(k) *)
  xdone : Memory.loc array array; (* xdone.(p).(k): level release done *)
  bell : Memory.loc array array; (* bell.(p).(k): doorbell, local spin *)
}

(* [slot_of t pid k] and [node_of t pid k]: process [pid]'s position at
   level [k] of the [b]-ary tree. The whole path is static. *)
let slot_of t ~pid ~k =
  let rec div p i = if i = 0 then p else div (p / t.b) (i - 1) in
  div pid k mod t.b

let node_of t ~pid ~k =
  let rec div p i = if i = 0 then p else div (p / t.b) (i - 1) in
  div pid (k + 1)

let levels_for ~b ~n =
  if n <= 1 then 0
  else begin
    let rec loop l cap = if cap >= n then l else loop (l + 1) (cap * b) in
    loop 1 b
  end

(* Multi-word values (process IDs wider than w bits) are spelled out as
   little-endian w-bit chunks; see [write_pid_chunks] below. Writers of a
   [who] slot are serialized by slot occupancy, and readers only act on
   the value while the occupant's mask bit is set, so no torn value is
   ever acted upon (a torn read can only happen on the guarded
   crash-recovery re-ring paths, where a garbage pid is detected and
   skipped — spurious doorbells are filtered anyway). *)

let make_with_arity ~arity memory ~n =
  let width = Memory.width memory in
  let b = max 2 (min arity (max 2 n)) in
  if b > width then
    invalid_arg
      (Printf.sprintf "katzan-morrison: arity %d exceeds word width %d" b width);
  let levels = levels_for ~b ~n in
  let pid_bits = max 1 (Bitword.bits_needed n) in
  let pid_chunks = (pid_bits + width - 1) / width in
  let pow = Array.make (levels + 1) 1 in
  for k = 1 to levels do
    pow.(k) <- pow.(k - 1) * b
  done;
  let nodes =
    Array.init levels (fun k ->
        let count = ((n + (pow.(k) * b) - 1) / (pow.(k) * b)) in
        Array.init count (fun _ ->
            {
              mask = Memory.alloc memory ~init:0;
              owner = Memory.alloc memory ~init:0;
              who =
                Array.init b (fun _ -> Memory.alloc_array memory ~init:0 ~len:pid_chunks);
            }))
  in
  let per_proc init =
    Array.init n (fun p -> Memory.alloc_array memory ~owner:p ~init ~len:levels)
  in
  let t =
    {
      b;
      levels;
      n;
      width;
      pid_chunks;
      nodes;
      pstatus =
        Array.init n (fun p -> Memory.alloc memory ~owner:p ~init:st_idle);
      succ = per_proc succ_unset;
      xdone = per_proc 0;
      bell = per_proc 0;
    }
  in
  let node t ~pid ~k = t.nodes.(k).(node_of t ~pid ~k) in
  let chunk_mask = Bitword.mask width in
  let write_pid_chunks locs pid =
    let rec loop i v =
      if i >= Array.length locs then Prog.return ()
      else
        let* () = Prog.write locs.(i) (v land chunk_mask) in
        loop (i + 1) (v lsr width)
    in
    loop 0 pid
  in
  let read_pid_chunks locs =
    let rec loop i acc shift =
      if i >= Array.length locs then Prog.return acc
      else
        let* c = Prog.read locs.(i) in
        loop (i + 1) (acc lor (c lsl shift)) (shift + width)
    in
    loop 0 0 0
  in
  (* Ring the doorbell of the occupant of [slot] at node [nd] for level
     [k]. Safe to call spuriously: a woken waiter believes nothing until
     it sees [owner = its slot + 1]. A torn pid (possible only on
     crash-recovery re-rings while the slot transitions) is skipped. *)
  let ring nd ~k ~slot =
    let* q = read_pid_chunks nd.who.(slot) in
    if q >= 0 && q < n then Prog.write t.bell.(q).(k) 1 else Prog.return ()
  in
  (* Acquire one level: register in the node mask (idempotently — the own
     bit tells whether a crashed run already registered), then take or
     await ownership. *)
  let acquire_level ~pid ~k =
    let nd = node t ~pid ~k in
    let s = slot_of t ~pid ~k in
    let* m = Prog.read nd.mask in
    let* () =
      if Bitword.test_bit m s then Prog.return ()
      else begin
        (* Fresh registration: reset this level's release bookkeeping for
           the new passage, publish the pid, then set the bit. The FAA is
           the commit point; everything before it may be harmlessly
           re-done after a crash. *)
        let* () = Prog.write t.xdone.(pid).(k) 0 in
        let* () = Prog.write t.succ.(pid).(k) succ_unset in
        let* () = write_pid_chunks nd.who.(s) pid in
        let* _ = Prog.faa nd.mask (1 lsl s) in
        Prog.return ()
      end
    in
    let* won = Prog.cas nd.owner ~expected:0 ~desired:(s + 1) in
    if won then Prog.return ()
    else begin
      let rec park () =
        let* o = Prog.read nd.owner in
        if o = s + 1 then Prog.return ()
        else begin
          let* () = Prog.write t.bell.(pid).(k) 0 in
          let* o = Prog.read nd.owner in
          if o = s + 1 then Prog.return ()
          else begin
            let* _ = Prog.await t.bell.(pid).(k) (fun v -> v = 1) in
            park ()
          end
        end
      in
      park ()
    end
  in
  (* Ownership of the path is re-derivable from shared memory: [pid]
     holds a contiguous lower segment of its path, and holds level [k]
     iff it holds level [k-1] and [owner = slot + 1] there (a same-slot
     holder of a higher node must have come through the child node [pid]
     holds, hence is [pid] itself; at level 0 the slot denotes a unique
     process). *)
  let held_prefix ~pid =
    let rec scan k =
      if k >= t.levels then Prog.return t.levels
      else begin
        let nd = node t ~pid ~k in
        let s = slot_of t ~pid ~k in
        let* o = Prog.read nd.owner in
        if o = s + 1 then scan (k + 1) else Prog.return k
      end
    in
    scan 0
  in
  let entry ~pid =
    let* () = Prog.write t.pstatus.(pid) st_trying in
    let* h = held_prefix ~pid in
    let rec climb k =
      if k >= t.levels then Prog.return ()
      else
        let* () = acquire_level ~pid ~k in
        climb (k + 1)
    in
    climb h
  in
  (* Release one level. Idempotent: [xdone] marks completion, [succ]
     commits the successor choice before the ownership transfer, and
     every shared-memory write is guarded so a crashed release re-executes
     exactly the same handoff. *)
  let release_level ~pid ~k =
    let nd = node t ~pid ~k in
    let s = slot_of t ~pid ~k in
    let* xd = Prog.read t.xdone.(pid).(k) in
    if xd = 1 then Prog.return ()
    else begin
      (* Clear the own registration bit first, so no later releaser can
         pick this process as a successor. Only this process touches its
         bit while it occupies the slot, so read-then-FAA is crash-safe. *)
      let* m0 = Prog.read nd.mask in
      let* () =
        if Bitword.test_bit m0 s then
          let* _ = Prog.faa nd.mask (- (1 lsl s)) in
          Prog.return ()
        else Prog.return ()
      in
      let* sc0 = Prog.read t.succ.(pid).(k) in
      let* sc =
        if sc0 <> succ_unset then Prog.return sc0
        else begin
          let* m = Prog.read nd.mask in
          match Bitword.lowest_set_bit m with
          | Some x ->
              let* () = Prog.write t.succ.(pid).(k) (x + 2) in
              Prog.return (x + 2)
          | None ->
              (* Nobody visible: free the node, then look again — an
                 arrival that registered before we freed may have already
                 failed its ownership CAS and parked. *)
              let* o = Prog.read nd.owner in
              let* () =
                if o = s + 1 then Prog.write nd.owner 0 else Prog.return ()
              in
              let* m2 = Prog.read nd.mask in
              let choice =
                match Bitword.lowest_set_bit m2 with
                | Some x -> x + 2
                | None -> succ_none
              in
              let* () = Prog.write t.succ.(pid).(k) choice in
              Prog.return choice
        end
      in
      let* () =
        if sc = succ_none then Prog.return ()
        else begin
          let x = sc - 2 in
          let* o = Prog.read nd.owner in
          let* () =
            if o = s + 1 then Prog.write nd.owner (x + 1)
            else if o = 0 then begin
              (* Crash-recovery or helped-grant path: grant only if slot
                 [x] is still occupied (its bit is set); otherwise the
                 handoff already happened in a previous attempt. *)
              let* mm = Prog.read nd.mask in
              if Bitword.test_bit mm x then
                let* _ = Prog.cas nd.owner ~expected:0 ~desired:(x + 1) in
                Prog.return ()
              else Prog.return ()
            end
            else Prog.return ()
          in
          ring nd ~k ~slot:x
        end
      in
      Prog.write t.xdone.(pid).(k) 1
    end
  in
  let exit ~pid =
    let* () = Prog.write t.pstatus.(pid) st_releasing in
    let rec descend k =
      if k < 0 then Prog.return ()
      else
        let* () = release_level ~pid ~k in
        descend (k - 1)
    in
    let* () = descend (t.levels - 1) in
    Prog.write t.pstatus.(pid) st_idle
  in
  let recover ~pid =
    let* st = Prog.read t.pstatus.(pid) in
    (* idle = the crash hit before the first entry step (see Rcas). *)
    if st = st_idle then Prog.return Lock_intf.Resume_entry
    else if st = st_releasing then Prog.return Lock_intf.Resume_exit
    else begin
      let* h = held_prefix ~pid in
      if h = t.levels then Prog.return Lock_intf.In_cs
      else Prog.return Lock_intf.Resume_entry
    end
  in
  { Lock_intf.entry; exit; recover; system_epoch = None }

let factory_with_arity arity =
  {
    Lock_intf.name = Printf.sprintf "katzan-morrison-b%d" arity;
    recoverable = true;
    min_width = (fun ~n:_ -> max 2 arity);
    make = (fun memory ~n -> make_with_arity ~arity memory ~n);
  }

let factory =
  {
    Lock_intf.name = "katzan-morrison";
    recoverable = true;
    min_width = (fun ~n:_ -> 2);
    make =
      (fun memory ~n ->
        make_with_arity ~arity:(max 2 (min (Memory.width memory) n)) memory ~n);
  }
