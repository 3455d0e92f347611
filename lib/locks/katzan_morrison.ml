module Memory = Rme_memory.Memory
module Bitword = Rme_util.Bitword
module Lock_intf = Rme_sim.Lock_intf
module Prog = Rme_sim.Prog
open Prog.K

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
let rec div b p i = if i = 0 then p else div b (p / b) (i - 1)

let slot_of t ~pid ~k = div t.b pid k mod t.b

let node_of t ~pid ~k = div t.b pid (k + 1)

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
  (* The sub-protocols below take their continuation last, so
     [let@ () = acquire_level ~pid ~k in climb (k + 1)] resumes
     straight into the caller. *)
  let write_pid_chunks locs pid next =
    let rec loop i v =
      if i >= Array.length locs then next ()
      else
        let@ _ = write locs.(i) (v land chunk_mask) in
        loop (i + 1) (v lsr width)
    in
    loop 0 pid
  in
  let read_pid_chunks locs next =
    let rec loop i acc shift =
      if i >= Array.length locs then next acc
      else
        let@ c = read locs.(i) in
        loop (i + 1) (acc lor (c lsl shift)) (shift + width)
    in
    loop 0 0 0
  in
  (* Ring the doorbell of the occupant of [slot] at node [nd] for level
     [k]. Safe to call spuriously: a woken waiter believes nothing until
     it sees [owner = its slot + 1]. A torn pid (possible only on
     crash-recovery re-rings while the slot transitions) is skipped.
     [next] receives an ignored value, as a [write]'s continuation
     does. *)
  let ring nd ~k ~slot next =
    let@ q = read_pid_chunks nd.who.(slot) in
    if q >= 0 && q < n then write t.bell.(q).(k) 1 next else next 0
  in
  (* Acquire one level: register in the node mask (idempotently — the own
     bit tells whether a crashed run already registered), then take or
     await ownership. *)
  let acquire_level ~pid ~k next =
    let nd = node t ~pid ~k in
    let s = slot_of t ~pid ~k in
    let take () =
      let@ won = cas nd.owner ~expected:0 ~desired:(s + 1) in
      if won then next ()
      else begin
        let rec park () =
          let@ o = read nd.owner in
          if o = s + 1 then next ()
          else begin
            let@ _ = write t.bell.(pid).(k) 0 in
            let@ o = read nd.owner in
            if o = s + 1 then next ()
            else begin
              let@ _ = await t.bell.(pid).(k) (fun v -> v = 1) in
              park ()
            end
          end
        in
        park ()
      end
    in
    let@ m = read nd.mask in
    if Bitword.test_bit m s then take ()
    else begin
      (* Fresh registration: reset this level's release bookkeeping for
         the new passage, publish the pid, then set the bit. The FAA is
         the commit point; everything before it may be harmlessly
         re-done after a crash. *)
      let@ _ = write t.xdone.(pid).(k) 0 in
      let@ _ = write t.succ.(pid).(k) succ_unset in
      let@ () = write_pid_chunks nd.who.(s) pid in
      let@ _ = faa nd.mask (1 lsl s) in
      take ()
    end
  in
  (* Ownership of the path is re-derivable from shared memory: [pid]
     holds a contiguous lower segment of its path, and holds level [k]
     iff it holds level [k-1] and [owner = slot + 1] there (a same-slot
     holder of a higher node must have come through the child node [pid]
     holds, hence is [pid] itself; at level 0 the slot denotes a unique
     process). *)
  let held_prefix ~pid next =
    let rec scan k =
      if k >= t.levels then next t.levels
      else begin
        let nd = node t ~pid ~k in
        let s = slot_of t ~pid ~k in
        let@ o = read nd.owner in
        if o = s + 1 then scan (k + 1) else next k
      end
    in
    scan 0
  in
  let entry ~pid =
    let@ _ = write t.pstatus.(pid) st_trying in
    let@ h = held_prefix ~pid in
    let rec climb k =
      if k >= t.levels then Prog.return ()
      else
        let@ () = acquire_level ~pid ~k in
        climb (k + 1)
    in
    climb h
  in
  (* Release one level, then [next]. Idempotent: [xdone] marks
     completion, [succ] commits the successor choice before the
     ownership transfer, and every shared-memory write is guarded so a
     crashed release re-executes exactly the same handoff. The join
     points below ignore their argument, the value of the write (or
     CAS) before them. *)
  let release_level ~pid ~k next =
    let nd = node t ~pid ~k in
    let s = slot_of t ~pid ~k in
    let@ xd = read t.xdone.(pid).(k) in
    if xd = 1 then next ()
    else begin
      let finish _ =
        let@ _ = write t.xdone.(pid).(k) 1 in
        next ()
      in
      (* Grant the node to the committed choice [sc], then ring it. *)
      let hand_off sc =
        if sc = succ_none then finish 0
        else begin
          let x = sc - 2 in
          let ring_x _ = ring nd ~k ~slot:x finish in
          let@ o = read nd.owner in
          if o = s + 1 then write nd.owner (x + 1) ring_x
          else if o = 0 then begin
            (* Crash-recovery or helped-grant path: grant only if slot
               [x] is still occupied (its bit is set); otherwise the
               handoff already happened in a previous attempt. *)
            let@ mm = read nd.mask in
            if Bitword.test_bit mm x then
              cas nd.owner ~expected:0 ~desired:(x + 1) ring_x
            else ring_x 0
          end
          else ring_x 0
        end
      in
      let choose _ =
        let@ sc0 = read t.succ.(pid).(k) in
        if sc0 <> succ_unset then hand_off sc0
        else begin
          let@ m = read nd.mask in
          match Bitword.lowest_set_bit m with
          | Some x ->
              let@ _ = write t.succ.(pid).(k) (x + 2) in
              hand_off (x + 2)
          | None ->
              (* Nobody visible: free the node, then look again — an
                 arrival that registered before we freed may have already
                 failed its ownership CAS and parked. *)
              let@ o = read nd.owner in
              let recheck _ =
                let@ m2 = read nd.mask in
                let choice =
                  match Bitword.lowest_set_bit m2 with
                  | Some x -> x + 2
                  | None -> succ_none
                in
                let@ _ = write t.succ.(pid).(k) choice in
                hand_off choice
              in
              if o = s + 1 then write nd.owner 0 recheck else recheck 0
        end
      in
      (* Clear the own registration bit first, so no later releaser can
         pick this process as a successor. Only this process touches its
         bit while it occupies the slot, so read-then-FAA is crash-safe. *)
      let@ m0 = read nd.mask in
      if Bitword.test_bit m0 s then faa nd.mask (- (1 lsl s)) choose
      else choose 0
    end
  in
  let exit ~pid =
    let@ _ = write t.pstatus.(pid) st_releasing in
    let rec descend k =
      if k < 0 then Prog.write t.pstatus.(pid) st_idle
      else
        let@ () = release_level ~pid ~k in
        descend (k - 1)
    in
    descend (t.levels - 1)
  in
  let recover ~pid =
    let@ st = read t.pstatus.(pid) in
    (* idle = the crash hit before the first entry step (see Rcas). *)
    if st = st_idle then Prog.return Lock_intf.Resume_entry
    else if st = st_releasing then Prog.return Lock_intf.Resume_exit
    else begin
      let@ h = held_prefix ~pid in
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
