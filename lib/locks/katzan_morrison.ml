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

(* [div b p i] is [p / b^i]: process [p]'s node at level [i - 1] of the
   [b]-ary tree is [div b p i], and its slot there [div b p (i - 1) mod
   b]. The whole path is static. *)
let rec div b p i = if i = 0 then p else div b (p / b) (i - 1)

let levels_for ~b ~n =
  if n <= 1 then 0
  else begin
    let rec loop l cap = if cap >= n then l else loop (l + 1) (cap * b) in
    loop 1 b
  end

let rung v = v = 1

(* Multi-word values (process IDs wider than w bits) are spelled out as
   little-endian w-bit chunks; see [write_chunks] below. Writers of a
   [who] slot are serialized by slot occupancy, and readers only act on
   the value while the occupant's mask bit is set, so no torn value is
   ever acted upon (a torn read can only happen on the guarded
   crash-recovery re-ring paths, where a garbage pid is detected and
   skipped — spurious doorbells are filtered anyway).

   Layout: every location is an offset from one of five blocks, each
   allocated by one [Memory.alloc_block], in this order.

   - Nodes, level by level: node [j] of level [k] starts at
     [nodes + level_base.(k) + j * stride]. A node is its [b] [who]
     slots of [pid_chunks] words (slot [s]'s occupant pid), then
     [owner] (0 = free; [s + 1] = slot [s] owns the node), then [mask]
     (bit [s] set <=> slot [s] occupied).
   - [bell] (doorbell, local spin), [xdone] (level release done) and
     [succ] (committed successor): [levels] words per process,
     process [p]'s level [k] at offset [p * levels + k], in [p]'s own
     segment.
   - [pstatus]: one word per process, in its own segment.

   The lock-trace digests pin these location numbers. *)

let make_with_arity ~arity memory ~n =
  let width = Memory.width memory in
  let b = max 2 (min arity (max 2 n)) in
  if b > width then
    invalid_arg
      (Printf.sprintf "katzan-morrison: arity %d exceeds word width %d" b width);
  let levels = levels_for ~b ~n in
  let pid_bits = max 1 (Bitword.bits_needed n) in
  let pid_chunks = (pid_bits + width - 1) / width in
  let owner_off = b * pid_chunks in
  let stride = owner_off + 2 in
  let level_base = Array.make (levels + 1) 0 in
  let pow = ref 1 in
  for k = 0 to levels - 1 do
    let count = (n + (!pow * b) - 1) / (!pow * b) in
    level_base.(k + 1) <- level_base.(k) + (count * stride);
    pow := !pow * b
  done;
  let per_proc = n * levels in
  Memory.reserve memory (level_base.(levels) + (3 * per_proc) + n);
  let nodes = Memory.alloc_block memory ~init:0 ~len:level_base.(levels) in
  let per_proc_block init =
    Memory.alloc_block memory ~per_process:levels ~init ~len:per_proc
  in
  let bell = per_proc_block 0 in
  let xdone = per_proc_block 0 in
  let succ = per_proc_block succ_unset in
  let pstatus = Memory.alloc_block memory ~per_process:1 ~init:st_idle ~len:n in
  (* Process [pid]'s node at level [k] (its first location), its slot
     there, and the offset of its level-[k] words in [bell], [xdone]
     and [succ]. *)
  let node ~pid ~k = nodes + level_base.(k) + (div b pid (k + 1) * stride) in
  let slot ~pid ~k = div b pid k mod b in
  let own ~pid ~k = (pid * levels) + k in
  let chunk_mask = Bitword.mask width in
  (* The sub-protocols below take their continuation last, so
     [acquire_level ~pid ~k @@ fun () -> climb ~pid (k + 1)] resumes
     straight into the caller; loops and join points are defined once
     here and take their state as int arguments. *)
  let rec write_chunks loc i v next =
    if i >= pid_chunks then next ()
    else
      write (loc + i) (v land chunk_mask) @@ fun _ ->
      write_chunks loc (i + 1) (v lsr width) next
  in
  let rec read_chunks loc i acc next =
    if i >= pid_chunks then next acc
    else
      read (loc + i) @@ fun c ->
      read_chunks loc (i + 1) (acc lor (c lsl (i * width))) next
  in
  (* Ring the doorbell of the occupant of [slot] at node [nd] for level
     [k]. Safe to call spuriously: a woken waiter believes nothing until
     it sees [owner = its slot + 1]. A torn pid (possible only on
     crash-recovery re-rings while the slot transitions) is skipped.
     [next] receives an ignored value, as a [write]'s continuation
     does. *)
  let ring nd ~k ~slot next =
    read_chunks (nd + (slot * pid_chunks)) 0 0 @@ fun q ->
    if q >= 0 && q < n then write (bell + own ~pid:q ~k) 1 next else next 0
  in
  (* Wait, as slot [s], until the node whose owner word is [owner] is
     granted to it, sleeping on the doorbell [bl] in between. *)
  let rec park owner s bl next =
    read owner @@ fun o ->
    if o = s + 1 then next ()
    else
      write bl 0 @@ fun _ ->
      read owner @@ fun o ->
      if o = s + 1 then next () else await bl rung @@ fun _ -> park owner s bl next
  in
  let take owner s bl next =
    cas owner ~expected:0 ~desired:(s + 1) @@ fun won ->
    if won then next () else park owner s bl next
  in
  (* Acquire one level: register in the node mask (idempotently — the own
     bit tells whether a crashed run already registered), then take or
     await ownership. *)
  let acquire_level ~pid ~k next =
    let nd = node ~pid ~k and s = slot ~pid ~k and i = own ~pid ~k in
    let owner = nd + owner_off in
    read (owner + 1) @@ fun m ->
    if Bitword.test_bit m s then take owner s (bell + i) next
    else begin
      (* Fresh registration: reset this level's release bookkeeping for
         the new passage, publish the pid, then set the bit. The FAA is
         the commit point; everything before it may be harmlessly
         re-done after a crash. *)
      write (xdone + i) 0 @@ fun _ ->
      write (succ + i) succ_unset @@ fun _ ->
      write_chunks (nd + (s * pid_chunks)) 0 pid @@ fun () ->
      faa (owner + 1) (1 lsl s) @@ fun _ -> take owner s (bell + i) next
    end
  in
  (* Ownership of the path is re-derivable from shared memory: [pid]
     holds a contiguous lower segment of its path, and holds level [k]
     iff it holds level [k-1] and [owner = slot + 1] there (a same-slot
     holder of a higher node must have come through the child node [pid]
     holds, hence is [pid] itself; at level 0 the slot denotes a unique
     process). [held_prefix ~pid 0 next] passes [next] the number of
     levels held. *)
  let rec held_prefix ~pid k next =
    if k >= levels then next levels
    else begin
      let s = slot ~pid ~k in
      read (node ~pid ~k + owner_off) @@ fun o ->
      if o = s + 1 then held_prefix ~pid (k + 1) next else next k
    end
  in
  let rec climb ~pid k =
    if k >= levels then Prog.return ()
    else acquire_level ~pid ~k @@ fun () -> climb ~pid (k + 1)
  in
  let entry ~pid =
    write (pstatus + pid) st_trying @@ fun _ ->
    held_prefix ~pid 0 @@ fun h -> climb ~pid h
  in
  (* The release of one level ([release_level] below) at node [nd], as
     slot [s], with its [xdone] and [succ] words at offset [i]. Every
     shared-memory write is guarded so a crashed release re-executes
     exactly the same handoff. The join points ignore their last
     argument, the value of the write (or CAS) before them. *)
  let finish i next _ = write (xdone + i) 1 @@ fun _ -> next () in
  (* Grant the node to the committed choice [sc], then ring it. *)
  let hand_off nd s k i next sc =
    if sc = succ_none then finish i next 0
    else begin
      let x = sc - 2 in
      let owner = nd + owner_off in
      let ring_x _ = ring nd ~k ~slot:x (finish i next) in
      read owner @@ fun o ->
      if o = s + 1 then write owner (x + 1) ring_x
      else if o = 0 then begin
        (* Crash-recovery or helped-grant path: grant only if slot
           [x] is still occupied (its bit is set); otherwise the
           handoff already happened in a previous attempt. *)
        read (owner + 1) @@ fun mm ->
        if Bitword.test_bit mm x then cas owner ~expected:0 ~desired:(x + 1) ring_x
        else ring_x 0
      end
      else ring_x 0
    end
  in
  let choose nd s k i next _ =
    let owner = nd + owner_off in
    read (succ + i) @@ fun sc0 ->
    if sc0 <> succ_unset then hand_off nd s k i next sc0
    else begin
      read (owner + 1) @@ fun m ->
      match Bitword.lowest_set_bit m with
      | Some x -> write (succ + i) (x + 2) @@ fun _ -> hand_off nd s k i next (x + 2)
      | None ->
          (* Nobody visible: free the node, then look again — an
             arrival that registered before we freed may have already
             failed its ownership CAS and parked. *)
          read owner @@ fun o ->
          let recheck _ =
            read (owner + 1) @@ fun m2 ->
            let choice =
              match Bitword.lowest_set_bit m2 with
              | Some x -> x + 2
              | None -> succ_none
            in
            write (succ + i) choice @@ fun _ -> hand_off nd s k i next choice
          in
          if o = s + 1 then write owner 0 recheck else recheck 0
    end
  in
  (* Release one level, then [next]. Idempotent: [xdone] marks
     completion, and [succ] commits the successor choice before the
     ownership transfer. *)
  let release_level ~pid ~k next =
    let nd = node ~pid ~k and s = slot ~pid ~k and i = own ~pid ~k in
    read (xdone + i) @@ fun xd ->
    if xd = 1 then next ()
    else begin
      (* Clear the own registration bit first, so no later releaser can
         pick this process as a successor. Only this process touches its
         bit while it occupies the slot, so read-then-FAA is crash-safe. *)
      let mask = nd + owner_off + 1 in
      read mask @@ fun m0 ->
      if Bitword.test_bit m0 s then faa mask (-(1 lsl s)) (choose nd s k i next)
      else choose nd s k i next 0
    end
  in
  let rec descend ~pid k =
    if k < 0 then Prog.write (pstatus + pid) st_idle
    else release_level ~pid ~k @@ fun () -> descend ~pid (k - 1)
  in
  let exit ~pid =
    write (pstatus + pid) st_releasing @@ fun _ -> descend ~pid (levels - 1)
  in
  let recover ~pid k =
    read (pstatus + pid) @@ fun st ->
    (* idle = the crash hit before the first entry step (see Rcas). *)
    if st = st_idle then k Lock_intf.Resume_entry
    else if st = st_releasing then k Lock_intf.Resume_exit
    else begin
      held_prefix ~pid 0 @@ fun h ->
      k (if h = levels then Lock_intf.In_cs else Resume_entry)
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
