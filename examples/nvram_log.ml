(* NVRAM append-only log — the motivating workload for recoverable
   mutual exclusion.

     dune exec examples/nvram_log.exe

   Processes append records to a shared persistent log. The append is a
   multi-step critical section (read the count, write the slot, bump the
   count), so without mutual exclusion appends would interleave and
   corrupt the log; without *recoverable* mutual exclusion, one crash
   between lock acquisition and release would wedge the system forever.

   Crashes are injected everywhere — inside entry, exit, recovery and
   the critical section itself. A process that crashed mid-append holds
   on to the lock (mutual exclusion keeps everyone else out), recovers,
   re-enters the critical section, and re-runs the append; the append is
   written idempotently (slot index derived from the persistent count),
   exactly like a real NVRAM program. At the end we check the log:
   every process's records present, exactly once each, no gaps. *)

module H = Rme_sim.Harness
module Memory = Rme_memory.Memory
module Rmr = Rme_memory.Rmr
module Prog = Rme_sim.Prog
open Prog.K

let n = 6
let appends_per_process = 4
let width = 16

(* The log lives in shared (persistent) memory: a count cell and one
   slot per record; records encode their writer (slot value = pid + 1).

   The append must be idempotent under critical-section re-entry: a
   crash can strike between ANY two steps, including after the count
   increment but before the CS completes, and recovery re-runs the whole
   body. The standard NVRAM pattern makes it exactly-once: each process
   persists a reservation — the slot it is filling, tagged with the
   attempt number — before any visible write. Re-runs of the same
   attempt reuse the reservation (rewriting the same slot and count,
   harmlessly); a crash after the commit point (the [done] increment)
   makes the next run a fresh attempt with a fresh reservation. Holding
   the lock is what makes the count-read/reserve pair safe — which is
   the point of the example. *)
let build_log_cs memory =
  let count = Memory.alloc memory ~init:0 in
  let slots =
    Memory.alloc_array memory ~init:0
      ~len:(n * appends_per_process)
  in
  let done_ = Memory.alloc_array memory ~init:0 ~len:n in
  let reserved = Memory.alloc_array memory ~init:0 ~len:n in
  let rsv_for = Memory.alloc_array memory ~init:0 ~len:n in
  let append ~pid ~attempt =
    let req = attempt + 1 in
    read done_.(pid) @@ fun committed ->
    if committed >= req then Prog.return () (* this request already committed *)
    else begin
      (* Fill the reserved slot and commit: where both reservation
         branches below join. *)
      let fill slot_plus_1 =
        let slot = slot_plus_1 - 1 in
        write slots.(slot) (pid + 1) @@ fun _ ->
        write count (slot + 1) @@ fun _ ->
        Prog.write done_.(pid) req
      in
      (* Reserve a slot for request [req] unless a previous (crashed) run
         of this very request already did. [reserved] is written before
         [rsv_for], so a torn reservation is simply re-done. *)
      read rsv_for.(pid) @@ fun tag ->
      if tag = req then read reserved.(pid) fill
      else begin
        read count @@ fun c ->
        write reserved.(pid) (c + 1) @@ fun _ ->
        write rsv_for.(pid) req @@ fun _ -> fill (c + 1)
      end
    end
  in
  (count, slots, append)

let run_with factory_name factory =
  let memory_ref = ref None in
  let cs_ref = ref None in
  (* The harness builds the memory; we attach the log to it by wrapping
     the factory. *)
  let wrapped =
    {
      factory with
      Rme_sim.Lock_intf.make =
        (fun memory ~n ->
          let instance = factory.Rme_sim.Lock_intf.make memory ~n in
          let count, slots, append = build_log_cs memory in
          memory_ref := Some (memory, count, slots);
          cs_ref := Some append;
          instance);
    }
  in
  let config =
    {
      (H.default_config ~n ~width Rmr.Cc) with
      superpassages = appends_per_process;
      policy = H.Random_policy 11;
      crashes = H.Crash_prob { prob = 0.04; seed = 23 };
      allow_cs_crash = true;
      max_crashes_per_process = 6;
      cs = Some (fun ~pid ~attempt -> (Option.get !cs_ref) ~pid ~attempt);
    }
  in
  let result = H.run config wrapped in
  let memory, count, slots = Option.get !memory_ref in
  let final_count = Memory.value memory count in
  let per_writer = Array.make n 0 in
  Array.iteri
    (fun i slot ->
      if i < final_count then begin
        let v = Memory.value memory slot in
        if v >= 1 && v <= n then per_writer.(v - 1) <- per_writer.(v - 1) + 1
      end)
    slots;
  let expected = n * appends_per_process in
  let exactly_once = Array.for_all (fun c -> c = appends_per_process) per_writer in
  Printf.printf "%-16s crashes=%2d  log length %d/%d  %s  mutex %s\n"
    factory_name result.H.total_crashes final_count expected
    (if final_count = expected && exactly_once then "every record exactly once"
     else "LOG CORRUPTED")
    (if result.H.violations = [] then "ok" else "VIOLATED");
  result.H.ok && final_count = expected && exactly_once

let () =
  print_endline "NVRAM append-only log under crash storms:";
  print_endline "";
  let ok =
    List.for_all
      (fun (f : Rme_sim.Lock_intf.factory) -> run_with f.Rme_sim.Lock_intf.name f)
      Rme_locks.Registry.recoverable
  in
  print_newline ();
  if ok then print_endline "all recoverable locks preserved log integrity"
  else print_endline "FAILURE";
  exit (if ok then 0 else 1)
