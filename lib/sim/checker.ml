module Memory = Rme_memory.Memory
module Op = Rme_memory.Op
module Rmr = Rme_memory.Rmr
module Intset = Rme_util.Intset
module Bitword = Rme_util.Bitword

type report = {
  events : int;
  steps_checked : int;
  errors : string list;
  rmrs : int array;
}

let ok r = r.errors = []

let check ~n ~width ~model ~owner trace =
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (* The CC rule, kept naively: each location maps to the pids holding
     a valid copy of it. A read by a holder is free and any other read
     joins the holders; a non-read empties them; a crash removes the
     process from every set. *)
  let copy_holders : (int, Intset.t) Hashtbl.t = Hashtbl.create 64 in
  let rmrs = Array.make n 0 in
  let last_value : (int, int) Hashtbl.t = Hashtbl.create 64 in
  (* [holder]: the process entitled to the critical section — set by its
     first CS step, kept across crashes inside the CS (re-entry), cleared
     by its first exit step. *)
  let holder = ref None in
  let steps = ref 0 in
  let index = ref 0 in
  Trace.iter
    (fun event ->
      (match event with
      | Trace.Step { pid; loc; op; old_value; new_value; rmr; section } ->
          incr steps;
          (* Value-chain continuity and width. *)
          (match Hashtbl.find_opt last_value loc with
          | Some prev when prev <> old_value ->
              error "event %d: p%d read %d from R%d but the last store was %d"
                !index pid old_value loc prev
          | Some _ | None -> ());
          if new_value < 0 || new_value > Bitword.mask width then
            error "event %d: R%d holds %d, outside the %d-bit domain" !index loc
              new_value width;
          (* Operation semantics. *)
          let expected_new = Op.next_value ~width op old_value in
          if expected_new <> new_value then
            error "event %d: p%d %s on R%d: %d -> %d, expected -> %d" !index pid
              (Op.name op) loc old_value new_value expected_new;
          Hashtbl.replace last_value loc new_value;
          (* RMR recomputation. *)
          let expected_rmr =
            match model with
            | Rmr.Dsm -> ( match owner loc with Some o -> o <> pid | None -> true)
            | Rmr.Cc ->
                if Op.is_read op then begin
                  let held =
                    Option.value ~default:Intset.empty (Hashtbl.find_opt copy_holders loc)
                  in
                  Hashtbl.replace copy_holders loc (Intset.add pid held);
                  not (Intset.mem pid held)
                end
                else begin
                  Hashtbl.remove copy_holders loc;
                  true
                end
          in
          if expected_rmr then rmrs.(pid) <- rmrs.(pid) + 1;
          if expected_rmr <> rmr then
            error "event %d: p%d on R%d flagged rmr=%b, rules say %b" !index pid
              loc rmr expected_rmr;
          (* Mutual exclusion and critical-section re-entry. *)
          (match section with
          | Trace.Cs -> (
              match !holder with
              | Some q when q <> pid ->
                  error
                    "event %d: p%d took a CS step while p%d holds the critical \
                     section"
                    !index pid q
              | Some _ | None -> holder := Some pid)
          | Trace.Exit -> if !holder = Some pid then holder := None
          | Trace.Remainder | Trace.Entry | Trace.Recovery -> ())
      | Trace.Crash { pid; section = _ } ->
          Hashtbl.filter_map_inplace (fun _ held -> Some (Intset.remove pid held)) copy_holders);
      incr index)
    trace;
  { events = !index; steps_checked = !steps; errors = List.rev !errors; rmrs }

let check_result (r : Harness.result) =
  match r.Harness.trace with
  | None -> None
  | Some trace ->
      let memory = r.Harness.memory in
      Some
        (check
           ~n:(Array.length r.Harness.procs)
           ~width:(Memory.width memory) ~model:r.Harness.model
           ~owner:(fun loc -> Memory.owner memory loc)
           trace)
