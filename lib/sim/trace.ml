module Vec = Rme_util.Vec
module Op = Rme_memory.Op

type section = Remainder | Entry | Cs | Exit | Recovery

let section_name = function
  | Remainder -> "remainder"
  | Entry -> "entry"
  | Cs -> "cs"
  | Exit -> "exit"
  | Recovery -> "recovery"

type step = {
  pid : int;
  loc : Rme_memory.Memory.loc;
  op : Op.t;
  old_value : int;
  new_value : int;
  rmr : bool;
  section : section;
}

type event = Step of step | Crash of { pid : int; section : section }

type t = event Vec.t

let create () = Vec.create ()

let record t e = ignore (Vec.push t e)

let clear = Vec.clear

let length = Vec.length

let events t = Array.to_list (Vec.to_array t)

let iter = Vec.iter

let pid_of_event = function Step { pid; _ } -> pid | Crash { pid; _ } -> pid

let filter_pids t ~keep =
  let t' = create () in
  iter (fun e -> if keep (pid_of_event e) then record t' e) t;
  t'

let pp_event ppf = function
  | Step { pid; loc; op; old_value; new_value; rmr; section } ->
      Format.fprintf ppf "p%d %s %a@R%d: %d -> %d%s" pid (section_name section)
        Op.pp op loc old_value new_value
        (if rmr then " [RMR]" else "")
  | Crash { pid; section } ->
      Format.fprintf ppf "p%d CRASH in %s" pid (section_name section)

let pp ppf t =
  iter (fun e -> Format.fprintf ppf "%a@." pp_event e) t
