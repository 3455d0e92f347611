(* Fault-injection hooks, armed by [set_spec] from in-process tests. The
   spec is a comma list of site names, each with an optional integer
   argument, e.g. "store-eio:3,slow:20".

   Sites are just names agreed between the injection point and the
   test; this module only parses the spec and answers queries. The
   integer is interpreted per site — a one-based trigger count for
   [fire] sites, a parameter (e.g. milliseconds) for [param] sites. *)

type spec = { name : string; mutable count : int option }

let guard = Mutex.create ()
let specs : spec list ref = ref []

let parse s =
  String.split_on_char ',' s
  |> List.filter_map (fun tok ->
         let tok = String.trim tok in
         if tok = "" then None
         else
           match String.index_opt tok ':' with
           | None -> Some { name = tok; count = None }
           | Some i ->
               let name = String.sub tok 0 i in
               let arg = String.sub tok (i + 1) (String.length tok - i - 1) in
               if name = "" then None
               else Some { name; count = int_of_string_opt arg })

let set_spec s =
  Mutex.lock guard;
  (specs := match s with None -> [] | Some s -> parse s);
  Mutex.unlock guard

let find name = List.find_opt (fun sp -> sp.name = name) !specs

let armed name =
  Mutex.lock guard;
  let r = find name <> None in
  Mutex.unlock guard;
  r

let param name =
  Mutex.lock guard;
  let r = match find name with Some sp -> sp.count | None -> None in
  Mutex.unlock guard;
  r

let fire name =
  Mutex.lock guard;
  let r =
    match find name with
    | None -> false
    | Some sp -> (
        match sp.count with
        | None -> true
        | Some n when n <= 0 -> false
        | Some n ->
            sp.count <- Some (n - 1);
            n = 1)
  in
  Mutex.unlock guard;
  r
