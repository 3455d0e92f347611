(* In-memory spans around the benchmark's calls into the library.

   A span is the name of the call ("<layer>/<call>"), its start and end,
   the span that caused it, and the cell it belongs to. Spans are kept in
   memory while the run goes on and written out once it ends. Recording is
   off unless [enable] was called, and then costs one branch per call. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span. *)
  cell : int;  (** index of the cell within its batch, [-1] outside cells. *)
  start : float;
  stop : float;
}

(* Seconds on the monotonic clock, with nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let on = ref false
let recorded : span list ref = ref []
let guard = Mutex.create ()
let next_id = Atomic.make 0
let current : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

let enable b = on := b
let current_id () = Domain.DLS.get current

let layer_of name =
  match String.index_opt name '/' with Some i -> String.sub name 0 i | None -> name

(* [with_span ?parent ?cell name f] runs [f ()] inside a span. Work
   handed to another domain passes its [parent] explicitly. *)
let with_span ?parent ?(cell = -1) name f =
  if not !on then f ()
  else begin
    let parent = match parent with Some p -> p | None -> Domain.DLS.get current in
    let id = Atomic.fetch_and_add next_id 1 in
    let saved = Domain.DLS.get current in
    Domain.DLS.set current id;
    let start = now () in
    let finish () =
      let stop = now () in
      Domain.DLS.set current saved;
      let s = { id; name; parent; cell; start; stop } in
      Mutex.protect guard (fun () -> recorded := s :: !recorded)
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let spans () = List.rev (Mutex.protect guard (fun () -> !recorded))

(* Length of the union of the intervals, clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, last) (a, b) ->
        match last with
        | None -> (total, Some (a, b))
        | Some (la, lb) when a <= lb -> (total, Some (la, Float.max lb b))
        | Some (la, lb) -> (total +. (lb -. la), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of each layer: every span's duration minus the part of its
   interval that its child spans cover, summed by layer. *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  let by_layer = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let busy = covered ~lo:s.start ~hi:s.stop (Hashtbl.find_all children s.id) in
      let self = s.stop -. s.start -. busy in
      let l = layer_of s.name in
      Hashtbl.replace by_layer l
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt by_layer l)))
    spans;
  by_layer

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* One JSON object per line, tagged with the workload. *)
let write ~path ~workload spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"workload\": \"%s\", \"id\": %d, \"name\": \"%s\", \"parent\": %d, \"cell\": %d, \"start\": %.9f, \"end\": %.9f}\n"
        (json_escape workload) s.id (json_escape s.name) s.parent s.cell s.start s.stop)
    spans;
  close_out oc
