type stats = {
  entries : int;
  shards_loaded : int;
  stale_shards : int;
  quarantined : int;
  disk_hits : int;
  added : int;
}

type t = {
  dir : string;
  fingerprint : string;
  shard : string;  (* absolute path of the shard this handle owns *)
  guard : Mutex.t;
  entries : (string * string, string) Hashtbl.t;
      (* the disk view: entries loaded from shard files at open *)
  added : (string * string, string) Hashtbl.t;
      (* the pending buffer: entries this handle wrote (or salvaged)
         and owns until [flush]; shadows [entries] on lookup *)
  mutable dirty : bool;
  mutable shards_loaded : int;
  mutable stale_shards : int;
  mutable quarantined : int;
  mutable disk_hits : int;
}

let mkdir_p dir =
  let rec go d =
    if d <> "" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ when Sys.is_directory d -> ()
    end
  in
  go dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> In_channel.input_all ic)

(* Parse a whole shard (any readable header version — see {!Record}).
   [`Corrupt salvaged] carries the valid prefix: complete, well-formed
   lines before the first bad one. A missing final newline marks a
   truncated tail (every writer ends the file with one), so the tail
   line is rejected, not half-trusted. *)
let parse_shard ~fingerprint content =
  match String.index_opt content '\n' with
  | None -> `Corrupt []
  | Some i -> (
      let hdr = String.sub content 0 i in
      match Record.parse_header hdr with
      | `Bad -> `Corrupt []
      | `Future -> `Stale
      | `Ok (version, fp) ->
          if fp <> fingerprint then `Stale
          else
            let body = String.sub content (i + 1) (String.length content - i - 1) in
            let rec go acc = function
              | [] | [ "" ] -> `Ok (List.rev acc)
              | [ _truncated_tail ] -> `Corrupt (List.rev acc)
              | line :: rest -> (
                  match Record.decode_line ~version line with
                  | Some e -> go (e :: acc) rest
                  | None -> `Corrupt (List.rev acc))
            in
            go [] (String.split_on_char '\n' body))

let quarantine_counter = Atomic.make 0

let quarantine t path =
  let qdir = Filename.concat t.dir "quarantine" in
  mkdir_p qdir;
  let dest =
    Filename.concat qdir
      (Printf.sprintf "%s.%d-%d" (Filename.basename path) (Unix.getpid ())
         (Atomic.fetch_and_add quarantine_counter 1))
  in
  (* Another process may quarantine the same file first; losing the
     race is fine — the file is gone either way. *)
  try Sys.rename path dest with Sys_error _ -> ()

let load t =
  let files = try Sys.readdir t.dir with Sys_error _ -> [||] in
  Array.sort compare files;
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".rme" then begin
        let path = Filename.concat t.dir f in
        match read_file path with
        | exception Sys_error _ -> ()
        | content -> (
            match parse_shard ~fingerprint:t.fingerprint content with
            | `Stale -> t.stale_shards <- t.stale_shards + 1
            | `Ok es ->
                t.shards_loaded <- t.shards_loaded + 1;
                List.iter (fun (s, k, v) -> Hashtbl.replace t.entries (s, k) v) es
            | `Corrupt salvaged ->
                t.quarantined <- t.quarantined + 1;
                quarantine t path;
                (* The file is gone; its valid prefix goes into the
                   pending buffer, making this handle responsible for
                   re-persisting it. *)
                List.iter
                  (fun (s, k, v) ->
                    Hashtbl.replace t.added (s, k) v;
                    t.dirty <- true)
                  salvaged)
      end)
    files

let instance_counter = Atomic.make 0

let open_ ~dir ~fingerprint =
  mkdir_p dir;
  let shard =
    (* Unique per open handle: pid separates processes, the counter
       separates handles within one, and the time token defends
       against pid reuse across runs. *)
    Filename.concat dir
      (Printf.sprintf "shard-%d-%x-%d.rme" (Unix.getpid ())
         (int_of_float (Unix.gettimeofday () *. 1e6) land 0xffffff)
         (Atomic.fetch_and_add instance_counter 1))
  in
  let t =
    {
      dir;
      fingerprint;
      shard;
      guard = Mutex.create ();
      entries = Hashtbl.create 256;
      added = Hashtbl.create 64;
      dirty = false;
      shards_loaded = 0;
      stale_shards = 0;
      quarantined = 0;
      disk_hits = 0;
    }
  in
  load t;
  t

let dir t = t.dir
let fingerprint t = t.fingerprint

let with_guard t f =
  Mutex.lock t.guard;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.guard) f

let find t ~section key =
  with_guard t (fun () ->
      let hit =
        match Hashtbl.find_opt t.added (section, key) with
        | Some _ as v -> v
        | None -> Hashtbl.find_opt t.entries (section, key)
      in
      (match hit with Some _ -> t.disk_hits <- t.disk_hits + 1 | None -> ());
      hit)

let add t ~section ~key ~value =
  with_guard t (fun () ->
      Hashtbl.replace t.added (section, key) value;
      t.dirty <- true)

(* Write [entries] as a complete shard file at [path], atomically
   (tmp + rename). Shared with {!Fsck}, which heals and compacts
   through the same writer. *)
let write_shard ~fingerprint ~path entries =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Record.header ~fingerprint);
  Buffer.add_char buf '\n';
  List.iter
    (fun (s, k, v) ->
      Buffer.add_string buf (Record.encode_line ~section:s ~key:k ~value:v);
      Buffer.add_char buf '\n')
    entries;
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try Buffer.output_buffer oc buf
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc;
  if Fault.fire "store-rename-eio" then begin
    (try Sys.remove tmp with Sys_error _ -> ());
    raise (Sys_error (path ^ ": injected I/O error (injected fault store-rename-eio)"))
  end;
  Sys.rename tmp path

let flush t =
  with_guard t (fun () ->
      if t.dirty then begin
        if Fault.fire "store-eio" then
          raise (Sys_error (t.shard ^ ": injected I/O error (injected fault store-eio)"));
        Hashtbl.fold (fun (s, k) v acc -> (s, k, v) :: acc) t.added []
        |> List.sort compare
        |> write_shard ~fingerprint:t.fingerprint ~path:t.shard;
        t.dirty <- false
      end)

let stats t =
  with_guard t (fun () ->
      let overlap =
        Hashtbl.fold
          (fun sk _ acc -> if Hashtbl.mem t.entries sk then acc + 1 else acc)
          t.added 0
      in
      {
        entries = Hashtbl.length t.entries + Hashtbl.length t.added - overlap;
        shards_loaded = t.shards_loaded;
        stale_shards = t.stale_shards;
        quarantined = t.quarantined;
        disk_hits = t.disk_hits;
        added = Hashtbl.length t.added;
      })

let iter t f =
  with_guard t (fun () ->
      Hashtbl.iter
        (fun (s, k) v ->
          if not (Hashtbl.mem t.added (s, k)) then f ~section:s ~key:k ~value:v)
        t.entries;
      Hashtbl.iter (fun (s, k) v -> f ~section:s ~key:k ~value:v) t.added)
