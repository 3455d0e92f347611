(* Tests for the result-store library (lib/store), which no executable
   links any more: codec round-trips for crash policies, floats and
   escaping, and store robustness (fingerprint invalidation,
   truncation, garbage — quarantine, never crash, never stale) with
   concurrent shared-directory writers. *)

module Store = Rme_store.Store
module Codec = Rme_store.Codec
module Record = Rme_store.Record
module Fsck = Rme_store.Fsck
module H = Rme_sim.Harness
module Rmr = Rme_memory.Rmr

(* ---------------- scratch directories ---------------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let dir_counter = ref 0

let with_dir f =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rme_store_test_%d_%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf d;
  Sys.mkdir d 0o755;
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let shards dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".rme")
  |> List.map (Filename.concat dir)

let quarantine_count dir =
  let q = Filename.concat dir "quarantine" in
  if Sys.file_exists q then Array.length (Sys.readdir q) else 0

(* ---------------- codec round-trips ---------------- *)

let crash_policies : H.crash_policy list =
  [
    H.No_crashes;
    H.Crash_prob { prob = 0.05; seed = 1302 };
    H.Crash_prob { prob = 1.0 /. 3.0; seed = -7 };
    H.Crash_script [];
    H.Crash_script [ (3, 1); (700, 2) ];
    H.System_crash_script [];
    H.System_crash_script [ 10; 20; 30 ];
    H.System_crash_prob { prob = 0.125; seed = 9; max = 4 };
  ]

let test_crash_policy_round_trip () =
  List.iter
    (fun cp ->
      let enc = Codec.crash_policy_enc cp in
      Alcotest.(check bool)
        (Printf.sprintf "decode %s" enc)
        true
        (Codec.crash_policy_dec enc = Some cp))
    crash_policies;
  (* Distinct policies must have distinct encodings. *)
  let encs = List.map Codec.crash_policy_enc crash_policies in
  Alcotest.(check int) "encodings distinct"
    (List.length encs)
    (List.length (List.sort_uniq compare encs));
  (* Malformed inputs decode to None, never raise. *)
  List.iter
    (fun bad -> Alcotest.(check bool) bad true (Codec.crash_policy_dec bad = None))
    [ ""; "nonsense"; "prob[]"; "prob[0.5]"; "script[1:2,x]"; "sys[a]"; "sysprob[1;2]" ]

let test_float_round_trip () =
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "float %h" f)
        true
        (Codec.float_dec (Codec.float_enc f) = Some f))
    [ 0.0; 1.0; -1.5; 1.0 /. 3.0; 1e-300; 6.02e23; Float.max_float ]

let test_escape_round_trip () =
  List.iter
    (fun s ->
      let e = Codec.escape s in
      Alcotest.(check bool) ("no structural chars in " ^ e) false
        (String.exists (fun c -> c = ' ' || c = '=' || c = '\n') e);
      Alcotest.(check bool) ("unescape " ^ e) true (Codec.unescape e = Some s))
    [ "plain"; "katzan-morrison-b4"; "with space"; "a=b"; "100%"; "nl\nnl" ]

(* ---------------- the store itself ---------------- *)

let fp = "0123456789abcdef0123456789abcdef"

let test_store_basic () =
  with_dir (fun d ->
      let s = Store.open_ ~dir:d ~fingerprint:fp in
      Alcotest.(check bool) "empty at open" true (Store.find s ~section:"cell" "k1" = None);
      Store.add s ~section:"cell" ~key:"k1" ~value:"v1";
      Store.add s ~section:"adv" ~key:"k1" ~value:"v2";
      Alcotest.(check bool) "sections separate" true
        (Store.find s ~section:"cell" "k1" = Some "v1"
        && Store.find s ~section:"adv" "k1" = Some "v2");
      Store.flush s;
      Store.flush s;
      Alcotest.(check int) "one shard, flush idempotent" 1 (List.length (shards d));
      let s2 = Store.open_ ~dir:d ~fingerprint:fp in
      Alcotest.(check bool) "persisted" true
        (Store.find s2 ~section:"cell" "k1" = Some "v1"
        && Store.find s2 ~section:"adv" "k1" = Some "v2");
      let st = Store.stats s2 in
      Alcotest.(check int) "entries" 2 st.Store.entries;
      Alcotest.(check int) "shards loaded" 1 st.Store.shards_loaded;
      Alcotest.(check int) "disk hits counted" 2 st.Store.disk_hits)

let test_store_pending_buffer () =
  (* Regression: a written-but-unflushed entry must be served by [find]
     from the in-memory pending buffer — workers consult their store
     between [add] and the end-of-batch [flush], and losing those
     lookups would recompute cells the handle already holds. *)
  with_dir (fun d ->
      let s = Store.open_ ~dir:d ~fingerprint:fp in
      Store.add s ~section:"cell" ~key:"pending" ~value:"v";
      Alcotest.(check bool) "unflushed entry served" true
        (Store.find s ~section:"cell" "pending" = Some "v");
      Alcotest.(check int) "unflushed entry counted live" 1
        (Store.stats s).Store.entries;
      let seen = ref [] in
      Store.iter s (fun ~section ~key ~value -> seen := (section, key, value) :: !seen);
      Alcotest.(check bool) "unflushed entry iterated" true
        (!seen = [ ("cell", "pending", "v") ]);
      (* Pending entries are per-handle until flushed: a second handle
         over the same directory must not see them yet. *)
      let s2 = Store.open_ ~dir:d ~fingerprint:fp in
      Alcotest.(check bool) "other handle blind before flush" true
        (Store.find s2 ~section:"cell" "pending" = None);
      (* A pending overwrite shadows what this handle loaded from disk. *)
      Store.flush s;
      let s3 = Store.open_ ~dir:d ~fingerprint:fp in
      Store.add s3 ~section:"cell" ~key:"pending" ~value:"v2";
      Alcotest.(check bool) "pending overwrite wins over disk" true
        (Store.find s3 ~section:"cell" "pending" = Some "v2");
      Alcotest.(check int) "overwrite not double-counted" 1
        (Store.stats s3).Store.entries)

let test_store_fingerprint_mismatch () =
  with_dir (fun d ->
      let s = Store.open_ ~dir:d ~fingerprint:fp in
      Store.add s ~section:"cell" ~key:"k" ~value:"v";
      Store.flush s;
      (* A different code fingerprint must see none of it... *)
      let s2 = Store.open_ ~dir:d ~fingerprint:"ffffffffffffffffffffffffffffffff" in
      Alcotest.(check bool) "stale entry invisible" true
        (Store.find s2 ~section:"cell" "k" = None);
      Alcotest.(check int) "counted stale" 1 (Store.stats s2).Store.stale_shards;
      Alcotest.(check int) "not quarantined" 0 (quarantine_count d);
      (* ... while the original fingerprint still can (no destruction). *)
      let s3 = Store.open_ ~dir:d ~fingerprint:fp in
      Alcotest.(check bool) "original still served" true
        (Store.find s3 ~section:"cell" "k" = Some "v"))

let test_store_truncation () =
  with_dir (fun d ->
      let s = Store.open_ ~dir:d ~fingerprint:fp in
      for i = 1 to 5 do
        Store.add s ~section:"cell" ~key:(Printf.sprintf "k%d" i) ~value:"v"
      done;
      Store.flush s;
      let shard = List.hd (shards d) in
      (* Chop the file mid-way through the last line. *)
      let len = (Unix.stat shard).Unix.st_size in
      let fd = Unix.openfile shard [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd (len - 3);
      Unix.close fd;
      let s2 = Store.open_ ~dir:d ~fingerprint:fp in
      let st = Store.stats s2 in
      Alcotest.(check int) "file quarantined" 1 st.Store.quarantined;
      Alcotest.(check int) "quarantine dir holds it" 1 (quarantine_count d);
      Alcotest.(check bool) "shard removed from store dir" true (shards d = []);
      Alcotest.(check int) "valid prefix salvaged" 4 st.Store.entries;
      Alcotest.(check bool) "torn tail entry recomputes" true
        (Store.find s2 ~section:"cell" "k5" = None);
      (* The salvaged prefix is re-persisted by the new handle. *)
      Store.flush s2;
      let s3 = Store.open_ ~dir:d ~fingerprint:fp in
      Alcotest.(check bool) "salvage survives the quarantine" true
        (Store.find s3 ~section:"cell" "k1" = Some "v"))

let test_store_garbage () =
  with_dir (fun d ->
      let s = Store.open_ ~dir:d ~fingerprint:fp in
      Store.add s ~section:"cell" ~key:"good" ~value:"v";
      Store.flush s;
      (* Drop a file of binary junk beside the healthy shard. *)
      let junk = Filename.concat d "shard-junk.rme" in
      let oc = open_out_bin junk in
      output_string oc "\x00\x01\x02 not a store file at all\xff";
      close_out oc;
      let s2 = Store.open_ ~dir:d ~fingerprint:fp in
      let st = Store.stats s2 in
      Alcotest.(check int) "junk quarantined" 1 st.Store.quarantined;
      Alcotest.(check bool) "healthy shard unaffected" true
        (Store.find s2 ~section:"cell" "good" = Some "v"))

let test_store_shared_directory () =
  (* Two handles over one directory — the -j4 bench + CI sharing shape.
     Writers own distinct shard files, so neither can lose or tear the
     other's entries, without any cross-process locking. *)
  with_dir (fun d ->
      let s1 = Store.open_ ~dir:d ~fingerprint:fp in
      let s2 = Store.open_ ~dir:d ~fingerprint:fp in
      for i = 0 to 99 do
        Store.add s1 ~section:"cell" ~key:(Printf.sprintf "a%d" i) ~value:(string_of_int i)
      done;
      for i = 0 to 99 do
        Store.add s2 ~section:"cell" ~key:(Printf.sprintf "b%d" i) ~value:(string_of_int i)
      done;
      (* An overlapping key gets the same (deterministic) value from both. *)
      Store.add s1 ~section:"cell" ~key:"dup" ~value:"same";
      Store.add s2 ~section:"cell" ~key:"dup" ~value:"same";
      (* Interleaved flushes, as concurrent batch commits would do. *)
      Store.flush s1;
      Store.flush s2;
      Store.add s1 ~section:"cell" ~key:"late" ~value:"l";
      Store.flush s1;
      Alcotest.(check int) "one shard per writer" 2 (List.length (shards d));
      let s3 = Store.open_ ~dir:d ~fingerprint:fp in
      let st = Store.stats s3 in
      Alcotest.(check int) "no lost entries" 202 st.Store.entries;
      Alcotest.(check int) "no torn files" 0 st.Store.quarantined;
      for i = 0 to 99 do
        Alcotest.(check bool) "a entries" true
          (Store.find s3 ~section:"cell" (Printf.sprintf "a%d" i) = Some (string_of_int i));
        Alcotest.(check bool) "b entries" true
          (Store.find s3 ~section:"cell" (Printf.sprintf "b%d" i) = Some (string_of_int i))
      done;
      Alcotest.(check bool) "dup consistent" true
        (Store.find s3 ~section:"cell" "dup" = Some "same"))

(* ---------------- properties: per-line CRC vs file damage ---------------- *)

(* Write a shard of [n] entries and return its path plus content. *)
let write_entries d n =
  let s = Store.open_ ~dir:d ~fingerprint:fp in
  for i = 0 to n - 1 do
    Store.add s ~section:"cell"
      ~key:(Printf.sprintf "k%02d" i)
      ~value:(string_of_int i)
  done;
  Store.flush s;
  let shard = List.hd (shards d) in
  let ic = open_in_bin shard in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (shard, content)

(* Truncating a shard at ANY byte offset must, after [Fsck.repair],
   leave exactly the entry lines wholly contained before the cut —
   the per-line CRC keeps a partial line from ever parsing as a
   (different) valid entry, and the torn-tail heal keeps the prefix. *)
let prop_truncation_salvages_exact_prefix =
  QCheck.Test.make ~count:80
    ~name:"store: truncation at any offset keeps exactly the full lines"
    QCheck.(pair (int_range 1 16) (int_bound 10_000))
    (fun (n, cut_sel) ->
      with_dir (fun d ->
          let shard, content = write_entries d n in
          let len = String.length content in
          let header_end = String.index content '\n' + 1 in
          let cut = header_end + (cut_sel mod (len - header_end + 1)) in
          let fd = Unix.openfile shard [ Unix.O_WRONLY ] 0o644 in
          Unix.ftruncate fd cut;
          Unix.close fd;
          let expected = ref 0 in
          String.iteri
            (fun i c -> if c = '\n' && i >= header_end && i < cut then incr expected)
            content;
          ignore (Fsck.repair ~dir:d ~fingerprint:fp);
          let s = Store.open_ ~dir:d ~fingerprint:fp in
          (Store.stats s).Store.entries = !expected))

(* Flipping any single payload byte must knock out that line — and
   only that line — whether the damage reads as a torn tail (last
   line) or interior corruption (quarantine + salvage). *)
let prop_byte_flip_drops_only_that_line =
  QCheck.Test.make ~count:80
    ~name:"store: a flipped byte drops exactly its own line"
    QCheck.(pair (int_range 2 12) (pair (int_bound 1_000) (int_bound 10_000)))
    (fun (n, (line_sel, pos_sel)) ->
      with_dir (fun d ->
          let shard, content = write_entries d n in
          let header_end = String.index content '\n' + 1 in
          (* Line starts, in key order (write_shard sorts; k%02d sorts
             like the index). *)
          let starts = ref [ header_end ] in
          String.iteri
            (fun i c ->
              if c = '\n' && i >= header_end && i < String.length content - 1 then
                starts := (i + 1) :: !starts)
            content;
          let starts = Array.of_list (List.rev !starts) in
          let target = line_sel mod n in
          let line_start = starts.(target) in
          let line_end = String.index_from content line_start '\n' in
          let pos = line_start + (pos_sel mod (line_end - line_start)) in
          let b = Bytes.of_string content in
          Bytes.set b pos (if Bytes.get b pos = 'Z' then 'Y' else 'Z');
          let oc = open_out_bin shard in
          output_bytes oc b;
          close_out oc;
          ignore (Fsck.repair ~dir:d ~fingerprint:fp);
          let s = Store.open_ ~dir:d ~fingerprint:fp in
          let have i =
            Store.find s ~section:"cell" (Printf.sprintf "k%02d" i) <> None
          in
          (Store.stats s).Store.entries = n - 1
          && (not (have target))
          && List.for_all have
               (List.filter (fun i -> i <> target) (List.init n Fun.id))))

let suite =
  ( "store",
    [
      Alcotest.test_case "codec: crash policies round-trip" `Quick
        test_crash_policy_round_trip;
      Alcotest.test_case "codec: floats round-trip exactly" `Quick test_float_round_trip;
      Alcotest.test_case "codec: escaping round-trips" `Quick test_escape_round_trip;
      Alcotest.test_case "store: add/flush/reopen" `Quick test_store_basic;
      Alcotest.test_case "store: unflushed entries served from pending buffer"
        `Quick test_store_pending_buffer;
      Alcotest.test_case "store: fingerprint mismatch invalidates" `Quick
        test_store_fingerprint_mismatch;
      Alcotest.test_case "store: truncated shard quarantined, prefix salvaged" `Quick
        test_store_truncation;
      Alcotest.test_case "store: garbage file quarantined" `Quick test_store_garbage;
      Alcotest.test_case "store: shared directory loses nothing" `Quick
        test_store_shared_directory;
      Qc.to_alcotest prop_truncation_salvages_exact_prefix;
      Qc.to_alcotest prop_byte_flip_drops_only_that_line;
    ] )
