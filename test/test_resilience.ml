(* Resilience: the step budget flags a deliberately deadlocked lock
   instead of hanging, and the result-store library (which no
   executable links any more) loses no committed line under injected
   faults — CRC-32 vectors, fault-injection plumbing, EIO on flush and
   rename, v1 shard compatibility and fsck scan/repair/compact. *)

module Crc32 = Rme_store.Crc32
module Fault = Rme_store.Fault
module Store = Rme_store.Store
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
      (Printf.sprintf "rme_resil_test_%d_%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf d;
  Sys.mkdir d 0o755;
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let fp = "0123456789abcdef0123456789abcdef"

(* Every test that arms faults must disarm them on the way out, pass or fail — global state leaking into the next
   test would be its own flakiness generator. *)
let with_clean_globals f =
  Fun.protect
    ~finally:(fun () -> Fault.set_spec None)
    f

(* ---------------- CRC-32 ---------------- *)

let test_crc_vectors () =
  Alcotest.(check string) "IEEE check vector" "cbf43926"
    (Crc32.hex_of_string "123456789");
  Alcotest.(check int) "empty string" 0 (Crc32.string "");
  Alcotest.(check string) "8 hex digits, zero-padded" "00000000" (Crc32.to_hex 0);
  let s = "cell some-key := some-value" in
  let whole = Crc32.string s in
  let split = Crc32.update (Crc32.update 0 s 0 9) s 9 (String.length s - 9) in
  Alcotest.(check int) "incremental update = whole" whole split;
  Alcotest.(check int) "sub = string of substring"
    (Crc32.string "345")
    (Crc32.sub "12345678" ~pos:2 ~len:3);
  Alcotest.check_raises "bad bounds rejected"
    (Invalid_argument "Crc32.sub") (fun () ->
      ignore (Crc32.sub "abc" ~pos:2 ~len:5))

(* ---------------- fault-injection spec ---------------- *)

let test_fault_spec () =
  with_clean_globals (fun () ->
      Fault.set_spec (Some "counted:3,always,param-site:70");
      Alcotest.(check bool) "absent site never fires" false (Fault.fire "nope");
      Alcotest.(check bool) "absent site not armed" false (Fault.armed "nope");
      Alcotest.(check (list bool)) "counted fires exactly on the 3rd call"
        [ false; false; true; false; false ]
        (List.init 5 (fun _ -> Fault.fire "counted"));
      Alcotest.(check (list bool)) "bare name fires every call" [ true; true ]
        (List.init 2 (fun _ -> Fault.fire "always"));
      Alcotest.(check bool) "armed does not consume" true
        (Fault.armed "param-site" && Fault.armed "param-site");
      Alcotest.(check (option int)) "param read back" (Some 70)
        (Fault.param "param-site");
      Alcotest.(check (option int)) "bare site has no param" None
        (Fault.param "always");
      Fault.set_spec None;
      Alcotest.(check bool) "disarmed" false (Fault.fire "always"))

(* ---------------- budgets flag deadlocks ---------------- *)

let deadlock_factory = Test_harness.deadlock_factory

let test_step_budget_flags_deadlock () =
  (* S6 regression: the default budget formula must flag a deadlocked
     lock as timed out — never loop. *)
  Alcotest.(check int) "budget formula exposed" (20_000 + (4_000 * 2 * 2))
    (H.default_step_budget ~n:2);
  let cfg = H.default_config ~n:2 ~width:8 Rmr.Cc in
  let r = H.run cfg deadlock_factory in
  Alcotest.(check bool) "flagged timed out" true r.H.timed_out;
  Alcotest.(check bool) "not ok" false r.H.ok;
  Alcotest.(check int) "stopped at the budget" cfg.H.step_budget r.H.steps

(* ---------------- store faults lose nothing committed ---------------- *)

let test_store_eio_keeps_committed_lines () =
  with_clean_globals (fun () ->
      with_dir (fun d ->
          let s = Store.open_ ~dir:d ~fingerprint:fp in
          Store.add s ~section:"cell" ~key:"k1" ~value:"v1";
          Store.flush s;
          Store.add s ~section:"cell" ~key:"k2" ~value:"v2";
          Fault.set_spec (Some "store-eio");
          (match Store.flush s with
          | () -> Alcotest.fail "flush should have failed with EIO"
          | exception Sys_error _ -> ());
          (* The failed flush destroyed nothing already on disk... *)
          let s2 = Store.open_ ~dir:d ~fingerprint:fp in
          Alcotest.(check bool) "committed line intact" true
            (Store.find s2 ~section:"cell" "k1" = Some "v1");
          (* ... and the pending entry is still buffered: the next
             healthy flush commits it. *)
          Fault.set_spec None;
          Store.flush s;
          let s3 = Store.open_ ~dir:d ~fingerprint:fp in
          Alcotest.(check bool) "pending entry survives the fault" true
            (Store.find s3 ~section:"cell" "k2" = Some "v2")))

let test_store_rename_eio_keeps_committed_lines () =
  with_clean_globals (fun () ->
      with_dir (fun d ->
          let s = Store.open_ ~dir:d ~fingerprint:fp in
          Store.add s ~section:"cell" ~key:"k1" ~value:"v1";
          Store.flush s;
          Store.add s ~section:"cell" ~key:"k2" ~value:"v2";
          Fault.set_spec (Some "store-rename-eio");
          (match Store.flush s with
          | () -> Alcotest.fail "flush should have failed before rename"
          | exception Sys_error _ -> ());
          Fault.set_spec None;
          (* The atomic-rename discipline means the fault left no torn
             shard behind — only the healthy previous generation. *)
          let s2 = Store.open_ ~dir:d ~fingerprint:fp in
          Alcotest.(check int) "no quarantine, no tear" 0
            (Store.stats s2).Store.quarantined;
          Alcotest.(check bool) "committed line intact" true
            (Store.find s2 ~section:"cell" "k1" = Some "v1")))

(* ---------------- v1 shards still load ---------------- *)

let test_v1_shard_compat () =
  with_dir (fun d ->
      let path = Filename.concat d "shard-legacy-0.rme" in
      let oc = open_out path in
      Printf.fprintf oc "# rme-store 1 %s\ncell old-key := old-value\n" fp;
      close_out oc;
      let s = Store.open_ ~dir:d ~fingerprint:fp in
      Alcotest.(check bool) "pre-CRC line served" true
        (Store.find s ~section:"cell" "old-key" = Some "old-value");
      Alcotest.(check int) "nothing quarantined" 0 (Store.stats s).Store.quarantined;
      (* A v2 rewrite of the same directory re-persists it with CRCs. *)
      Store.add s ~section:"cell" ~key:"new-key" ~value:"new-value";
      Store.flush s;
      let r = Fsck.scan ~dir:d ~fingerprint:fp in
      Alcotest.(check int) "both shards readable" 2 r.Fsck.clean)

(* ---------------- fsck: scan / repair / compact ---------------- *)

(* A zoo with one shard of every class. Entry keys are distinct so the
   surviving population is checkable exactly. *)
let build_zoo d =
  let write name lines =
    let oc = open_out (Filename.concat d name) in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc
  in
  let line k v = Record.encode_line ~section:"cell" ~key:k ~value:v in
  let hdr = Record.header ~fingerprint:fp in
  write "shard-clean-0.rme" [ hdr; line "c1" "v"; line "c2" "v" ];
  write "shard-v1-0.rme"
    [ Printf.sprintf "# rme-store 1 %s" fp; "cell o1 := v" ];
  write "shard-stale-0.rme"
    [ Record.header ~fingerprint:"ffffffffffffffffffffffffffffffff"; line "s1" "v" ];
  (* Torn: valid prefix, then an unterminated half line at EOF. *)
  let torn = Filename.concat d "shard-torn-0.rme" in
  let oc = open_out torn in
  output_string oc (hdr ^ "\n" ^ line "t1" "v" ^ "\n" ^ line "t2" "v" ^ "\n");
  output_string oc (String.sub (line "t3" "v") 0 8);
  close_out oc;
  (* Corrupt: a bit-flip in the middle line of three. *)
  let l2 = Bytes.of_string (line "m2" "v") in
  Bytes.set l2 6 'X';
  write "shard-corrupt-0.rme"
    [ hdr; line "m1" "v"; Bytes.to_string l2; line "m3" "v" ];
  write "shard-junk-0.rme" [ "\x00\x01 not a shard at all" ]

let test_fsck_scan_classifies () =
  with_dir (fun d ->
      build_zoo d;
      let r = Fsck.scan ~dir:d ~fingerprint:fp in
      Alcotest.(check int) "scanned" 6 r.Fsck.scanned;
      Alcotest.(check int) "clean (v2 + v1)" 2 r.Fsck.clean;
      Alcotest.(check int) "stale" 1 r.Fsck.stale;
      Alcotest.(check int) "torn" 1 r.Fsck.torn;
      Alcotest.(check int) "corrupt" 1 r.Fsck.corrupt;
      Alcotest.(check int) "unreadable" 1 r.Fsck.unreadable;
      Alcotest.(check int) "intact entries" 7 r.Fsck.entries;
      Alcotest.(check int) "lost lines" 2 r.Fsck.lost_lines;
      (* Scan is read-only: the zoo is untouched. *)
      Alcotest.(check int) "nothing quarantined" 0
        (let q = Filename.concat d "quarantine" in
         if Sys.file_exists q then Array.length (Sys.readdir q) else 0))

let test_fsck_repair_heals_and_salvages () =
  with_dir (fun d ->
      build_zoo d;
      let r = Fsck.repair ~dir:d ~fingerprint:fp in
      Alcotest.(check int) "torn shard healed in place" 1 r.Fsck.healed;
      Alcotest.(check int) "corrupt + junk quarantined" 2 r.Fsck.quarantined;
      Alcotest.(check int) "good lines salvaged out of the corrupt shard" 2
        r.Fsck.salvaged;
      (* Post-repair, the directory is wholly clean... *)
      let r2 = Fsck.scan ~dir:d ~fingerprint:fp in
      Alcotest.(check int) "no torn left" 0 r2.Fsck.torn;
      Alcotest.(check int) "no corrupt left" 0 r2.Fsck.corrupt;
      Alcotest.(check int) "no unreadable left" 0 r2.Fsck.unreadable;
      Alcotest.(check int) "entries preserved" 7 r2.Fsck.entries;
      (* ... and the store serves exactly the intact population. *)
      let s = Store.open_ ~dir:d ~fingerprint:fp in
      let have k = Store.find s ~section:"cell" k <> None in
      List.iter
        (fun k -> Alcotest.(check bool) (k ^ " survives") true (have k))
        [ "c1"; "c2"; "o1"; "t1"; "t2"; "m1"; "m3" ];
      List.iter
        (fun k -> Alcotest.(check bool) (k ^ " gone") false (have k))
        [ "t3"; "m2"; "s1" ])

let test_fsck_compact_merges () =
  with_dir (fun d ->
      build_zoo d;
      let merged, entries = Fsck.compact ~dir:d ~fingerprint:fp in
      Alcotest.(check bool) "several shards merged" true (merged >= 2);
      Alcotest.(check int) "all intact entries written" 7 entries;
      let r = Fsck.scan ~dir:d ~fingerprint:fp in
      Alcotest.(check int) "one clean shard remains" 1 r.Fsck.clean;
      Alcotest.(check int) "stale shard left alone" 1 r.Fsck.stale;
      Alcotest.(check int) "entries preserved" 7 r.Fsck.entries;
      let s = Store.open_ ~dir:d ~fingerprint:fp in
      Alcotest.(check bool) "salvaged entry survives the merge" true
        (Store.find s ~section:"cell" "m3" = Some "v"))

let suite =
  ( "resilience",
    [
      Alcotest.test_case "crc32: vectors and incremental update" `Quick
        test_crc_vectors;
      Alcotest.test_case "fault: spec parsing, counted fire, params" `Quick
        test_fault_spec;
      Alcotest.test_case "harness: step budget flags a deadlocked lock" `Quick
        test_step_budget_flags_deadlock;
      Alcotest.test_case "store: EIO on flush loses no committed line" `Quick
        test_store_eio_keeps_committed_lines;
      Alcotest.test_case "store: EIO on rename leaves no torn shard" `Quick
        test_store_rename_eio_keeps_committed_lines;
      Alcotest.test_case "store: v1 (pre-CRC) shards still load" `Quick
        test_v1_shard_compat;
      Alcotest.test_case "fsck: scan classifies the zoo" `Quick
        test_fsck_scan_classifies;
      Alcotest.test_case "fsck: repair heals, quarantines, salvages" `Quick
        test_fsck_repair_heals_and_salvages;
      Alcotest.test_case "fsck: compact merges clean shards" `Quick
        test_fsck_compact_merges;
    ] )
