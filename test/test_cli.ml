(* Smoke tests for the rme CLI: drive the cmdliner terms in-process
   (Cli.eval ~argv) and check exit codes and output shape, including
   the -j flag of the experiment subcommand. *)

module Cli = Rme_cli.Cli

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec loop i = i + nl <= hl && (String.sub haystack i nl = needle || loop (i + 1)) in
  loop 0

(* Run [f] with [fd] redirected to a temp file; return (result, output). *)
let capture fd f =
  let file, oc = Filename.open_temp_file "rme_cli_test" ".out" in
  close_out oc;
  let flush_outputs () =
    Format.(pp_print_flush std_formatter ());
    Format.(pp_print_flush err_formatter ());
    flush_all ()
  in
  flush_outputs ();
  let saved = Unix.dup fd in
  let tmp = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 tmp fd;
  Unix.close tmp;
  let restore () =
    flush_outputs ();
    Unix.dup2 saved fd;
    Unix.close saved
  in
  let v = Fun.protect ~finally:restore f in
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let out = really_input_string ic len in
  close_in ic;
  Sys.remove file;
  (v, out)

let eval args =
  capture Unix.stdout (fun () -> Cli.eval ~argv:(Array.of_list ("rme" :: args)) ())

let test_locks () =
  let code, out = eval [ "locks" ] in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "lists km" true (contains ~needle:"katzan-morrison" out);
  Alcotest.(check bool) "lists mcs" true (contains ~needle:"mcs" out)

let test_simulate () =
  let code, out = eval [ "simulate"; "--lock"; "mcs"; "-n"; "4" ] in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "reports ok" true (contains ~needle:"ok=true" out)

let test_adversary () =
  let code, out = eval [ "adversary"; "--lock"; "rcas"; "-n"; "32"; "--width"; "8" ] in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "reports rounds" true (contains ~needle:"rounds=" out)

let test_experiment_e1_parallel () =
  let code, out = eval [ "experiment"; "e1"; "-j"; "2" ] in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "prints the E1 table" true (contains ~needle:"E1" out);
  Alcotest.(check bool) "prints rows" true (contains ~needle:"katzan-morrison" out);
  Alcotest.(check bool) "prints counters" true (contains ~needle:"cells:" out);
  Alcotest.(check bool) "reports j=2" true (contains ~needle:"j=2" out)

let test_experiments_share_one_engine () =
  (* E6's cells are E1's: run in one invocation, E6 is served entirely
     from the memo E1 filled. *)
  let code, out = eval [ "experiment"; "e1"; "e6"; "-j"; "2" ] in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "e6 computes nothing" true
    (contains ~needle:"cells: 0 computed, 22 cached" out)

let test_negative_jobs_rejected () =
  let (code, out), err =
    capture Unix.stderr (fun () -> eval [ "experiment"; "--jobs=-3"; "e8" ])
  in
  Alcotest.(check int) "exit 1" 1 code;
  Alcotest.(check bool) "runs nothing" false (contains ~needle:"completed in" out);
  Alcotest.(check bool) "names the flag" true (contains ~needle:"--jobs" err)

let test_unknown_experiment_rejected_first () =
  let code, out = eval [ "experiment"; "e1"; "zzz" ] in
  Alcotest.(check int) "exit 1" 1 code;
  Alcotest.(check bool) "runs nothing" false (contains ~needle:"completed in" out);
  Alcotest.(check bool) "prints no E1 table" false (contains ~needle:"katzan-morrison" out)

let test_unknown_lock_rejected () =
  let code, _ = eval [ "simulate"; "--lock"; "nope" ] in
  Alcotest.(check bool) "non-zero exit" true (code <> 0)

let test_out_of_range_width_rejected () =
  let (code, out), err =
    capture Unix.stderr (fun () -> eval [ "simulate"; "--lock"; "mcs"; "-w"; "63" ])
  in
  Alcotest.(check bool) "non-zero exit" true (code <> 0);
  Alcotest.(check bool) "not an internal error (125)" true (code <> 125);
  Alcotest.(check bool) "no internal error" false
    (contains ~needle:"internal error" (out ^ err))

(* Each [args] must exit 1 with a one-line error naming [flag], before
   any run. *)
let check_rejected ~flag args =
  let (code, out), err = capture Unix.stderr (fun () -> eval ("simulate" :: args)) in
  let what = String.concat " " args in
  Alcotest.(check int) (what ^ ": exit 1") 1 code;
  Alcotest.(check bool) (what ^ ": runs nothing") false (contains ~needle:"ok=" out);
  Alcotest.(check bool) (what ^ ": names the flag") true (contains ~needle:flag err)

let test_bad_superpassages_rejected () =
  List.iter
    (check_rejected ~flag:"--superpassages")
    [ [ "--lock"; "mcs"; "-s"; "0" ]; [ "--lock"; "mcs"; "--superpassages=-1" ] ]

let test_bad_crash_prob_rejected () =
  List.iter
    (fun p -> check_rejected ~flag:"--crash-prob" [ "--lock"; "rcas"; "--crash-prob=" ^ p ])
    [ "-1"; "nan"; "2"; "1.5" ]

(* Individual crashes need a lock that recovers from them one process
   at a time: neither a conventional lock nor epoch-mcs, which is built
   for system-wide crashes, may be given --crash-prob. *)
let test_crashes_the_lock_cannot_take_rejected () =
  List.iter
    (check_rejected ~flag:"--crash-prob")
    [
      [ "--lock"; "mcs"; "--crash-prob"; "0.05" ];
      [ "--lock"; "epoch-mcs"; "-n"; "16"; "--crash-prob"; "0.05"; "--cs-crash" ];
    ]

let test_unknown_family_rejected () =
  let (code, _), _ = capture Unix.stderr (fun () -> eval [ "lemma"; "--family"; "zzz" ]) in
  Alcotest.(check int) "exit 1" 1 code

let suite =
  ( "cli",
    [
      Alcotest.test_case "locks" `Quick test_locks;
      Alcotest.test_case "simulate" `Quick test_simulate;
      Alcotest.test_case "adversary" `Quick test_adversary;
      Alcotest.test_case "experiment e1 -j 2" `Quick test_experiment_e1_parallel;
      Alcotest.test_case "experiment e1 e6 shares one engine" `Quick
        test_experiments_share_one_engine;
      Alcotest.test_case "experiment rejects negative -j" `Quick
        test_negative_jobs_rejected;
      Alcotest.test_case "unknown experiment rejected before any run" `Quick
        test_unknown_experiment_rejected_first;
      Alcotest.test_case "unknown lock rejected" `Quick test_unknown_lock_rejected;
      Alcotest.test_case "out-of-range width rejected" `Quick
        test_out_of_range_width_rejected;
      Alcotest.test_case "unknown lemma family rejected" `Quick
        test_unknown_family_rejected;
      Alcotest.test_case "simulate rejects superpassages below 1" `Quick
        test_bad_superpassages_rejected;
      Alcotest.test_case "simulate rejects a crash probability outside [0, 1]" `Quick
        test_bad_crash_prob_rejected;
      Alcotest.test_case "simulate rejects crashes the lock cannot take" `Quick
        test_crashes_the_lock_cannot_take_rejected;
    ] )
