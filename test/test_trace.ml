(* Golden traces: three fixed harness runs, printed with Trace.pp, must
   match test/trace.expected byte for byte. They pin every event the
   simulator emits — step values, RMR flags, sections, crash steps and
   the system epoch increment — so any change to how a step is executed
   or recorded that moves one event fails here. *)

module H = Rme_sim.Harness
module Trace = Rme_sim.Trace
module Rmr = Rme_memory.Rmr

let runs =
  let crashy model =
    {
      (H.default_config ~n:3 ~width:16 model) with
      superpassages = 2;
      policy = H.Random_policy 11;
      crashes = H.Crash_prob { prob = 0.2; seed = 1 };
      allow_cs_crash = true;
      max_crashes_per_process = 2;
      record_trace = true;
    }
  in
  [
    ("rcas, CS crashes, CC", crashy Rmr.Cc, Rme_locks.Rcas.factory);
    ("rcas, CS crashes, DSM", crashy Rmr.Dsm, Rme_locks.Rcas.factory);
    ( "epoch-mcs, system crashes, CC",
      {
        (H.default_config ~n:3 ~width:16 Rmr.Cc) with
        superpassages = 2;
        crashes = H.System_crash_script [ 4; 25 ];
        allow_cs_crash = true;
        record_trace = true;
      },
      Rme_locks.Epoch_mcs.factory );
  ]

let render () =
  List.map
    (fun (title, config, factory) ->
      let r = H.run config factory in
      match r.H.trace with
      | Some t -> Format.asprintf "== %s (ok=%b)@.%a" title r.H.ok Trace.pp t
      | None -> Alcotest.failf "%s: no trace recorded" title)
    runs
  |> String.concat ""

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_golden () =
  Alcotest.(check string) "trace.expected" (read_file "trace.expected") (render ())

let suite = ("trace", [ Alcotest.test_case "golden traces" `Quick test_golden ])
