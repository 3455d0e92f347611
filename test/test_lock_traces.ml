(* Per-lock golden traces: every registry lock, plus one
   Katzan-Morrison arity variant, runs fixed seeds under CC and DSM and
   the MD5 of each full trace (pid, section, location, operation,
   old -> new value, RMR flag, crash steps) must match the pinned
   digest. Recoverable locks run with individual crashes, epoch-mcs
   with scripted system-wide crashes, the others crash-free. A change
   to how any lock composes its steps that moves a single step, value
   or RMR fails here, naming the lock, model and seed. *)

module H = Rme_sim.Harness
module Trace = Rme_sim.Trace
module Lock_intf = Rme_sim.Lock_intf
module Rmr = Rme_memory.Rmr

let n = 5

(* Each lock runs at its narrowest word for [n]: KM then climbs a
   three-level binary tree and spells pids in two chunks. *)
let config (factory : Lock_intf.factory) model seed =
  let crashes =
    if factory.name = Rme_locks.Epoch_mcs.factory.name then
      H.System_crash_script [ 7; 31; 60 ]
    else if factory.recoverable then H.Crash_prob { prob = 0.08; seed }
    else H.No_crashes
  in
  {
    (H.default_config ~n ~width:(factory.min_width ~n) model) with
    superpassages = 3;
    policy = H.Random_policy seed;
    crashes;
    allow_cs_crash = true;
    max_crashes_per_process = 3;
    record_trace = true;
  }

let digest factory model seed =
  let r = H.run (config factory model seed) factory in
  match r.H.trace with
  | Some t ->
      Digest.to_hex
        (Digest.string (Format.asprintf "ok=%b@.%a" r.H.ok Trace.pp t))
  | None -> Alcotest.failf "%s: no trace recorded" factory.name

let runs factory =
  List.concat_map
    (fun (label, model) ->
      List.map
        (fun seed ->
          (Printf.sprintf "%s seed %d" label seed, digest factory model seed))
        [ 1; 2 ])
    [ ("CC", Rmr.Cc); ("DSM", Rmr.Dsm) ]

(* (lock, [CC seed 1; CC seed 2; DSM seed 1; DSM seed 2]) *)
let expected =
  [
    ( "tas",
      [
        "bc7a2b2d957d39ee3cba483d189a034b";
        "b99103c4d4da22de7541eb88e30b95de";
        "bc7a2b2d957d39ee3cba483d189a034b";
        "b99103c4d4da22de7541eb88e30b95de";
      ] );
    ( "ticket",
      [
        "acfd51e7b8ee3f7f7b298eb5a6a93df5";
        "64eebfb3a5756c45237f09b8e7e89561";
        "acfd51e7b8ee3f7f7b298eb5a6a93df5";
        "64eebfb3a5756c45237f09b8e7e89561";
      ] );
    ( "mcs",
      [
        "dc988271d36f97c3c6adfa23a6bcf2cf";
        "cb2413bdd8dbf0f9453529825bc2493e";
        "8965422ec55faadd7a926f491370ed1a";
        "dd51f564327cd421780d7a25e2c6b198";
      ] );
    ( "clh",
      [
        "0279e571db5886373ee948307b04796e";
        "0ecbf37727d121d11e10c6d50fee1748";
        "2dffdae31516e13de63977a245a26a26";
        "e0516aee301af56811a50f4fbca0c4b7";
      ] );
    ( "peterson-tree",
      [
        "a7e728c6f3d237e84836f72620ed1960";
        "112dfebeb88b13899ea05045df2b4274";
        "c824a4a480900e1da9d696db8421ae85";
        "d9cec2f65f8693710a89f16713870934";
      ] );
    ( "rcas",
      [
        "13fbb8cb7f6a175b3036d5c4d057a544";
        "231764e387a4531d2488254811a24e3e";
        "aa6cc6f572c50dba82c003b0e6747c9d";
        "6c54395f852dd512a141ff1e281b8ef2";
      ] );
    ( "rstamp",
      [
        "bfe3afcddf3f4e1d133e41b48c274c5b";
        "5050b6f2d492938ad9dea0ea1bb3e04f";
        "bca4ebacefbb6341e402a0593d7dd661";
        "e58e8e5a66225d988d8f88d6cabad5ac";
      ] );
    ( "rtournament",
      [
        "6119bd9616764196a6a3f02c867e650b";
        "6f001cf2131803766d2d6248e552e66c";
        "5a1e7fdc352d34c12e3d573d840cf55f";
        "249b652717e844946e93914119d5839e";
      ] );
    ( "katzan-morrison",
      [
        "78b4e8fb562f5b79f0bd41cf1b8758c9";
        "ab90c3b9b99045c7979c948d43aa20d2";
        "a821cb1a785139661401e14c57b56bf3";
        "ebf6ec58c5208aa9c64e471bedfc224a";
      ] );
    ( "sublog-tournament",
      [
        "78b4e8fb562f5b79f0bd41cf1b8758c9";
        "ab90c3b9b99045c7979c948d43aa20d2";
        "a821cb1a785139661401e14c57b56bf3";
        "ebf6ec58c5208aa9c64e471bedfc224a";
      ] );
    ( "epoch-mcs",
      [
        "0fd26ffec9f534292b35e9ed017335a6";
        "af1a9b551adf0e5291417f216dad79c8";
        "d2173e78b3bb453c6acdc48e541cdbbf";
        "787ccceecfb3ac0f8eecc0f444f932b0";
      ] );
    ( "katzan-morrison-b3",
      [
        "cbdb53467c78e260d99b02baeee9f2a2";
        "a732f3bac05e686c41f4a7861e4977d6";
        "9ad70160436d0286d2548daf80847ec6";
        "535b26a50c9080269a26a607a2e3b3cb";
      ] );
  ]

let factories =
  Rme_locks.Registry.all @ [ Rme_locks.Katzan_morrison.factory_with_arity 3 ]

let case (factory : Lock_intf.factory) =
  Alcotest.test_case ("golden trace digests: " ^ factory.name) `Quick (fun () ->
      let want =
        List.combine
          [ "CC seed 1"; "CC seed 2"; "DSM seed 1"; "DSM seed 2" ]
          (List.assoc factory.name expected)
      in
      Alcotest.(check (list (pair string string))) factory.name want (runs factory))

let suite = ("lock-traces", List.map case factories)
