(* Golden adversary digests: for every recoverable lock, under CC and
   DSM, at n = 64, 256 and 1024 and each supported width in {4, 8, 16,
   32}, the MD5 of the whole construction (Adversary_golden.digest)
   must match the pinned one. A change to the round planner that moves
   one directive, record, round boundary or count fails here, naming
   the configuration. *)

let case (factory : Rme_sim.Lock_intf.factory) =
  Alcotest.test_case ("golden adversary digests: " ^ factory.name) `Quick (fun () ->
      Adversary_golden.check ~locks:[ factory ] ~ns:[ 64; 256; 1024 ] factory.name)

let suite = ("adv-digests", List.map case Rme_locks.Registry.recoverable)
