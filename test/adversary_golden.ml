(* Golden digests of the lower-bound adversary. Each configuration
   (recoverable lock, model, n, w) runs [Adversary.run] at its default
   threshold and hashes the whole result: every round (kind, active
   counts, finished, removed, replays), the survivors, the finished,
   removed and escaped counts, the survivors' minimum RMRs, the replay
   checks, and every committed directive with its record and each
   round's boundary. Shared by the tier-1 suite and the randomised
   hash-seed executable, which compare against the same table. *)

module A = Rme_core.Adversary
module S = Rme_core.Schedule
module Rmr = Rme_memory.Rmr
module Intset = Rme_util.Intset

let bprintf = Printf.bprintf

let ints b l = List.iter (bprintf b " %d") l

let add_directive b ((d : S.directive), (r : S.record)) =
  (match d with
  | S.D_local p -> bprintf b "L%d" p
  | S.D_step { pid; hidden_as } ->
      bprintf b "S%d[" pid;
      ints b hidden_as;
      bprintf b "]"
  | S.D_crash p -> bprintf b "C%d" p
  | S.D_complete p -> bprintf b "F%d" p);
  match r with
  | S.R_local k -> bprintf b "=%d\n" k
  | S.R_step { loc; old_value } -> bprintf b "@%d:%d\n" loc old_value
  | S.R_crash -> bprintf b "!\n"
  | S.R_complete k -> bprintf b "#%d\n" k

let digest (factory : Rme_sim.Lock_intf.factory) model ~n ~w =
  let r = A.run (A.default_config ~n ~width:w model) factory in
  let b = Buffer.create 4096 in
  List.iter
    (fun (ri : A.round_info) ->
      bprintf b "round %d %s %d %d %d %d %d\n" ri.A.index
        (A.round_kind_name ri.A.kind)
        ri.A.active_before ri.A.active_after ri.A.newly_finished
        ri.A.newly_removed ri.A.replays)
    r.A.rounds;
  bprintf b "completed=%d survivors=" r.A.rounds_completed;
  ints b (Intset.to_sorted_list r.A.survivors);
  bprintf b "\nmin_rmrs=%d finished=%d removed=%d escaped=%d checked=%d\n"
    r.A.survivor_min_rmrs r.A.finished r.A.removed r.A.escaped
    r.A.replay_checked_steps;
  Array.iter (add_directive b) r.A.schedule.A.directives;
  bprintf b "boundaries";
  ints b (List.map (fun (m : A.round_meta) -> m.A.boundary) r.A.schedule.A.metas);
  Digest.to_hex (Digest.string (Buffer.contents b))

let widths = [ 4; 8; 16; 32 ]

(* The configurations at [n]: each of [locks] under CC and DSM, at each
   of [widths] the lock supports, labelled "lock model n w". *)
let configs ?(locks = Rme_locks.Registry.recoverable) ~n () =
  List.concat_map
    (fun (factory : Rme_sim.Lock_intf.factory) ->
      List.concat_map
        (fun model ->
          List.filter_map
            (fun w ->
              if w < factory.min_width ~n then None
              else
                Some
                  ( Printf.sprintf "%s %s %d %d" factory.name
                      (Rmr.model_name model) n w,
                    fun () -> digest factory model ~n ~w ))
            widths)
        Rmr.all_models)
    locks

(* (label, MD5) per configuration. A change that moves one is a change
   to the construction's output, not a refactoring. *)
let expected =
  [
    ("rcas CC 64 8", "83200477854222a9e2ce35660fdde96a");
    ("rcas CC 64 16", "bd4b3bf6d5c1425d9a84f8c718793ef0");
    ("rcas CC 64 32", "73110429c34422c7786748f419ceaf4a");
    ("rcas DSM 64 8", "4d51691d4df364301a236a6819f535a4");
    ("rcas DSM 64 16", "35729e3792beff6548d1b31ea9797e27");
    ("rcas DSM 64 32", "b6bb24d73f32973c744154e8b97dda41");
    ("rstamp CC 64 8", "e76ebdc41997ab06dc6b563d9d63ffa8");
    ("rstamp CC 64 16", "0284744e16264df4e0146461d65e0e51");
    ("rstamp CC 64 32", "150e76b45672a777a93e937dc32f8016");
    ("rstamp DSM 64 8", "4dcc2bb82a23fb4ba6936cc409bcc452");
    ("rstamp DSM 64 16", "d72187d8bb8a7a45536e3210975f3a40");
    ("rstamp DSM 64 32", "15de8a16f3db30c8039c9cabdbcd1226");
    ("rtournament CC 64 4", "52e1135e4303ca2eae1bae7f4928d248");
    ("rtournament CC 64 8", "52e1135e4303ca2eae1bae7f4928d248");
    ("rtournament CC 64 16", "52e1135e4303ca2eae1bae7f4928d248");
    ("rtournament CC 64 32", "52e1135e4303ca2eae1bae7f4928d248");
    ("rtournament DSM 64 4", "df1f3fd7ed4901cef7ab8892b525ed04");
    ("rtournament DSM 64 8", "df1f3fd7ed4901cef7ab8892b525ed04");
    ("rtournament DSM 64 16", "df1f3fd7ed4901cef7ab8892b525ed04");
    ("rtournament DSM 64 32", "df1f3fd7ed4901cef7ab8892b525ed04");
    ("katzan-morrison CC 64 4", "dcfa597c3cc3badbdc893669721df0bf");
    ("katzan-morrison CC 64 8", "76a2dc9fe9af69007c2487dad58f01bd");
    ("katzan-morrison CC 64 16", "21f9ebd564517a1976406132931a7e62");
    ("katzan-morrison CC 64 32", "125a365e11dac45a963903f80ca95b10");
    ("katzan-morrison DSM 64 4", "eb64bbc9f2f82437d8c4c294bbc39700");
    ("katzan-morrison DSM 64 8", "2bcc913305e13baa23ee9dedc5b301d7");
    ("katzan-morrison DSM 64 16", "158ec01a9adeb4458df0f6dc1e03ac9d");
    ("katzan-morrison DSM 64 32", "11220c16a9cc4a35900cc8387b2e24f6");
    ("sublog-tournament CC 64 4", "b3b90dfa90b48ff4a2477d8a5191452d");
    ("sublog-tournament CC 64 8", "6f2d74029299e414fe0fac861b0c43b2");
    ("sublog-tournament CC 64 16", "6f2d74029299e414fe0fac861b0c43b2");
    ("sublog-tournament CC 64 32", "6f2d74029299e414fe0fac861b0c43b2");
    ("sublog-tournament DSM 64 4", "d406f747c1b41175d61a231bf287808a");
    ("sublog-tournament DSM 64 8", "48289aa96a251d059b0fcfc7d3606b8d");
    ("sublog-tournament DSM 64 16", "48289aa96a251d059b0fcfc7d3606b8d");
    ("sublog-tournament DSM 64 32", "48289aa96a251d059b0fcfc7d3606b8d");
    ("rcas CC 256 16", "e309ffc36f50d8bec90404a1bde15dda");
    ("rcas CC 256 32", "ce6de52e63295143a28c1216eca88dec");
    ("rcas DSM 256 16", "c79a8335ac3cb2193e64995180dc8a96");
    ("rcas DSM 256 32", "e1925d89172a3bdecfc4e41ed1be8628");
    ("rstamp CC 256 16", "7fc18cae10e46a23523e276a235e8dca");
    ("rstamp CC 256 32", "8c6f486dc89fd780d07f8e311bb63611");
    ("rstamp DSM 256 16", "c8c7e740f1786a4a8589b76a18b1a929");
    ("rstamp DSM 256 32", "ebd0c5603a8605f555715305a187b3ed");
    ("rtournament CC 256 4", "0f0411f13aee4a86c67ec5b0415cbe50");
    ("rtournament CC 256 8", "0f0411f13aee4a86c67ec5b0415cbe50");
    ("rtournament CC 256 16", "0f0411f13aee4a86c67ec5b0415cbe50");
    ("rtournament CC 256 32", "0f0411f13aee4a86c67ec5b0415cbe50");
    ("rtournament DSM 256 4", "63874ef040a70da47c28d19ad1e72fd3");
    ("rtournament DSM 256 8", "63874ef040a70da47c28d19ad1e72fd3");
    ("rtournament DSM 256 16", "63874ef040a70da47c28d19ad1e72fd3");
    ("rtournament DSM 256 32", "63874ef040a70da47c28d19ad1e72fd3");
    ("katzan-morrison CC 256 4", "aeae9203747485cd983b5bdccf516271");
    ("katzan-morrison CC 256 8", "a348458b14ed8e8870a44611579fd4b4");
    ("katzan-morrison CC 256 16", "b288d60bb748f9f4ede93d812a690698");
    ("katzan-morrison CC 256 32", "537541cc6aa4e8d0c5565c04605203e6");
    ("katzan-morrison DSM 256 4", "e3cabdc2f2cb125b0232d976b94e4141");
    ("katzan-morrison DSM 256 8", "a0bdae925d92b40f3fe463001a49c11a");
    ("katzan-morrison DSM 256 16", "5091f98dd61b7a7044515ed9666da5c9");
    ("katzan-morrison DSM 256 32", "7353a2f8293d4d85c3df817e7604630c");
    ("sublog-tournament CC 256 4", "b9df1639aaa0b4c63a609ddcd352f9ac");
    ("sublog-tournament CC 256 8", "1f1de935a4791304f6d1a022b27e3813");
    ("sublog-tournament CC 256 16", "1f1de935a4791304f6d1a022b27e3813");
    ("sublog-tournament CC 256 32", "1f1de935a4791304f6d1a022b27e3813");
    ("sublog-tournament DSM 256 4", "ebe55b4ffb15edc45acada28adaf6e70");
    ("sublog-tournament DSM 256 8", "c5f03e82d3649fae3b963d4a717d82d8");
    ("sublog-tournament DSM 256 16", "c5f03e82d3649fae3b963d4a717d82d8");
    ("sublog-tournament DSM 256 32", "c5f03e82d3649fae3b963d4a717d82d8");
    ("rcas CC 1024 16", "bd84f5a8625a53abb21210ea1168c2c4");
    ("rcas CC 1024 32", "66dc9755128aed9235670f821b20221b");
    ("rcas DSM 1024 16", "df10276bc2781a88528d90e26ae1f59a");
    ("rcas DSM 1024 32", "90eef3ddd9e87246a713898c6ddaf8b7");
    ("rstamp CC 1024 16", "22834f6a12b93d76b9111de2bfa60084");
    ("rstamp CC 1024 32", "cc9f650b9d07b39f93c94a6d3fa46b3d");
    ("rstamp DSM 1024 16", "fc26a57b7adb128c909a67d05e5ce4c3");
    ("rstamp DSM 1024 32", "7c695eac87886459fd2eb263338293e0");
    ("rtournament CC 1024 4", "8cf8c4101700f7c66a0d143b78e20749");
    ("rtournament CC 1024 8", "8cf8c4101700f7c66a0d143b78e20749");
    ("rtournament CC 1024 16", "8cf8c4101700f7c66a0d143b78e20749");
    ("rtournament CC 1024 32", "8cf8c4101700f7c66a0d143b78e20749");
    ("rtournament DSM 1024 4", "047ff4ec85542c3ec013467aeabc9837");
    ("rtournament DSM 1024 8", "047ff4ec85542c3ec013467aeabc9837");
    ("rtournament DSM 1024 16", "047ff4ec85542c3ec013467aeabc9837");
    ("rtournament DSM 1024 32", "047ff4ec85542c3ec013467aeabc9837");
    ("katzan-morrison CC 1024 4", "9166c40f16a7e404afe9fef3c6b2d27b");
    ("katzan-morrison CC 1024 8", "3d43c4f71366aa729e4145b3fd355d03");
    ("katzan-morrison CC 1024 16", "955fba6a6d9677a7f8eb419dd878547d");
    ("katzan-morrison CC 1024 32", "e7cde5e368d08b3bfa99cbb037690b4e");
    ("katzan-morrison DSM 1024 4", "11e33f0e71fd31f23746695997ecb2e7");
    ("katzan-morrison DSM 1024 8", "878902a346f46022f11abf229c7dc51a");
    ("katzan-morrison DSM 1024 16", "109a6cf554100a1a2e8c81dd00562feb");
    ("katzan-morrison DSM 1024 32", "caa8a6693ccaadf080dbabc642df6417");
    ("sublog-tournament CC 1024 4", "9166c40f16a7e404afe9fef3c6b2d27b");
    ("sublog-tournament CC 1024 8", "05c6bf10684cf1e74aeb49cdee469181");
    ("sublog-tournament CC 1024 16", "28e82e6e1f0972120c37f0286612429c");
    ("sublog-tournament CC 1024 32", "28e82e6e1f0972120c37f0286612429c");
    ("sublog-tournament DSM 1024 4", "11e33f0e71fd31f23746695997ecb2e7");
    ("sublog-tournament DSM 1024 8", "ce881ec8c66587cbe8c157ed2b6bcbef");
    ("sublog-tournament DSM 1024 16", "954e3e88f72c15969bd6123860b38c4b");
    ("sublog-tournament DSM 1024 32", "954e3e88f72c15969bd6123860b38c4b");
  ]

(* Run the configurations at each of [ns] and check every digest against
   its pinned one. *)
let check ?locks ~ns name =
  let runs = List.concat_map (fun n -> configs ?locks ~n ()) ns in
  let pinned label =
    Option.value ~default:"(none pinned)" (List.assoc_opt label expected)
  in
  Alcotest.(check (list (pair string string)))
    name
    (List.map (fun (label, _) -> (label, pinned label)) runs)
    (List.map (fun (label, digest) -> (label, digest ())) runs)
