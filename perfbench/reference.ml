(* The speed of the host. The benchmark runs on shared hosts whose speed
   drifts by up to 1.8x over minutes, more than a bound on a timing can
   allow. A run therefore also times this fixed computation, which uses
   only the standard library, and reports its timings as they would read
   on a host where the computation takes [nominal_s]. A slow phase of the
   host moves the reference and the workload alike; a change to the
   library cannot move the reference, short of changing the runtime's GC
   settings for the whole process. *)

module Int_map = Map.Make (Int)

(* An ordered map, a hash table and a sort over 10,000 random keys, then
   lists of 100,000 pairs that the minor collector promotes and the major
   one frees: the mix of cache misses and of minor and major collection
   of an OCaml program like the simulator. Of the fixed computations
   tried, this one followed the workloads' slow phases most closely. *)
let run () =
  let st = Random.State.make [| 7 |] in
  let keys = List.init 10_000 (fun _ -> Random.State.int st 1_000_000) in
  let h = Hashtbl.create 16 in
  let m = List.fold_left (fun m k -> Hashtbl.replace h k k; Int_map.add k k m) Int_map.empty keys in
  let sorted = List.sort compare keys in
  let sum =
    Int_map.fold (fun k v a -> a + v + Option.value ~default:0 (Hashtbl.find_opt h k)) m
      (List.hd sorted)
  in
  let promoted = ref 0 in
  for _ = 1 to 2 do
    promoted := !promoted + List.length (List.init 100_000 (fun i -> (i, sum)))
  done;
  Sys.opaque_identity (sum + !promoted)

(* The low decile of [sample ~jobs] on the 2.0 GHz x86-64 VM the bounds
   were set on, at its fastest. On two domains each copy runs slower:
   the domains share the minor collections. *)
let nominal_s ~jobs = if jobs = 1 then 0.020 else 0.035

(* Times of [run] on [jobs] domains at once, until the last one ends:
   a workload on several domains depends on the speed of as many cores.
   Repeated while [credit] seconds are left, each time taken from it;
   the times are added to [acc]. *)
let sample ~jobs ~credit acc =
  let rec go acc =
    if !credit <= 0.0 then acc
    else begin
      let t = Spans.now () in
      let others = List.init (jobs - 1) (fun _ -> Domain.spawn run) in
      ignore (run ());
      List.iter (fun d -> ignore (Domain.join d)) others;
      let dt = Spans.now () -. t in
      credit := !credit -. dt;
      go (dt :: acc)
    end
  in
  go acc

(* The factor that takes a timing on this host to the nominal one. *)
let factor ~jobs samples = nominal_s ~jobs /. Stats.low_decile samples
