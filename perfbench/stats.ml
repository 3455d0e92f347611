(* Order statistics for the benchmark's timings. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between the two closest ranks: with [n] sorted
   samples the [q]-th percentile sits at position [(n - 1) * q / 100]. *)
let percentile xs q =
  if xs = [] then invalid_arg "Stats.percentile: no samples";
  if q < 0.0 || q > 100.0 then invalid_arg "Stats.percentile: q outside [0, 100]";
  let a = sorted xs in
  let pos = float_of_int (Array.length a - 1) *. q /. 100.0 in
  let lo = int_of_float pos in
  let hi = min (Array.length a - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  a.(lo) +. ((a.(hi) -. a.(lo)) *. frac)

let median xs = percentile xs 50.0

(* The low decile: the time the fastest tenth of a timing's repeats
   reach. On a shared host other load only ever adds time, and it comes
   in phases seconds long, so a run's median follows the host while its
   low decile follows the program. *)
let low_decile xs = percentile xs 10.0

(* How many of [n] samples lie above the [q]-th percentile. *)
let samples_beyond ~n q =
  int_of_float (Float.of_int n *. (100.0 -. q) /. 100.0 +. 1e-9)

(* A percentile is resolved when at least ten samples lie beyond it: a
   p90 needs 100 samples, a p99 needs 1000. *)
let resolved ~n q = samples_beyond ~n q >= 10
