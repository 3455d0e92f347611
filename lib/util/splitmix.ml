(* The 64-bit state lives unboxed in 8 bytes, so a draw reads and writes
   it without allocating an [Int64] box; [int] and [bool] allocate
   nothing and [float] only its result. [advance] and [mix] are inlined
   into each draw so the intermediate values stay unboxed too. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] get g = Bytes.get_int64_ne g 0

let[@inline] set g v = Bytes.set_int64_ne g 0 v

let of_state s =
  let g = Bytes.create 8 in
  set g s;
  g

let create seed = of_state (Int64.of_int seed)

let copy g = Bytes.copy g

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] advance g =
  let s = Int64.add (get g) golden_gamma in
  set g s;
  mix s

let next g = advance g

let int g bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  (* Take the top bits, which have the best statistical quality, and reduce
     modulo the bound; the modulo bias is negligible for simulation use. *)
  let raw = Int64.to_int (Int64.shift_right_logical (advance g) 2) in
  raw mod bound

let float g =
  let raw = Int64.to_float (Int64.shift_right_logical (advance g) 11) in
  raw *. (1.0 /. 9007199254740992.0)

let bool g = Int64.logand (advance g) 1L = 1L

let split g =
  let seed = Int64.to_int (advance g) in
  of_state (mix (Int64.of_int seed))

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
