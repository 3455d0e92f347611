(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over native
   ints. OCaml ints are at least 63 bits on every platform we target,
   so the 32-bit register needs no boxing; all published values are
   masked to 32 bits. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let update crc s pos len =
  let t = Lazy.force table in
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := t.((!c lxor Char.code (String.unsafe_get s i)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

let string s = update 0 s 0 (String.length s)

let sub s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.sub";
  update 0 s pos len

let to_hex c = Printf.sprintf "%08x" (c land 0xFFFFFFFF)
let hex_of_string s = to_hex (string s)
