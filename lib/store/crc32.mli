(** CRC-32 (IEEE 802.3 / zlib variant: reflected, polynomial
    [0xEDB88320], initial value and final xor [0xFFFFFFFF]).

    Used by the result store to checksum each record line, so that a
    torn or bit-flipped shard line is detected per line instead of
    condemning the whole file. The checksum is an integrity check
    against accidental corruption, not an authentication mechanism. *)

val string : string -> int
(** CRC-32 of a whole string; the standard test vector is
    [string "123456789" = 0xcbf43926]. *)

val sub : string -> pos:int -> len:int -> int
(** CRC-32 of a substring. Raises [Invalid_argument] on bad bounds. *)

val update : int -> string -> int -> int -> int
(** [update crc s pos len] extends [crc] (a previous [string]/[update]
    result; [0] for an empty prefix) over [s.[pos .. pos+len-1]]. *)

val to_hex : int -> string
(** Canonical rendering: exactly 8 lowercase hex digits. *)

val hex_of_string : string -> string
(** [to_hex (string s)]. *)
