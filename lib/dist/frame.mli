(** Length-prefixed framing over byte streams (pipes).

    No executable links this library: the worker tier it served has
    been removed. It is kept, with its tests, until it is deleted.

    A frame is a 4-byte big-endian payload length followed by the
    payload bytes. The length is capped at {!max_frame}, so a stream
    of garbage bytes is detected quickly (a random high byte reads as
    an over-limit length) instead of waiting forever for a gigantic
    payload that will never arrive.

    Two consumption styles:

    - {!read} — blocking, for the worker side (its stdin is quiet
      until the coordinator speaks). Total: EOF, a torn header, a torn
      payload or an over-limit length all return [None], never raise.
    - {!decoder}/{!feed}/{!next} — incremental, for the coordinator
      side, which multiplexes many non-blocking worker pipes and must
      never block on a peer that sent half a frame and hung. *)

val max_frame : int
(** Upper bound on a payload length (bytes). Anything larger is
    treated as stream corruption. *)

val to_string : string -> string
(** [to_string payload] is the wire encoding: header + payload. *)

val write : out_channel -> string -> unit
(** Write one frame and flush. *)

val read : in_channel -> string option
(** Blocking read of one frame. [None] on EOF, truncation or an
    over-limit declared length — never an exception. *)

(** {1 Incremental decoding} *)

type decoder

val decoder : unit -> decoder
(** A fresh decoder with an empty buffer. *)

val feed : decoder -> bytes -> int -> unit
(** [feed d buf n] appends the first [n] bytes of [buf] to the
    decoder's internal buffer. *)

val next : decoder -> [ `Frame of string | `Await | `Corrupt ]
(** Extract the next complete frame, if any. [`Await] means more
    bytes are needed; [`Corrupt] means the stream declared an
    impossible length and cannot be re-synchronised (the peer must be
    dropped). Total — never raises on arbitrary input. *)
