(** The coordinator/worker message vocabulary, carried as frame
    payloads (see {!Frame}).

    No executable links this library: the worker tier it served has
    been removed. It is kept, with its tests, until it is deleted.

    Payloads are text: a first line naming the message, then one line
    per batch entry in the store's canonical shape — keys are the
    engine's serialised cell keys ([Rme_store.Codec] field syntax, so
    they contain spaces but never a newline or the [" := "]
    separator), values are serialised results.

    {v
    hello <fingerprint>                    coordinator -> worker
    ready <fingerprint>                    worker -> coordinator
    batch <id>                             coordinator -> worker
    <section> <key>
    ...
    result <id>                            worker -> coordinator
    ok <section> <key> := <value>          (computed)
    no <section> <key>                     (key undecodable / compute failed)
    ...
    v}

    The handshake runs first on every connection: the coordinator
    refuses to hand work to a worker whose fingerprint differs from
    its own (a worker built from different code would silently produce
    numbers filed under the wrong identity). *)

type msg =
  | Hello of string  (** coordinator's code fingerprint. *)
  | Ready of string  (** worker's code fingerprint. *)
  | Batch of int * (string * string) list
      (** [(id, [(section, key)])] — compute these cells. *)
  | Result of int * (string * string * string option) list
      (** [(id, [(section, key, value)])] — [None] marks an entry the
          worker could not serve (the coordinator computes it
          in-process; it is never re-sent to a worker). *)

val encode : msg -> string

val decode : string -> msg option
(** Total: arbitrary bytes decode to [None], never an exception. *)
