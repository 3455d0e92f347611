(** The on-disk trial-cell result store.

    No executable links this library: the experiment engine memoises
    in memory only. It is kept, with its tests, until it is deleted.

    A store directory persists computed results ([section] × encoded
    key → encoded value, all canonical strings — see {!Codec}) across
    processes, so repeated bench runs and CI jobs only compute new
    cells. The design goals, in order:

    - {b never wrong}: every shard file records the code fingerprint
      it was written under; shards with a different fingerprint are
      skipped (counted in {!stats}), so a store can never serve
      numbers computed by different code. Unparseable content is
      quarantined and recomputed, never trusted.
    - {b never torn}: writers only ever publish a shard by writing a
      temporary file and [rename]-ing it into place (atomic on POSIX),
      so readers see old-or-new, never half a file.
    - {b shareable without locks}: each open handle owns a uniquely
      named shard file and rewrites only that; two engines (a [-j4]
      bench and a CI job, say) can share a directory concurrently and
      neither can lose the other's entries. Duplicate keys across
      shards are harmless — results are deterministic functions of
      their key — and resolve deterministically (sorted file order,
      later wins).
    - {b debuggable}: shards are sorted text, one entry per line
      ([section key-fields := value-fields]); [cat] works.

    On open, every [*.rme] shard in the directory is parsed. Corrupt
    files (bad header, malformed line, truncated tail) are moved to
    [quarantine/] — their salvageable prefix entries are kept and
    re-persisted through this handle's own shard, so a torn tail costs
    at most the torn entries. *)

type t

type stats = {
  entries : int;
      (** live entries: loaded from disk plus pending, overlaps counted
          once. *)
  shards_loaded : int;  (** clean shards read at open. *)
  stale_shards : int;  (** skipped: fingerprint mismatch. *)
  quarantined : int;  (** corrupt files moved to [quarantine/]. *)
  disk_hits : int;  (** successful {!find} lookups on this handle. *)
  added : int;  (** entries this handle will (re)write on {!flush}. *)
}

val open_ : dir:string -> fingerprint:string -> t
(** Create [dir] if needed (recursively) and load every readable
    shard written under [fingerprint]. Raises [Sys_error] on hard
    filesystem failures (callers degrade to cache-off). *)

val dir : t -> string
val fingerprint : t -> string

val find : t -> section:string -> string -> string option
(** [find t ~section key] — thread-safe lookup by encoded key. Checks
    this handle's pending buffer first, then the disk view: an entry
    {!add}ed but not yet flushed is served (and shadows any value the
    handle loaded from disk under the same key). *)

val add : t -> section:string -> key:string -> value:string -> unit
(** Record an entry in the pending buffer; it is visible to {!find} on
    this handle immediately and reaches disk at the next {!flush}.
    Keys and values must be single-line strings without [" := "]
    (guaranteed by the {!Codec} field syntax). *)

val flush : t -> unit
(** Atomically (re)publish this handle's shard with everything added
    so far. No-op when nothing changed since the last flush. *)

val stats : t -> stats

val iter : t -> (section:string -> key:string -> value:string -> unit) -> unit
(** Iterate over live entries (testing/inspection; unspecified order). *)

val write_shard :
  fingerprint:string -> path:string -> (string * string * string) list -> unit
(** Write [(section, key, value)] entries as a complete,
    current-version shard file at [path], atomically (tmp + rename) —
    the one shard writer, shared with {!Fsck}'s heal/compact. Raises
    [Sys_error] on filesystem failure. *)
