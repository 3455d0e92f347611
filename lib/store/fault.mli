(** Fault-injection hooks for resilience tests.

    The store's flush path carries named injection sites
    ([store-eio], [store-rename-eio]) that are inert unless armed by
    {!set_spec} — a comma-separated list of [name] or [name:int]
    tokens, e.g. ["store-eio:3,slow:20"].

    The integer is interpreted per site:
    - for {!fire} sites it is a one-based trigger count — the site
      fires exactly on its [n]-th call, never again;
    - for {!armed}/{!param} sites it is a free parameter (e.g. a delay
      in milliseconds), left untouched by queries.

    All queries are thread-safe. *)

val armed : string -> bool
(** Whether the site appears in the active spec. Never consumes a
    trigger count. *)

val fire : string -> bool
(** [fire name] is [true] when the fault should strike at this call:
    on every call for a bare [name] spec, exactly on the [n]-th call
    for [name:n]. [false] for sites not in the spec. *)

val param : string -> int option
(** The site's integer argument, if armed with one. *)

val set_spec : string option -> unit
(** Replace the active spec ([None] disarms everything). *)
