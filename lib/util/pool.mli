(** A parallel map over a fixed list on OCaml 5 domains, with a
    deterministic gather.

    With [jobs <= 1] no domains are spawned and the items run in order
    on the calling domain — the reference sequential schedule.  With
    [jobs > 1], the caller and up to [jobs - 1] spawned domains each
    claim the next unclaimed item until the list is exhausted.

    Nesting: a [map] called from inside an item of a [map] with
    [jobs > 1] — on a domain [map] spawned, or on its caller while it
    runs items — runs its own items in order on that domain, whatever
    its [jobs].  A task that maps again therefore adds no domains, and
    [--jobs N] stays at N domains.  A [map] anywhere else, inside an
    item of a [jobs <= 1] map included, spreads as above.

    Determinism contract: [f] must be pure up to its own isolated
    state, so the gathered results are independent of the schedule.
    {!map} returns results in input order under any [jobs]. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f l] is [List.map f l] computed on [jobs] domains.
    Every item runs even if another raised; then the exception of the
    earliest failed item (by input position) is re-raised. *)
