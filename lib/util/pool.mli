(** A parallel map over a fixed list on OCaml 5 domains, with a
    deterministic gather.

    With [jobs <= 1] no domains are spawned and the items run in order
    on the calling domain — the reference sequential schedule.  With
    [jobs > 1], up to [jobs] worker domains each claim the next
    unclaimed item until the list is exhausted.

    Determinism contract: [f] must be pure up to its own isolated
    state, so the gathered results are independent of the schedule.
    {!map} returns results in input order under any [jobs]. *)

type hooks = {
  on_submit : depth:int -> unit;
      (** Once per item, before it runs; [depth] is the number of
          items queued so far.  In parallel mode every item is queued
          before any runs; in sequential mode [depth] is [0]. *)
  on_start : domain:int -> depth:int -> unit;
      (** Before an item runs; [domain] is the dense worker index
          [0 .. jobs-1] and [depth] the number of items still
          unclaimed ([0] for both in sequential mode). *)
  on_finish : domain:int -> unit;  (** After the item returned. *)
}
(** Scheduler observation points, called on the calling/worker
    domain.  Hooks must not raise.  Readings are inherently
    schedule-dependent — consumers (e.g. [Vp_metrics.Sched]) must tag
    them volatile.  [None] hooks cost nothing. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val map : jobs:int -> ?hooks:hooks -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f l] is [List.map f l] computed on [jobs] domains.
    Every item runs even if another raised; then the exception of the
    earliest failed item (by input position) is re-raised. *)
