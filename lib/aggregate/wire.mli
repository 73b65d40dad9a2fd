(** [vp-profile-wire/1]: the compact binary wire format for BBB
    snapshot streams.

    A fleet deployment moves profiles, not binaries: each user machine
    serialises its run's snapshot stream and ships it to the
    aggregation service.  The format is deliberately small — LEB128
    varints, delta-coded branch pcs — because a stream is mostly tiny
    integers, and versioned-plus-checksummed because it crosses
    machine boundaries, mirroring the [vp-perfetto-trace/1] and
    [vp-metrics-snapshot/1] pattern of a self-identifying header and a
    validator that rejects anything malformed before the pipeline sees
    it.

    Layout: the ASCII header line ["vp-profile-wire/1\n"], then one
    ['R'] record per run ([run_id], [weight], [counter_max], snapshot
    count, then each snapshot as [id], [detected_at], [ended_at],
    branch count and delta-coded [(pc, executed, taken)] entries —
    entries strictly ascending by pc), then one ['E'] trailer carrying
    the run count and an FNV-1a checksum of every body byte before
    it.  All integers are unsigned LEB128. *)

val schema : string
(** ["vp-profile-wire/1"]. *)

type run = {
  run_id : int;  (** stable per-machine identifier *)
  weight : int;  (** merge weight of this run (usually 1) *)
  counter_max : int;  (** cap of the counters in the stream *)
  snapshots : Vp_hsd.Snapshot.t list;
}

val encode : run list -> string
(** Serialise a stream of runs.  Raises a typed [Vp_util.Error] on a
    run that cannot be represented: a negative field, or snapshot
    entries not strictly ascending by pc. *)

val decode : string -> (run list, string) result
(** Parse and fully check a wire image: header, record structure,
    trailer count and checksum, per-snapshot entry ordering and the
    [taken <= executed <= counter_max] counter invariants. *)

val write_file : path:string -> run list -> unit

val read_file : path:string -> (run list, string) result

val validate : string -> (int * int, string) result
(** [Ok (runs, snapshots)] when the image decodes cleanly. *)

val validate_file : path:string -> (int * int, string) result
