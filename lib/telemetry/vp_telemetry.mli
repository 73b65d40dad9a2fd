(** Runtime phase telemetry: per-interval time-series of a single run.

    Where {!Vp_metrics} observes the {e software pipeline} (stage
    spans, counters and histograms), this module observes the
    {e simulated machine}: a {!t} is a per-run timeline that samples
    the execution every [interval] retired instructions, recording
    named integer series
    (HDC value, BBB occupancy, package residency, cache misses, …) and
    discrete events (detections, recordings, launches, side exits)
    stamped with their position in the run.  Timelines are switched
    on by the configuration's metrics registry (its sampling
    interval) and exported through {!Vp_metrics.Perfetto}, so both
    planes share one registry and one trace format.

    {b Ownership.}  A timeline belongs to exactly one run: the driver
    creates one per profiling run, the coverage pass one per rewritten
    run, the timing model one per simulation.  Single-writer by
    construction — no locking — and every recorded value is a
    deterministic function of the run, so series and trace files are
    byte-identical across [--jobs] schedules.

    {b Cost.}  Series storage is preallocated and grows by doubling;
    pushes are array stores.  The {!disabled} timeline turns every
    entry point into an early-out on one immutable boolean.  Each
    sampling run observer counts its intervals through one {!Sampler};
    with telemetry off none touches it (the timing walker pays one
    compare against its [due]), so the disabled path adds no sampler
    work to the compiled core. *)

val default_interval : int
(** 10_000 retired instructions: the sampling interval the CLI offers
    by default. *)

type t
(** A per-run timeline; either {!disabled} or created by {!create}. *)

val disabled : t
(** The shared no-op timeline: every operation returns immediately. *)

val create : ?name:string -> ?origin:int -> Vp_metrics.t -> t
(** A fresh timeline for one run, sampled every
    [Vp_metrics.interval metrics] retired instructions; {!disabled}
    when the registry has no interval (so [create] composes with
    [Vacuum.Config] without an option).  [name] labels the run —
    session epochs use ["epoch-K"] — and names its process in
    {!write_perfetto}.  [origin] (default [0]) is the instruction
    clock at the run's start: a session epoch starts where the
    previous one ended. *)

val enabled : t -> bool
val interval_length : t -> int

val name : t -> string option
(** The run label given at {!create} time, if any. *)

val intervals : t -> int
(** Completed intervals recorded so far: the length of the longest
    series. *)

(** Named per-interval series of ints.  Each sampler pushes one value
    per interval boundary; series are dense from interval 0. *)
module Series : sig
  type id

  val register : t -> string -> id
  (** Idempotent: the same name returns the same series.  On
      {!disabled} returns a dummy id whose pushes are dropped. *)

  val push : t -> id -> int -> unit
  (** Append the next interval's value: one array store (amortised). *)

  val length : t -> id -> int
  val values : t -> id -> int array
  (** A copy of the recorded values, oldest first. *)

  val names : t -> string list
  (** Registered series names, sorted. *)

  val find : t -> string -> int array option
end

(** Discrete run events: detections, recordings, re-arms, package
    launches, side exits.  Rare by construction — emission may
    allocate. *)
module Event : sig
  val emit : t -> kind:string -> at:int -> value:int -> unit
  (** [at] is the event's position on the run's instruction clock:
      the retired-instruction count when it fired, counting the
      instruction that fired it. *)

  val all : t -> (string * int * int) list
  (** [(kind, at, value)] in emission order. *)

  val count : t -> kind:string -> int
end

(** The interval sampler of one run: it owns the run's instruction
    clock, calls [flush] at every interval boundary the clock reaches
    and once more for the partial tail at {!finish}.  A sampling
    observer keeps only its series registration and its flush body. *)
module Sampler : sig
  type timeline := t

  type t = private {
    interval : int;
    flush : int -> unit;
    mutable clock : int;  (** instructions retired so far *)
    mutable due : int;
        (** the next boundary; [max_int] on {!disabled}, so a caller
            counting instructions itself pays one compare *)
  }

  val create : timeline -> flush:(int -> unit) -> t
  (** [flush n] gets the interval length at a boundary, the tail's at
      {!finish}. *)

  val reach : t -> int -> unit
  (** Move the clock to a later count, flushing once per boundary
      crossed — with the observer state of the call, so advance in
      steps over which that state is constant. *)

  val advance : t -> int -> unit
  (** [advance s n] is [reach s (s.clock + n)]. *)

  val at : t -> int
  (** [clock + 1]: the {!Event.emit} stamp of an event fired by the
      instruction retiring now. *)

  val finish : t -> unit
  (** Flush the partial interval since the last boundary, if any. *)
end

val write_perfetto : path:string -> t list -> unit
(** Export timelines as one [vp-perfetto-trace/1] file: each enabled
    timeline is one process (pid 1, 2, … in list order), named by its
    run label or by its series prefix ([profile], [run], [timing]);
    each series is one counter track and each event one instant,
    both on the run's instruction clock.  A counter sample's [ts] is
    the retired-instruction count at the end of its interval (the
    running sum of the timeline's [<prefix>.instructions] series,
    plus [origin]); an event's [ts] is its [at].  Disabled timelines
    contribute nothing.  The file holds no wall-clock readings, so it
    is byte-identical for identical runs. *)

(** ASCII rendering primitives for Figure 5-style timelines; composed
    by [vpack timeline]. *)
module Render : sig
  val sparkline : ?width:int -> int array -> string
  (** Eight-level density sparkline (glyphs [" .:-=+*#"]), max-pooled
      down to [width] (default 72) columns.  Empty input renders "". *)

  val lane : ?width:int -> total:int array -> int array -> string
  (** A residency lane: per column, the fraction [part/total] over the
      column's intervals as a five-level glyph ([" .:oO#"] at 0, >0,
      >=25%, >=50%, >=90%). *)

  val extent_rows :
    ?width:int -> cum:int array -> (int * int * int) list -> (int * string) list
  (** Phase extent bars: [cum.(i)] is the cumulative branch count at
      the end of interval [i]; the timeline is
      [Vp_phase.Phase_log.timeline]'s [(start, stop, phase)] list in
      branch indices.  Returns one [(phase_id, row)] per phase id,
      sorted, with ['='] in every column whose branch span intersects
      an extent of that phase. *)
end
