(** Runtime phase telemetry: per-interval time-series of a single run.

    Where {!Vp_metrics} observes the {e software pipeline} (stage
    spans, counters and histograms), this module observes the
    {e simulated machine}: a {!t} is a per-run timeline that samples
    the execution every [interval] retired instructions, recording
    named integer series
    (HDC value, BBB occupancy, package residency, cache misses, …) and
    discrete events (detections, recordings, launches, side exits)
    stamped with their position in the run.

    {b Ownership.}  A timeline belongs to exactly one run: the driver
    creates one per profiling run, the coverage pass one per rewritten
    run, the timing model one per simulation.  Single-writer by
    construction — no locking — and every recorded value is a
    deterministic function of the run, so series and trace files are
    byte-identical across [Vacuum.Engine --jobs] schedules.

    {b Cost.}  Series storage is preallocated and grows by doubling;
    pushes are array stores.  The {!disabled} timeline turns every
    entry point into an early-out on one immutable boolean, and
    callers on the emulator's hot loop are expected to not install
    their sampling callback at all when telemetry is off (see
    [Vacuum.Driver]), so the disabled path adds nothing to the
    compiled core. *)

type config = {
  enabled : bool;
  interval : int;  (** retired instructions per sample *)
}

val off : config
(** Telemetry disabled; the default everywhere. *)

val on : ?interval:int -> unit -> config
(** Enabled with the given sampling interval (default
    {!default_interval} retired instructions). *)

val default_interval : int
(** 10_000 retired instructions. *)

type t
(** A per-run timeline; either {!disabled} or created by {!create}. *)

val disabled : t
(** The shared no-op timeline: every operation returns immediately. *)

val create : ?name:string -> config -> t
(** A fresh timeline for one run; returns {!disabled} when
    [config.enabled] is false (so [create] composes with
    [Vacuum.Config] without an option).  [name] labels the run —
    session epochs use ["epoch-K"] — and is written as an extra
    ["run"] key on every series/event record the trace writer emits
    for this timeline (schema-compatible: vp-timeline-trace/1 readers
    only require the base keys). *)

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
  (** [at] is the event's position in the run, in whatever unit the
      recording pass samples (retired-branch index for detector
      events, retired-instruction index for residency events). *)

  val all : t -> (string * int * int) list
  (** [(kind, at, value)] in emission order. *)

  val count : t -> kind:string -> int
end

(** Export: per-series summaries and [vp-timeline-trace/1] JSON-lines
    files. *)
module Sink : sig
  val summary : t -> (string * int * int * int * int) list
  (** Per series, sorted by name: (name, samples, min, max, total).
      Empty for {!disabled}. *)

  val event_counts : t -> (string * int) list
  (** Events per kind, sorted by kind. *)

  val write_trace : path:string -> t list -> unit
  (** JSON-lines trace (schema [vp-timeline-trace/1], documented in
      DESIGN.md): one meta line, then one [series] object per series
      of each timeline in order, then one [event] object per event.
      Passing several timelines merges the runs of one workload
      (profile + rewritten + timing) into one file; disabled timelines
      contribute nothing.  Contains no wall-clock readings, so the
      file is byte-identical for identical runs. *)

  val validate_line : string -> (unit, string) result

  val validate_file : path:string -> (int, string) result
  (** Validate every line; [Ok n] is the number of lines checked.
      Fails on an empty file, a missing or foreign-schema meta line,
      or any malformed line. *)
end

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
