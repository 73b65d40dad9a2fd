(** The instrumentation plane: one registry for every counter,
    histogram and span the pipeline records.

    A {!t} is a {e registry} of named counters, fixed-bucket log-scale
    {!Hist}ograms and nestable {!Span}s, threaded through
    [Vacuum.Config].  The {!disabled} registry turns every operation
    into an early-out on one constructor match, so instrumented paths
    cost nothing — and allocate nothing — when metrics are off.

    {b Determinism contract.}  Metrics come in two volatility
    classes.  {e Stable} metrics (the default for counters and
    histograms) carry schedule-independent values: instruction
    counts, cache events, demotion outcomes, span completions and
    work.  Their rendered snapshot is byte-identical for any
    [--jobs]/[--shards] and across execution backends, the same
    discipline as [Vp_aggregate.Profile].  {e Volatile} metrics
    (wall-clock readings) are excluded from the default snapshot and
    only appear under a [# volatile] marker when explicitly requested
    — so CI can diff the stable exposition while humans still see
    latency quantiles.

    {b One clock.}  {!Span} is the only reader of the wall clock in
    the library: a layer that wants a duration records a span, and
    reads it back from [span.<name>.wall_us].

    {b Domains.}  All registry updates take the registry mutex;
    histograms merge additively (bucket vectors, exact count and
    sum), so concurrent writers from pool domains produce the same
    stable readings as the sequential schedule.  The open-span stack
    is domain-local. *)

type t
(** A registry; either {!disabled} or created by {!create}. *)

val disabled : t
(** The shared no-op registry: every operation returns immediately
    and records nothing.  This is the default everywhere. *)

val create :
  ?flight_capacity:int -> ?flight_dir:string -> ?interval:int -> unit -> t
(** A fresh enabled registry.  [flight_capacity] (default [64])
    bounds the flight-recorder mark ring; [flight_dir], when given,
    enables {!Flight.dump} to write post-hoc diagnosis files there
    (created on first dump).  [interval], when given, turns on the
    per-run timelines ([Vp_telemetry]) sampled every [interval]
    retired instructions; it must be positive ({!Vp_util.Error.Error}
    otherwise). *)

val enabled : t -> bool

val interval : t -> int option
(** The timeline sampling interval; [None] for {!disabled} and for a
    registry created without one. *)

(** Fixed-bucket log-scale histogram with exact count and sum.

    64 buckets: bucket 0 holds values [<= 0], bucket [i >= 1] holds
    values in [(2^(i-2), 2^(i-1)]] (upper bound [2^(i-1)]), with the
    last bucket absorbing everything larger.  Quantiles are read as
    the upper bound of the bucket where the cumulative count first
    reaches [ceil (q * count)] — an upper bound with at most 2x
    relative error, which is what a log-scale histogram promises. *)
module Hist : sig
  type h

  val buckets : int
  (** Number of buckets, [64]. *)

  val create : unit -> h
  val observe : h -> int -> unit
  val count : h -> int
  val sum : h -> int

  val bound : int -> int
  (** Upper bound of bucket [i]: [bound 0 = 0], [bound i = 2^(i-1)]. *)

  val index : int -> int
  (** Bucket index for a value. *)

  val bucket_count : h -> int -> int
  (** Observations landing in bucket [i] (not cumulative). *)

  val quantile : h -> float -> int
  (** [quantile h q] for [q] in [0, 1]; [0] on an empty histogram. *)
end

(** Named monotone counters.  [~volatile:true] marks a counter
    schedule-dependent; it is then excluded from the stable
    snapshot. *)
module Counter : sig
  val bump : ?volatile:bool -> t -> string -> int -> unit
  val value : t -> string -> int
end

(** Named histograms (see {!Hist}).  [~volatile:true] for wall-clock
    series; instruction-count series default stable. *)
module Histogram : sig
  val observe : ?volatile:bool -> t -> string -> int -> unit
  val get : t -> string -> Hist.h option
  (** A copy of the named histogram's current state. *)
end

(** One completed span, as kept in the export ring. *)
type span = {
  name : string;
  depth : int;  (** nesting level at entry, 0 = top *)
  domain : int;  (** [Domain.self] of the recording domain *)
  start_s : float;  (** [Unix.gettimeofday] at entry *)
  wall_s : float;
  work : int;  (** caller-defined; retired instructions for run spans *)
  minor_words : float;  (** minor-heap words allocated inside the span *)
  major_words : float;
}

(** Nestable stage spans.

    Each completed span is recorded three ways: the stable counters
    [span.<name>.count] and [span.<name>.work] (the schedule-independent
    per-name summary), the volatile histogram [span.<name>.wall_us],
    and an entry in a ring of the last {!capacity} spans, which feeds
    {!table} and {!Perfetto.write_spans}.  Older spans are dropped from
    the ring (never from the counters) and counted by {!dropped}. *)
module Span : sig
  type token
  (** An open span, held by the caller between {!enter} and {!exit}. *)

  val enter : t -> string -> token
  (** Open a span.  Nesting is tracked per domain: a span entered
      while another is open on the same domain records one level
      deeper. *)

  val exit : ?work:int -> t -> token -> unit
  (** Close the span and record it with its wall-clock seconds,
      minor/major allocation words and [work] (default [0]; the
      pipeline reports retired instructions here). *)

  val record : ?work:('a -> int) -> t -> string -> (unit -> 'a) -> 'a
  (** [record t name f] = [enter] / [f ()] / [exit], exception-safe;
      [work] maps the result to the span's work figure.  A span whose
      [f] raises is recorded with work [-1]. *)

  val capacity : int
  (** Ring size, [4096]. *)

  val ring : t -> span list
  (** Surviving spans in completion order, oldest first. *)

  val dropped : t -> int
  (** Spans lost to ring wrap-around. *)

  val table : t -> Vp_util.Tabular.t
  (** The ring in start order, indented by nesting depth. *)
end

(** OpenMetrics-style text exposition (schema
    [vp-metrics-snapshot/1], documented in DESIGN.md).

    The file is line-oriented: [# vp-metrics-snapshot/1] first,
    [# EOF] last; metric names have [.]/[-] mapped to [_];
    counters render as [# TYPE n counter] + [n_total V]; histograms
    as cumulative
    [n_bucket{le="B"} C] lines (non-empty buckets plus
    [le="+Inf"]), [n_sum]/[n_count], and [n_p50]/[n_p90]/[n_p99]
    readouts.  Stable metrics sorted by name come first; with
    [~volatile:true] a [# volatile] marker follows, then the
    volatile metrics. *)
module Snapshot : sig
  type sample =
    | Counter of int
    | Hist of Hist.h

  val samples : ?volatile:bool -> t -> (string * sample) list
  (** Current values, sorted by name; [volatile] (default [false])
      appends the volatile section after the stable one. *)

  val render : ?volatile:bool -> t -> string

  val write : ?volatile:bool -> t -> path:string -> unit
  (** Atomic rewrite: renders to [path ^ ".tmp"] then renames, so a
      concurrent reader ([vpack top]) never sees a torn file. *)

  val validate_file : path:string -> (int, string) result
  (** Schema check; [Ok n] is the number of lines.  Errors name the
      offending line: ["line 12: ..."].  A [TYPE] line of any kind but
      [counter] or [histogram] is rejected. *)

  val read : path:string -> ((string * sample) list, string) result
  (** Parse an exposition file back into samples (names in rendered,
      sanitized form) — the [vpack top] ingestion path. *)
end

(** Chrome trace-event / Perfetto JSON export (schema
    [vp-perfetto-trace/1]): one event per line.  Complete events
    ([ph:"X"]: pid = component, tid = domain/lane) carry microsecond
    timestamps normalized to the earliest complete event; counter
    samples ([ph:"C"], [args:{"value":N}]) and instant events
    ([ph:"i"]) carry integer timestamps written as given, on whatever
    clock their producer chose. *)
module Perfetto : sig
  type event = {
    name : string;
    cat : string;
    pid : int;
    tid : int;
    ts_us : float;  (** absolute; normalized on write *)
    dur_us : float;
  }

  (** A point on a process's track: a sample of the counter track
      [name], or an instant event [name] carrying [value]. *)
  type point =
    | Counter of { pid : int; name : string; ts : int; value : int }
    | Instant of { pid : int; name : string; ts : int; value : int }

  val write :
    ?processes:(int * string) list ->
    ?points:point list ->
    path:string ->
    event list ->
    unit
  (** [processes] adds [process_name] metadata records
      (pid, label); [points] follow the complete events, in order. *)

  val write_spans : t -> path:string -> int
  (** The registry's span ring as one [driver] process (pid 1) with
      one track per recording domain ([tid] = the span's [domain]), so
      the spans on every track nest, each event carrying its span's
      work as [args.work]; returns the number of spans written. *)

  val validate_file : path:string -> (int, string) result
  (** Schema and syntax check; [Ok n] counts the event lines.  Every
      event line but the last must end in a comma, the last must not.
      Each line is a metadata ([M]), complete ([X]), counter ([C], with
      [args.value]) or instant ([i]) event with its required keys. *)
end

(** Flight recorder: a bounded ring of recent marks (demotions,
    rejections, oracle failures) plus the full metrics state,
    dumped to files on demand for post-hoc diagnosis of dirty
    epochs. *)
module Flight : sig
  val note : t -> kind:string -> label:string -> unit
  (** Record a mark in the ring; no I/O, no-op when disabled. *)

  val dump : t -> reason:string -> label:string -> unit -> unit
  (** Write [<flight_dir>/flight-<label>-<n>.metrics] (a
      vp-metrics-snapshot/1 file with [# reason]/[# mark] comment
      lines, volatile section included) and the span ring as
      [flight-<label>-<n>.perfetto.json] (vp-perfetto-trace/1).  [n]
      counts dumps per label.  No-op when disabled or no [flight_dir]
      was configured. *)

  val dumps : t -> int
  (** Total dumps written so far. *)
end
