(** The statistical chaos campaign: the full pipeline over a corpus of
    generated binaries.

    Each case generates one program from a sampled {!Gen.params}
    point, then holds it to three property families:

    - {e chaos}: the full fault-plan × seed matrix
      ({!Vacuum.Chaos.matrix}, which includes the clean plan and hence
      the plain differential oracle) — every cell must come back
      verified and architecturally equivalent;
    - {e trace}: a retired-branch trace recorded from a clean run must
      round-trip through [vp-retire-trace/1] byte-exactly, ingest into
      a profile whose snapshot stream matches the live run's, and
      package into a verified, equivalent rewrite — the
      emulator-free path;
    - {e never-crash}: deterministic truncations and bit flips of the
      encoded trace must come back as validation [Error]s, and no
      stage of any of the above may let an exception escape.

    A failing case is shrunk: {!Gen.shrinks} candidates (and trace
    prefixes, for trace-stage failures) are retried greedily while the
    failure reproduces at the same stage, and the minimal point is
    rendered as a [vp-fuzz-repro/1] file — the replayable regression
    corpus under [test/corpus/].

    Campaign reports are deterministic: case specs derive from
    {!Vp_util.Rng.stream} keyed by case index, every case runs its
    matrix with [jobs:1] internally, and outcomes are reassembled in
    index order — so {!render} output is byte-identical across
    [--jobs] values and emulator backends. *)

type spec = {
  seed : int;  (** generator seed *)
  params : Gen.params;
  trace_frac_pct : int;  (** trace prefix kept for ingestion (100 = all) *)
}

type failure = {
  stage : string;
      (** ["generate"], ["chaos"], ["trace-roundtrip"],
          ["trace-ingest"], ["trace-corrupt"] or ["crash"] *)
  detail : string;
}

type outcome = {
  index : int;
  spec : spec;
  static_size : int;  (** image size of the generated binary *)
  instructions : int;  (** clean-run dynamic instructions *)
  snapshots : int;  (** live profile's recorded snapshots *)
  phases : int;  (** filtered phase-log classes *)
  cells : int;  (** chaos matrix cells run *)
  trace_events : int;
  failure : failure option;
}

type repro = { spec : spec; stage : string; detail : string }

type report = {
  count : int;
  chaos_seeds : int;
  root_seed : int;
  outcomes : outcome list;  (** case-index order *)
  repros : repro list;  (** shrunk, one per failed case, index order *)
  shrink_attempts : int;
}

val campaign_detector : Vp_hsd.Config.t
(** The corpus detector: tiny's fast refresh/clear timers and narrow
    HDC, with enough BBB sets (64) to hold a generated phase's branch
    working set — tiny's 4-entry table thrashes on generated code and
    never fires. *)

val default_config : Vacuum.Config.t
(** {!campaign_detector} (generated binaries retire well under a million
    instructions), degradation on — the envelope every case runs
    under.  The per-case fuel is re-derived from the clean baseline
    run so fuel-starvation plans bite regardless of binary size. *)

val spec_of_index :
  ?bounds:Gen.bounds -> root_seed:int -> int -> spec
(** The campaign's case derivation: spec [i] depends only on
    [root_seed] and [i] (via {!Vp_util.Rng.stream}), never on
    scheduling. *)

val run_case :
  ?config:Vacuum.Config.t -> ?chaos_seeds:int -> index:int -> spec -> outcome
(** Run one case.  Never raises: any escaping exception is caught as a
    ["crash"] failure with the backtrace in [detail]. *)

val shrink :
  ?config:Vacuum.Config.t ->
  ?chaos_seeds:int ->
  spec ->
  failure ->
  repro * int
(** Greedy descent over {!Gen.shrinks} (plus trace-prefix halving for
    trace-stage failures): take the first candidate that still fails
    at the same stage, repeat from there, stop at a fixpoint or after
    48 case runs.  Returns the minimal repro and the number of runs
    spent. *)

val run :
  ?config:Vacuum.Config.t ->
  ?bounds:Gen.bounds ->
  ?chaos_seeds:int ->
  ?jobs:int ->
  ?root_seed:int ->
  count:int ->
  unit ->
  report
(** The campaign: [count] cases on a {!Vp_util.Pool} of [jobs]
    workers (default 1), then sequential shrinking of any failures
    (at most 48 case runs each, see {!shrink}).
    [chaos_seeds] (default 1) seeds per fault plan per case. *)

val ok : report -> bool
(** No case failed. *)

val render : report -> string
(** The campaign report: parameters, a summary line, aggregate
    coverage statistics and one block per failure with its shrunk
    repro.  Byte-identical across [jobs] and backends. *)

(** {1 Repro files} *)

val repro_to_string : repro -> string

val repro_of_string : string -> (repro, string) result
(** Total parser for {!repro_to_string} output. *)

val save_repros : dir:string -> report -> string list
(** Write one [seed-<n>.repro] per shrunk failure into [dir]
    (created if missing); returns the paths, index order. *)

val load_repro_file : path:string -> (repro, string) result

val replay :
  ?config:Vacuum.Config.t -> ?chaos_seeds:int -> repro -> (outcome, failure) result
(** Re-run a repro's spec: [Ok] if the case now passes (the regression
    is fixed), [Error] with the fresh failure otherwise. *)
