(** The chaos matrix: the full pipeline under every fault plan.

    Each cell runs profile → rewrite → verify with one {!Vp_fault}
    plan at one seed, then runs the rewritten image with a {e clean}
    fuel budget and checks the differential oracle: whatever the fault
    plan did to the profile, the rewritten binary must compute exactly
    what the original computed.  Coverage and expansion may degrade —
    to zero, at the bottom of the demotion ladder — but correctness
    may not.

    Cell seeds derive from {!Vp_util.Rng.stream} keyed by (plan index,
    seed index), so a matrix is byte-identical whichever [jobs] count
    (and hence schedule) runs it. *)

type cell = {
  plan : Vp_fault.Plan.t;  (** with the cell's derived seed *)
  seed_index : int;
  snapshots : int;  (** snapshots the software saw post-injection *)
  packages : int;  (** packages surviving the ladder *)
  coverage_pct : float;  (** clean-fuel run of the rewritten image *)
  expansion_pct : float;
  truncated : bool;  (** the (possibly fuel-starved) profile run *)
  drop_package : int;  (** demotions per rung *)
  drop_region : int;
  fallback_image : int;
  verified : bool;  (** final emitted image passed the verifier *)
  equivalent : bool;  (** the differential oracle *)
}

type result = {
  baseline : Vp_exec.Emulator.outcome;  (** clean run of the original *)
  cells : cell list;  (** plan-major, then seed order *)
}

val failures : result -> cell list
(** The cells that the verifier rejected or the oracle failed, in
    matrix order; [[]] when the pipeline held under every plan. *)

val matrix :
  ?config:Config.t ->
  ?seeds:int ->
  ?seed:int ->
  ?jobs:int ->
  Vp_prog.Image.t ->
  result
(** Run every {!Vp_fault.Plan.presets} plan × [seeds] (default 5)
    cells on a {!Vp_util.Pool} of [jobs] workers (default 1).
    [seed] (default 0) roots the stream derivation. *)

val table : result -> string
(** Aligned text table, one row per cell — byte-identical under any
    [jobs]. *)
