(** Fault plans: declarative descriptions of how to perturb the
    hardware→software boundary.

    The paper's pipeline is designed around a {e lossy} hardware
    profile — saturating BBB counters, capacity-evicted branches,
    phases that dissolve mid-snapshot.  A plan makes that lossiness an
    input instead of an accident: it names a set of snapshot-stream
    faults and resource faults, all driven by a {!Vp_util.Rng} seed so
    every injected fault is reproducible.  Plans carry no behaviour;
    {!Inject} interprets them. *)

type snapshot_faults = {
  drop : float;  (** probability each snapshot is dropped entirely *)
  duplicate : float;  (** probability each snapshot is delivered twice *)
  reorder : float;
      (** probability each adjacent snapshot pair arrives swapped *)
  saturate : float;
      (** per-entry probability both counters read fully saturated *)
  zero_counters : float;
      (** per-entry probability both counters read zero *)
  alias : float;
      (** per-snapshot probability two adjacent static branches fold
          into a single BBB entry (counts summed, saturating) *)
  truncate_frac : float;
      (** keep only the leading fraction of the profiled extent;
          [1.0] keeps everything *)
}

type resource_faults = {
  fuel_frac : float option;
      (** scale the profiling-run fuel budget by this fraction,
          forcing mid-phase exhaustion *)
  max_package_instrs : int option;
      (** static-instruction budget per package; larger packages are
          demoted *)
  max_expansion_pct : float option;
      (** total code-expansion budget; overruns drop packages
          largest-first, [0.0] forces the unmodified-image fallback *)
}

type t = {
  name : string;  (** stable identifier, used in reports and traces *)
  seed : int;  (** root seed for every probabilistic draw *)
  snapshot : snapshot_faults;
  resource : resource_faults;
}

val v :
  ?seed:int ->
  ?drop:float ->
  ?duplicate:float ->
  ?reorder:float ->
  ?saturate:float ->
  ?zero_counters:float ->
  ?alias:float ->
  ?truncate_frac:float ->
  ?fuel_frac:float ->
  ?max_package_instrs:int ->
  ?max_expansion_pct:float ->
  string ->
  t
(** [v name] builds a plan; omitted faults are inert. *)

val clean : t
(** The identity plan: every probability zero, every budget absent.
    Injecting it is guaranteed to be a no-op. *)

val is_clean : t -> bool

val with_seed : t -> int -> t
(** Same faults, different seed — one matrix row per seed. *)

val presets : t list
(** The chaos-matrix battery: [clean] plus plans that each stress one
    failure family (dropped/duplicated/reordered snapshots, saturated
    and zeroed counters, aliased branches, mid-phase truncation, fuel
    starvation, package-size budget, region collapse, exhausted
    expansion budget). *)

val find_preset : string -> t option

val pp : Format.formatter -> t -> unit
