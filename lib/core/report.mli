(** One-stop evaluation of a workload: profile once, rewrite under a
    configuration, and gather every paper metric.  [vpack report] and
    [vpack stats] render from this record. *)

type t = {
  name : string;
  config_name : string;
  instructions : int;  (** original dynamic instructions *)
  raw_detections : int;
  recordings : int;  (** snapshots after hardware-side filtering *)
  unique_phases : int;
  transitions : int;
  coverage : Coverage.t;
  expansion : Expansion.t;
  categories : Vp_phase.Categorize.weights;
  speedup : Speedup.t option;  (** omitted when timing is skipped *)
  warnings : Error.t list;  (** profile warnings (truncation, fault plan) *)
  demotions : Driver.demotion list;  (** demotion-ladder steps taken *)
}

val evaluate :
  ?config:Config.t ->
  ?timing:bool ->
  name:string ->
  Vp_prog.Image.t ->
  t
(** [timing] (default true) controls whether the cycle-level
    simulations run (they dominate wall-clock cost). *)

val evaluate_profile :
  ?config:Config.t ->
  ?timing:bool ->
  name:string ->
  Driver.profile ->
  t
(** Reuse an existing profiling run (the four-configuration
    experiments share one). *)

val pp : Format.formatter -> t -> unit
