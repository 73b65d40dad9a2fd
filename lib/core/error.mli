(** The pipeline's typed error channel, re-exported at the public
    surface: [Vacuum.Error.Error] is the one exception pipeline stages
    raise, and {!pp} renders its structured payload (stage, pc,
    label).  [vpack] catches it at top level and maps it to a clean
    exit code. *)

include module type of Vp_util.Error
(** @inline *)
