(** Shared building blocks for the synthetic Table 1 workloads.

    Everything here emits code {e into the program} — randomness, for
    instance, is an in-program linear congruential generator, so
    workload behaviour is a property of the binary, exactly as it
    would be for a real benchmark. *)

module B = Vp_prog.Builder

val lcg_step : B.fb -> B.vreg -> unit
(** Advance an in-program LCG state register:
    [x := (x * 1103515245 + 12345) land 0x3FFFFFFF]. *)

val lcg_draw : B.fb -> dst:B.vreg -> state:B.vreg -> bound:int -> unit
(** Advance the state and put a pseudo-uniform draw from [0, bound)
    in [dst]. *)

val checksum_mix : B.fb -> acc:B.vreg -> value:B.vreg -> unit
(** [acc := (acc * 31 + value) land 0xFFFFFF] — cheap in-program
    digest so results are data-dependent end to end. *)

val ballast : B.t -> units:int -> string
(** Generate [units] cold functions (roughly 60 instructions each,
    with per-function structural variation) chained by calls, and
    return the name of the chain's entry.  Workloads call the chain
    once during initialisation: the code executes — it is genuinely
    cold, not dead — but never becomes hot, reproducing the large
    cold-code mass of real binaries that the paper's Table 3
    percentages are measured against. *)
