(** Hot Spot Detector configuration (the HSD rows of the paper's
    Table 2). *)

type t = {
  sets : int;  (** BBB sets (512); a power of two, indexed by the pc's low bits *)
  assoc : int;  (** BBB associativity (4) *)
  counter_bits : int;  (** executed/taken counter width (9) *)
  candidate_threshold : int;  (** executions before a branch is a candidate (16) *)
  refresh_interval : int;  (** branches between non-candidate refreshes (8192) *)
  clear_interval : int;  (** branches between full clears when idle (65526) *)
  hdc_bits : int;  (** hot spot detection counter width (13) *)
  hdc_inc : int;  (** HDC increment on non-candidate branches (2) *)
  hdc_dec : int;  (** HDC decrement on candidate branches (1) *)
}

val default : t
(** The paper's Table 2 values. *)

val tiny : t
(** A 4-entry, fully-associative-like configuration mirroring the
    Figure 3 worked example; used by tests to exercise contention. *)

val capacity : t -> int
(** Total BBB entries. *)

val hdc_max : t -> int

val validate : t -> (unit, string) result
