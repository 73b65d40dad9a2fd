(** The pipeline's typed error channel.

    Stages raise {!Error} with a structured payload instead of bare
    [Failure]/[Invalid_argument], so callers (the CLI in particular)
    can report which stage failed, at which pc or label — and exit
    cleanly instead of printing a backtrace.

    Programmer-API misuse (bad [Reg.of_int] index, builder DSL abuse,
    [Tabular] row overflow) stays on [Invalid_argument]: those are
    bugs in the calling code, not pipeline failures. *)

type t = {
  stage : string;  (** the failing stage, e.g. ["emulator"], ["emit"] *)
  what : string;  (** human-readable description *)
  pc : int option;  (** faulting address, when known *)
  label : string option;  (** faulting label/symbol, when known *)
}

exception Error of t

val v :
  ?pc:int ->
  ?label:string ->
  stage:string ->
  ('a, unit, string, t) format4 ->
  'a
(** [v ~stage fmt ...] builds a payload without raising — for warnings
    and demotion records that are reported rather than thrown. *)

val failf :
  ?pc:int ->
  ?label:string ->
  stage:string ->
  ('a, unit, string, 'b) format4 ->
  'a
(** [failf ~stage fmt ...] raises {!Error} with the formatted
    description and the given context fields. *)

val pp : Format.formatter -> t -> unit
(** [stage: what (pc 0x..., label ...)]. *)
