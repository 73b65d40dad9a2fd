(** The Table 1 benchmark/input inventory.  Programs are built on
    demand; equal entries always rebuild identical binaries. *)

type t = {
  bench : string;  (** paper benchmark name, e.g. "124.m88ksim" *)
  input : string;  (** input label, e.g. "A" *)
  description : string;
  program : unit -> Vp_prog.Program.t;
}

val all : t list
(** Table 1 order. *)

val find : bench:string -> input:string -> t option

val name : t -> string
(** ["124.m88ksim/A"]. *)

val benches : string list
(** Distinct benchmark names, Table 1 order. *)
