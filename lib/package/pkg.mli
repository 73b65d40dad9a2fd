(** The package intermediate representation.

    A package is a connected piece of code extracted from one region
    (Section 3.3): copies of hot blocks of the root function with hot
    callees partially inlined, explicit exit blocks on every path that
    leaves the hot code, and entry blocks reachable from original-code
    launch points.  Blocks carry symbolic labels; {!Emit} linearises
    and resolves them to image addresses.

    Each block remembers its {e inline context} — the list of original
    call-site addresses from the root down to the copy — because
    package linking may only connect branch sites with identical
    contexts (Section 3.3.4). *)

type context = int list
(** Original call-site addresses, root-first; [[]] for root-level
    blocks. *)

type term =
  | Fall of string  (** fall through to the labelled block *)
  | Goto of string
  | Branch of {
      cond : Vp_isa.Op.cond;
      src1 : Vp_isa.Reg.t;
      src2 : Vp_isa.Reg.t;
      taken : string;
      fall : string;
    }
  | Call_orig of { callee : int; next : string }
      (** call original code at [callee], continue at [next] *)
  | Inlined_call of { ra_value : int; prologue : string }
      (** materialise the original continuation address into [ra] and
          jump to the inlined callee's prologue copy *)
  | Return
  | Exit_jump of int  (** leave the package to an original address *)
  | Stop  (** halt *)

type block = {
  label : string;
  orig_addr : int;  (** original start address; -1 for synthetic blocks *)
  context : context;
  body : Vp_isa.Instr.t list;  (** straight-line, no control instructions *)
  term : term;
  weight : int;  (** region weight estimate (for layout) *)
  taken_prob : float option;  (** for [Branch] terminators *)
  live_out : int;
      (** exit blocks: registers live along the exited arc, as a
          [Vp_isa.Reg.bit] mask — the paper's dummy consumers,
          constraining the optimizer; 0 elsewhere *)
  is_exit : bool;
}

type bias = T | F | U | Neither
(** Branch-site bias within this package: [T]aken direction internal
    and fall-through cold, [F] the reverse, [U] both internal,
    [Neither] both cold. *)

type site = {
  orig_pc : int;  (** original address of the conditional branch *)
  site_context : context;
  block_label : string;
  bias : bias;
  cold_exit : string option;  (** the exit block of the cold direction *)
  cold_target : int option;  (** original address the cold direction reaches *)
}

type t = {
  id : string;
  region_id : int;  (** unique hot-spot / phase id *)
  root : string;  (** root function name *)
  blocks : block list;  (** copy order; entries first *)
  entries : (string * int) list;  (** entry label, original address *)
  sites : site list;
}

val find_block : t -> string -> block option

module Labels : Hashtbl.S with type key = string
(** Label tables, hashed on a label's length and last eight bytes
    (labels of one package share its id as a prefix). *)

val position : int Labels.t -> string -> int
(** A label's position in a table, or -1; a hit allocates nothing. *)

val branch_count : t -> int
(** Conditional branch sites — the denominator of the linking rank. *)

val size : t -> int
(** Static instructions, terminators included (exit blocks count 1). *)

val map_blocks : (block -> block) -> t -> t

val validate : t -> (unit, string) result
(** Structural soundness: unique block labels; every internal
    terminator target and entry label resolves to a block of this
    package (exit blocks may also target other packages after
    linking); bodies are straight-line; every site's block and cold
    exit exist. *)

val pp : Format.formatter -> t -> unit
