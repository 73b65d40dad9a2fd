(** Binary primitives shared by the repo's wire formats
    ([vp-profile-wire/1] in [Vp_aggregate.Wire], [vp-retire-trace/1]
    in [Vp_gen.Trace]): unsigned LEB128 varints over non-negative
    62-bit ints, zigzag for signed deltas, and an FNV-1a checksum. *)

exception Malformed of string
(** A decoding failure; the message names the byte offset. *)

val malformed : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Malformed} with a formatted message. *)

val put_varint : Buffer.t -> int -> unit
(** Append [v] as an unsigned LEB128 varint; raises [Invalid_argument]
    on a negative [v]. *)

val get_varint : string -> int ref -> int
(** Read a varint at [!pos] and advance [pos] past it.  Raises
    {!Malformed} on a truncated varint and on an overlong one: more
    than nine bytes, or a ninth byte carrying more than the six value
    bits a non-negative native int has left, which would otherwise
    wrap into the sign bit. *)

val zigzag : int -> int
(** Map a signed int onto a non-negative one (0, -1, 1, -2, ... to
    0, 1, 2, 3, ...), so small deltas of either sign stay short. *)

val unzigzag : int -> int
(** Inverse of {!zigzag}. *)

val fnv1a : string -> pos:int -> len:int -> int
(** FNV-1a over [s.[pos .. pos+len-1]], masked non-negative so it
    round-trips through {!put_varint}. *)
