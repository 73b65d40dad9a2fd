(** Functions, pre-layout: an ordered list of basic blocks.  The first
    block is the entry.  Layout places blocks consecutively in list
    order, so fall-through edges follow the list. *)

type t = { name : string; blocks : Block.t list }

val v : string -> Block.t list -> t
(** Raises [Invalid_argument] on an empty block list or duplicate
    labels within the function. *)

val name : t -> string
val blocks : t -> Block.t list
val size : t -> int
