(** Whole programs, pre-layout, and the layout pass that links them
    into an {!Image}. *)

type t = {
  funcs : Func.t list;
  entry : string;  (** entry function name *)
  data_init : (int * int) list;  (** initial memory contents *)
  data_break : int;  (** first data address unused by globals *)
}

val v :
  ?data_init:(int * int) list -> ?data_break:int -> entry:string -> Func.t list -> t
(** Raises [Invalid_argument] on duplicate function names, duplicate
    labels across functions, or a missing entry function. *)

val find_func : t -> string -> Func.t option

val static_size : t -> int
(** Total instruction count. *)

val layout : t -> Image.t
(** Place functions in list order, blocks in function order, resolve
    every label to an absolute address.  Function-name labels resolve
    to entry addresses, so calls may target function names directly.
    Raises [Invalid_argument] on an undefined label. *)
