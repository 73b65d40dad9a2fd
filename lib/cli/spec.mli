(** The declarative command-line engine behind [vpack].

    Every subcommand is one {!cmd} row in one {!tool} table; every flag
    one {!flag} record (names, docv, doc, kind, validator, default).
    Because all subcommands go through the same {!parse}, the rules are
    enforced in exactly one place: an unknown flag or subcommand prints
    the relevant usage and exits 2, [--help] prints generated help and
    exits 0, shared flags (e.g. [--backend], [--jobs]) are defined once
    and mean the same thing everywhere they appear.

    {!parse} is pure — it returns a [result] rather than exiting — so
    the tests exercise the tokenizer and the arity/validity rules
    directly; only {!main} talks to the process. *)

type kind = Bool  (** present or absent, no value *) | Value  (** takes one value *)

type flag

val flag :
  ?docv:string ->
  ?doc:string ->
  ?default:string ->
  ?check:(string -> string option) ->
  ?repeatable:bool ->
  ?required:bool ->
  kind:kind ->
  string list ->
  flag
(** A flag answering to every name in the list (1-character names parse
    as [-x], longer ones as [--name]; [--name=v], [--name v], [-x v]
    and [-xv] all work).  [check] validates each value at parse time
    and returns an error message on rejection; [default] is rendered in
    the generated help and is what {!int_value}/{!float_value} read
    when the flag is absent ({!value} still reads [None]). *)

val check_int : string -> string option
val check_float : string -> string option

(** The result of a successful parse.  Accessors take any of the
    flag's names. *)
type matches

val flag_set : matches -> string -> bool
val value : matches -> string -> string option
val values : matches -> string -> string list
(** All occurrences of a repeatable flag, in command-line order. *)

val positional : matches -> string list

val int_value : matches -> string -> int
(** The flag's value as an integer, its declared [default] when
    absent.  Safe after a successful {!parse} of a flag declared with
    {!check_int} and an integer default; raises [Invalid_argument] for
    an absent flag declared without a default. *)

val float_value : matches -> string -> float
(** {!int_value} for a flag declared with {!check_float}. *)

type pos = { pos_docv : string; pos_doc : string; pos_required : bool }

type cmd

val cmd :
  name:string ->
  doc:string ->
  ?positional:pos ->
  ?exits:(int * string) list ->
  flags:flag list ->
  (matches -> unit) ->
  cmd

type tool = {
  tool_name : string;
  version : string;
  tool_doc : string;
  cmds : cmd list;
}

val find_cmd : tool -> string -> cmd option
(** Look a subcommand up by name — how both {!main} and the test suite
    reach an individual table row. *)

val parse : cmd -> string list -> (matches, string) result
(** Pure: tokenize [args] against the command's flag table, then check
    arity (required, non-repeatable given once) and run every value
    validator.  [Error] carries the message the dispatcher prints
    before the usage. *)

val cmd_help : tool -> cmd -> string
val tool_help : tool -> string
(** Help text is generated from the spec table — there is no
    hand-maintained usage string anywhere. *)

val main : tool -> string array -> int
(** Full dispatch on [argv]: resolve the subcommand, parse, honour
    [--help]/[--version], run.  Returns the exit code (0 success, 2 for
    any command-line error); pipeline exceptions from command bodies
    propagate to the caller. *)
