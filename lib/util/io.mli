(** String and file-system helpers shared by the writers and readers
    of the repo's file formats (metrics snapshots, Perfetto traces,
    wire and trace files, JSON configs and reports, fuzz repros). *)

val json_escape : string -> string
(** The body of a JSON string literal for [s] (without the quotes):
    ['"'] and ['\\'] are backslash-escaped, newline and tab become
    [\n] and [\t], and every other control character becomes
    [\u00XX]. *)

val find_sub : string -> string -> int option
(** [find_sub hay needle] is the index of the first occurrence of
    [needle] in [hay]. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents ([mkdir -p]); an
    existing directory, including one created concurrently, is not an
    error.  Raises [Sys_error] when a component cannot be created. *)

val with_in_file : string -> (in_channel -> 'a) -> 'a
(** [with_in_file path f] applies [f] to [path] opened for binary
    reading, and closes the channel on every path.  Raises [Sys_error]
    with a message naming [path], as the Stdlib's does
    (["PATH: REASON"]); a directory is refused as
    ["PATH: is a directory"]. *)

val read_file : string -> string
(** The whole file, as bytes, through {!with_in_file} (its errors). *)

val error_reason : path:string -> string -> string
(** The reason of a [Sys_error] message about [path]: the message
    without its leading ["PATH: "], or the message as it is when it
    does not start with one.  For a caller that names the path
    itself. *)

val write_file : string -> string -> unit
(** [write_file path s] replaces [path]'s contents with [s], as bytes;
    the channel is closed on every path.  Raises [Sys_error]. *)
