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

val read_file : string -> string
(** The whole file, as bytes.  The channel is closed on every path;
    raises [Sys_error] when the file cannot be opened or read. *)

val write_file : string -> string -> unit
(** [write_file path s] replaces [path]'s contents with [s], as bytes;
    the channel is closed on every path.  Raises [Sys_error]. *)
