(** The [vpack] command-line tool, as one declarative {!Spec.tool}
    table.  The binary under [bin/] is a one-line shim around
    {!main}; the table lives in a library so the test suite can parse
    arguments and render help without spawning a process. *)

val tool : Spec.tool
(** The full command table: list, run, phases, extract, aggregate,
    report, stats, timeline, serve, trace-check, top, verify, chaos,
    fuzz, diag, asm, disasm, machine. *)

val backend_flag : Spec.flag
(** The shared [--backend reference|compiled] flag; an unknown name is a
    usage error at parse time. *)

val resolve_backend : Spec.matches -> Vp_exec.Emulator.backend
(** The backend a successful parse selected, [Config.default]'s when
    the flag is absent. *)

val jobs_flag : Spec.flag
(** The shared [-j]/[--jobs N] flag; [0] (the default) selects the
    machine's recommended domain count. *)

val resolve_jobs : Spec.matches -> int
(** The domain count a successful parse selected: {!Vp_util.Pool.default_jobs}
    when the flag is absent or [<= 0]. *)

val reporter : ?write:(string -> unit) -> unit -> Logs.reporter
(** A domain-safe [Logs] reporter: each message is formatted into one
    line on the logging domain (["EXEC: [LEVEL] message"], the text
    [Logs.format_reporter] prints),
    then handed to [write] (default: stderr, flushed) under a lock, so
    lines from concurrent domains never interleave. *)

val setup_logs : unit -> unit
(** Install {!reporter} at level [Warning]: the logging set-up of both
    [vpack] and [bench]. *)

val main : unit -> unit
(** Parse [Sys.argv], dispatch, and exit: 0 success, 2 command-line
    error, 3 pipeline error or I/O error ([Sys_error], reported as
    [vpack: MESSAGE]), 4 verifier rejection (and [serve] epochs
    falling back or failing the oracle), 5 chaos-matrix failure, 6
    fuzz-campaign failure (a generated case crashed or failed an
    oracle). *)
