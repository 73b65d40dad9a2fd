(* Tests for the declarative vpack command-line table: the pure
   Spec.parse tokenizer and arity rules, the dispatcher's exit codes,
   and golden help text — pinned so a usage string only changes when
   someone edits the spec table on purpose. *)

module Spec = Vp_cli.Spec

let tool = Vp_cli.Vpack.tool

let cmd name =
  match Spec.find_cmd tool name with
  | Some c -> c
  | None -> Alcotest.failf "no '%s' command in the table" name

let parse_ok c args =
  match Spec.parse c args with
  | Ok m -> m
  | Error e -> Alcotest.failf "parse failed: %s" e

let parse_err c args =
  match Spec.parse c args with
  | Ok _ -> Alcotest.fail "parse unexpectedly succeeded"
  | Error e -> e

(* ---- tokenizer and accessors ---- *)

let test_flag_forms () =
  let m =
    parse_ok (cmd "serve")
      [ "-w"; "li"; "--epochs=3"; "-j4"; "--backend"; "compiled"; "--no-oracle" ]
  in
  Alcotest.(check (list string)) "workloads" [ "li" ] (Spec.values m "workload");
  Alcotest.(check (option string)) "epochs" (Some "3") (Spec.value m "epochs");
  Alcotest.(check int) "jobs" 4 (Spec.int_value m "jobs");
  Alcotest.(check (option string))
    "backend" (Some "compiled") (Spec.value m "backend");
  Alcotest.(check bool) "no-oracle" true (Spec.flag_set m "no-oracle");
  Alcotest.(check bool) "absent flag" false (Spec.flag_set m "trace-dir");
  Alcotest.(check (option string)) "absent value" None (Spec.value m "trace-dir")

(* An absent flag reads back as the default its spec declares — the
   one copy, the same one help renders. *)
let test_declared_defaults () =
  let session = Vacuum.Config.default_session in
  let m = parse_ok (cmd "serve") [ "-w"; "li" ] in
  Alcotest.(check int) "epochs" session.Vacuum.Config.epochs
    (Spec.int_value m "epochs");
  Alcotest.(check (float 0.)) "cache-pct" session.Vacuum.Config.cache_pct
    (Spec.float_value m "cache-pct");
  Alcotest.(check (float 0.)) "drift" session.Vacuum.Config.drift_threshold
    (Spec.float_value m "drift");
  Alcotest.check_raises "no declared default"
    (Invalid_argument "Spec: flag --trace-dir has no default") (fun () ->
      ignore (Spec.int_value m "trace-dir"));
  let m = parse_ok (cmd "fuzz") [] in
  Alcotest.(check int) "max-iters" 60 (Spec.int_value m "max-iters")

let test_repeatable_order () =
  (* every spelling of the same flag lands in one slot, in command-line
     order; accessors answer to any of its names *)
  let m = parse_ok (cmd "serve") [ "-w"; "li"; "--workload"; "go"; "-wperl" ] in
  Alcotest.(check (list string))
    "order" [ "li"; "go"; "perl" ] (Spec.values m "w");
  Alcotest.(check (list string))
    "same slot" [ "li"; "go"; "perl" ] (Spec.values m "workload")

let test_unknown_flag () =
  Alcotest.(check string) "message" "unknown option '--frobnicate'"
    (parse_err (cmd "serve") [ "-w"; "li"; "--frobnicate" ])

let test_missing_required () =
  Alcotest.(check string) "message" "missing required option '--workload'"
    (parse_err (cmd "serve") [ "--epochs"; "3" ])

let test_bool_takes_no_value () =
  Alcotest.(check string) "message" "option '--no-oracle=yes' takes no value"
    (parse_err (cmd "serve") [ "-w"; "li"; "--no-oracle=yes" ])

let test_non_repeatable_given_twice () =
  Alcotest.(check string) "message" "option '--epochs' given more than once"
    (parse_err (cmd "serve") [ "-w"; "li"; "--epochs"; "1"; "--epochs"; "2" ])

let test_check_rejects_value () =
  Alcotest.(check string) "message"
    "option '--epochs': expected an integer, got \"many\""
    (parse_err (cmd "serve") [ "-w"; "li"; "--epochs"; "many" ])

(* Two backends exist; any other name — the retired "decoded" one
   included — is a usage error at parse time, before a command body
   runs. *)
let test_unknown_backend () =
  Alcotest.(check (option string))
    "decoded is no backend" None
    (Option.map Vp_exec.Emulator.backend_name
       (Vp_exec.Emulator.backend_of_string "decoded"));
  Alcotest.(check string) "message"
    "option '--backend': expected reference or compiled, got \"decoded\""
    (parse_err (cmd "run") [ "-w"; "perl"; "--backend"; "decoded" ]);
  Alcotest.(check int) "exit 2" 2
    (Spec.main tool [| "vpack"; "run"; "-w"; "perl"; "--backend"; "decoded" |])

let test_missing_value () =
  Alcotest.(check string) "message" "option '--epochs' needs a N value"
    (parse_err (cmd "serve") [ "-w"; "li"; "--epochs" ])

let test_positional_required () =
  Alcotest.(check string) "message" "missing WORKLOAD argument"
    (parse_err (cmd "verify") [])

let test_positional_after_terminator () =
  let m = parse_ok (cmd "verify") [ "--"; "--not-a-flag" ] in
  Alcotest.(check (list string))
    "positional" [ "--not-a-flag" ] (Spec.positional m)

let test_unexpected_positional () =
  Alcotest.(check string) "message" "unexpected argument 'stray'"
    (parse_err (cmd "list") [ "stray" ])

let test_help_short_circuits_arity () =
  (* --help must work even when required flags are missing *)
  let m = parse_ok (cmd "serve") [ "--help" ] in
  Alcotest.(check bool) "help set" true (Spec.flag_set m "help")

(* ---- dispatcher exit codes (Spec.main never runs a command body on
   an error path, so these are safe to call in-process) ---- *)

let test_main_exit_codes () =
  Alcotest.(check int) "no args" 2 (Spec.main tool [| "vpack" |]);
  Alcotest.(check int) "help" 0 (Spec.main tool [| "vpack"; "help" |]);
  Alcotest.(check int) "--help" 0 (Spec.main tool [| "vpack"; "--help" |]);
  Alcotest.(check int) "--version" 0 (Spec.main tool [| "vpack"; "--version" |]);
  Alcotest.(check int) "unknown command" 2
    (Spec.main tool [| "vpack"; "frobnicate" |]);
  Alcotest.(check int) "unknown flag" 2
    (Spec.main tool [| "vpack"; "list"; "--frobnicate" |]);
  Alcotest.(check int) "missing required" 2
    (Spec.main tool [| "vpack"; "serve"; "--epochs"; "3" |]);
  Alcotest.(check int) "cmd --help" 0
    (Spec.main tool [| "vpack"; "serve"; "--help" |])

(* [serve --trace-dir] creates a missing directory, two levels deep,
   before the first session runs, and writes a valid trace into it. *)
let test_serve_creates_trace_dir () =
  let root = Filename.temp_file "vp-cli-serve" "" in
  Sys.remove root;
  let dir = Filename.concat (Filename.concat root "a") "b" in
  Alcotest.(check int) "exit" 0
    (Spec.main tool
       [| "vpack"; "serve"; "-w"; "li"; "--epochs"; "1"; "--trace-dir"; dir |]);
  match Sys.readdir dir with
  | [| file |] ->
    let path = Filename.concat dir file in
    (match Vp_metrics.Perfetto.validate_file ~path with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: %s" file e);
    Sys.remove path;
    Sys.rmdir dir;
    Sys.rmdir (Filename.dirname dir);
    Sys.rmdir root
  | files -> Alcotest.failf "expected one trace, got %d files" (Array.length files)

(* An unreadable repro is a pipeline error of the [fuzz] stage (exit 3
   in [Vpack.main], like every stage but [cli]), naming the path once. *)
let test_fuzz_replay_directory () =
  let dir = Filename.get_temp_dir_name () in
  match Spec.main tool [| "vpack"; "fuzz"; "--replay"; dir |] with
  | code -> Alcotest.failf "replay of a directory returned %d" code
  | exception Vacuum.Error.Error e ->
    Alcotest.(check string) "message"
      (Printf.sprintf "fuzz: %s: is a directory" dir)
      (Format.asprintf "%a" Vacuum.Error.pp e)

(* A command that reads one WORKLOAD refuses a second before it runs
   or prints anything: a usage error (stage [cli], exit 2 in
   [Vpack.main]) naming the extra argument. *)
let test_one_workload name () =
  match Spec.main tool [| "vpack"; name; "li"; "go" |] with
  | code -> Alcotest.failf "%s with two workloads returned %d" name code
  | exception Vacuum.Error.Error e ->
    Alcotest.(check string) "stage" "cli" e.Vacuum.Error.stage;
    Alcotest.(check string) "message" "one workload expected, got extra argument go"
      e.Vacuum.Error.what

(* ---- generated help ---- *)

let test_every_command_renders_help () =
  List.iter
    (fun c ->
      let h = Spec.cmd_help tool c in
      let prefix = "usage: vpack " in
      Alcotest.(check string)
        "starts with usage"
        prefix
        (String.sub h 0 (String.length prefix));
      Alcotest.(check bool)
        "lists --help" true
        (let re = "--help" in
         let hl = String.length h and rl = String.length re in
         let rec scan i =
           i + rl <= hl && (String.sub h i rl = re || scan (i + 1))
         in
         scan 0))
    tool.Spec.cmds

let golden_tool_help =
  {golden|
usage: vpack COMMAND [OPTION]...
Vacuum Packing: phase-based post-link optimization

commands:
  list         List the Table 1 workload inventory.
  run          Execute a workload on the functional emulator.
  phases       Profile a workload and show its detected phases.
  extract      Run region identification and package extraction.
  aggregate    Aggregate a fleet of per-machine profile streams (emulated, or ingested from vp-profile-wire/1 files) into one consensus profile and feed it through the packaging pipeline.  Stdout is byte-identical for every --shards/--jobs value.
  report       Full evaluation of one or more workloads (coverage, expansion, optional timing), in parallel under --jobs.
  stats        Evaluate one workload with the metrics registry enabled and print the effective configuration, the per-stage span table and the registry's OpenMetrics snapshot (volatile section included).
  timeline     Render a workload's interval timeline: detector state and phase extents of the profiling run, package residency lanes of the rewritten run, and (with --timing) timing-model series.
  serve        Run the online re-optimization loop on one or more workloads: profile, package, hot-patch the running image at a verified safe launch point, keep profiling the rewritten image, and re-package on phase drift — the package cache bounded by --cache-pct.  Stdout is byte-identical for every --jobs value and backend.
  top          Dashboard over a `vpack serve --metrics` snapshot: counter and cache tables, per-histogram bucket sparklines with p50/p90/p99.  Renders one frame by default; --watch re-reads and redraws live.
  trace-check  Validate each trace file against its schema (vp-profile-wire/1, vp-retire-trace/1, vp-metrics-snapshot/1 or vp-perfetto-trace/1, detected from the first line); failures name the schema and the offending line, and an unreadable file does not stop the check.
  verify       Run the pipeline and the package soundness verifier on every emitted package; exit 4 if any check fails.
  chaos        Run the seed x fault-plan chaos matrix: every preset fault plan, asserting the differential oracle on each rewritten image; exit 5 on any cell failure.
  fuzz         Statistical chaos campaign over generated binaries: each case runs the full profile -> package -> verify -> rewrite pipeline under the fault-plan matrix with the differential oracle, plus vp-retire-trace/1 round-trip, ingestion-equivalence and corruption-totality checks; failures are shrunk to minimal repro files.  Reports are byte-identical across --jobs and backends.
  diag         Run the rewritten binary and histogram package boundary crossings.
  asm          Assemble and run a textual-assembly source file.
  disasm       Print a workload's program as textual assembly.
  machine      Print the simulated EPIC machine model (Table 2).

See 'vpack COMMAND --help' for command options.  '--version' prints the version.
|golden}

let golden_serve_help =
  {golden|
usage: vpack serve [OPTION]...
Run the online re-optimization loop on one or more workloads: profile, package, hot-patch the running image at a verified safe launch point, keep profiling the rewritten image, and re-package on phase drift — the package cache bounded by --cache-pct.  Stdout is byte-identical for every --jobs value and backend.

options:
  -w, --workload NAME        Workload as BENCH or BENCH/INPUT (see `vpack list`). (repeatable)
  --epochs N                 Number of re-optimization epochs to run. (default 4)
  --epoch-fuel N             Instructions per epoch (0 = a clean run's length divided by --epochs). (default 0)
  --cache-pct PCT            Package-cache budget as a percentage of the original's static size (the Table 3 expansion budget); least-resident entries are evicted beyond it. (default 30)
  --drift T                  Similarity threshold below which a detected phase counts as drift and is packaged anew. (default 0.5)
  --grace N                  Extra instructions an epoch may run while seeking a quiescent launch point before the swap is deferred. (default 50000)
  --no-oracle                Skip the per-epoch differential oracle (verifier-only gating of activations).
  --trace-dir DIR            Write one Perfetto trace (schema vp-perfetto-trace/1) per workload to DIR (session-WORKLOAD.json): one epoch-K process per epoch, its series as counter tracks and its events as instants.
  --interval N               Timeline sampling interval for --trace-dir, in retired instructions. (default 10000)
  --metrics FILE             Rewrite an OpenMetrics snapshot (schema vp-metrics-snapshot/1) of the stable metric registry to FILE after every epoch — a scrape-able live view, byte-identical for every --jobs value and backend.
  --perfetto FILE            Write the span ring as a Chrome trace-event / Perfetto JSON timeline (schema vp-perfetto-trace/1) to FILE: one track per domain, each epoch a session:WORKLOAD span over its pipeline spans.
  --flight-dir DIR           Flight recorder: on a fallback to the original image, a verifier rejection or an oracle failure, dump the metric registry with its recent mark ring, plus its span ring as a Perfetto trace, to DIR.
  -j, --jobs N               Evaluate up to N workloads in parallel on separate domains (0 = the machine's recommended domain count). (default 0)
  --backend BACKEND          Functional emulator backend: reference or compiled.  Both backends produce bit-identical results; the choice only affects simulation speed. (default compiled)
  --help                     Show this help.

exit codes:
  0    every epoch verifier-clean and oracle-clean
  2    command-line error
  3    pipeline error
  4    an epoch fell back to the original image or failed the oracle
|golden}

(* the quoted golden literals above open with a newline for
   readability; drop it before comparing *)
let strip_lead s = String.sub s 1 (String.length s - 1)

let test_golden_tool_help () =
  Alcotest.(check string) "tool help" (strip_lead golden_tool_help)
    (Spec.tool_help tool)

let test_golden_serve_help () =
  Alcotest.(check string) "serve help" (strip_lead golden_serve_help)
    (Spec.cmd_help tool (cmd "serve"))

(* ---- logging ---- *)

(* Worker domains warn concurrently: every message must come out as one
   whole line, and formatting must never raise. *)
let test_reporter_domain_safe () =
  let buf = Buffer.create (1 lsl 20) in
  let previous = Logs.reporter () and level = Logs.level () in
  Logs.set_reporter (Vp_cli.Vpack.reporter ~write:(Buffer.add_string buf) ());
  Logs.set_level (Some Logs.Warning);
  let domains = 4 and per_domain = 20_000 in
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        Logs.set_reporter previous;
        Logs.set_level level)
      (fun () ->
        List.init domains (fun d ->
            Domain.spawn (fun () ->
                match
                  for i = 0 to per_domain - 1 do
                    Logs.warn (fun m -> m "domain %d message %d of %s" d i "run")
                  done
                with
                | () -> None
                | exception e -> Some (Printexc.to_string e)))
        |> List.map Domain.join)
  in
  List.iteri
    (fun d r ->
      match r with
      | None -> ()
      | Some e -> Alcotest.failf "domain %d raised %s" d e)
    outcome;
  let lines =
    List.filter (( <> ) "") (String.split_on_char '\n' (Buffer.contents buf))
  in
  Alcotest.(check int) "one line per message" (domains * per_domain)
    (List.length lines);
  let seen = Array.make (domains * per_domain) false in
  List.iter
    (fun l ->
      match Scanf.sscanf l "%_[^:]: [WARNING] domain %d message %d of run%!" (fun d i -> (d, i)) with
      | d, i when d >= 0 && d < domains && i >= 0 && i < per_domain ->
        seen.((d * per_domain) + i) <- true
      | _ | (exception _) -> Alcotest.failf "torn line %S" l)
    lines;
  Alcotest.(check bool) "every message whole, exactly once" true
    (Array.for_all Fun.id seen)

let () =
  Alcotest.run "cli"
    [
      ( "parse",
        [
          Alcotest.test_case "flag forms" `Quick test_flag_forms;
          Alcotest.test_case "declared defaults" `Quick test_declared_defaults;
          Alcotest.test_case "repeatable order" `Quick test_repeatable_order;
          Alcotest.test_case "unknown flag" `Quick test_unknown_flag;
          Alcotest.test_case "missing required" `Quick test_missing_required;
          Alcotest.test_case "bool takes no value" `Quick
            test_bool_takes_no_value;
          Alcotest.test_case "non-repeatable twice" `Quick
            test_non_repeatable_given_twice;
          Alcotest.test_case "check rejects value" `Quick
            test_check_rejects_value;
          Alcotest.test_case "missing value" `Quick test_missing_value;
          Alcotest.test_case "unknown backend" `Quick test_unknown_backend;
          Alcotest.test_case "positional required" `Quick
            test_positional_required;
          Alcotest.test_case "positional after --" `Quick
            test_positional_after_terminator;
          Alcotest.test_case "unexpected positional" `Quick
            test_unexpected_positional;
          Alcotest.test_case "--help short-circuits arity" `Quick
            test_help_short_circuits_arity;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "exit codes" `Quick test_main_exit_codes;
          Alcotest.test_case "serve creates trace dir" `Quick
            test_serve_creates_trace_dir;
          Alcotest.test_case "fuzz replay of a directory" `Quick
            test_fuzz_replay_directory;
          Alcotest.test_case "verify takes one workload" `Quick (test_one_workload "verify");
          Alcotest.test_case "aggregate takes one workload" `Quick
            (test_one_workload "aggregate");
          Alcotest.test_case "timeline takes one workload" `Quick
            (test_one_workload "timeline");
          Alcotest.test_case "chaos takes one workload" `Quick (test_one_workload "chaos");
        ] );
      ( "help",
        [
          Alcotest.test_case "every command renders" `Quick
            test_every_command_renders_help;
          Alcotest.test_case "golden tool help" `Quick test_golden_tool_help;
          Alcotest.test_case "golden serve help" `Quick test_golden_serve_help;
        ] );
      ( "logging",
        [
          Alcotest.test_case "reporter domain-safe" `Quick
            test_reporter_domain_safe;
        ] );
    ]
