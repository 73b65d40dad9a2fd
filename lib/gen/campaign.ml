module R = Vp_util.Rng
module Config = Vacuum.Config
module Driver = Vacuum.Driver
module Chaos = Vacuum.Chaos
module Emulator = Vp_exec.Emulator
module Phase_log = Vp_phase.Phase_log

type spec = { seed : int; params : Gen.params; trace_frac_pct : int }
type failure = { stage : string; detail : string }

type outcome = {
  index : int;
  spec : spec;
  static_size : int;
  instructions : int;
  snapshots : int;
  phases : int;
  cells : int;
  trace_events : int;
  failure : failure option;
}

type repro = { spec : spec; stage : string; detail : string }

type report = {
  count : int;
  chaos_seeds : int;
  root_seed : int;
  outcomes : outcome list;
  repros : repro list;
  shrink_attempts : int;
}

(* Between the Table 2 detector (sized for billion-instruction runs)
   and the test suite's tiny one (1 set x 4 ways, sized for toy
   loops): generated binaries execute tens of thousands of branches
   over working sets of a few dozen, so keep tiny's fast timers and
   narrow HDC but give the BBB enough sets to hold a generated
   phase's branch working set. *)
let campaign_detector = { Vp_hsd.Config.tiny with Vp_hsd.Config.sets = 64 }

let default_config = Config.with_detector campaign_detector Config.default

let spec_of_index ?(bounds = Gen.default_bounds) ~root_seed i =
  let rng = R.stream (R.create ~seed:root_seed) i in
  {
    seed = R.int rng 1_000_000_000;
    params = Gen.sample bounds rng;
    trace_frac_pct = 100;
  }

(* Failure details end up on single lines of repro files and reports. *)
let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

(* Deterministic corruption sweep over an encoded trace: every
   truncation must come back a validation [Error]; a single bit flip
   must never be silently accepted (the body is checksummed, the
   header and trailer are structurally checked); nothing may raise.
   Returns a diagnostic when a corruption slipped through. *)
let corrupt_check ~seed enc =
  let rng = R.stream (R.create ~seed) 0xC0FFEE in
  let n = String.length enc in
  let bad = ref None in
  let note what = if !bad = None then bad := Some what in
  let expect_error what s =
    match Trace.decode s with
    | Ok _ -> note (what ^ ": accepted by the validator")
    | Error _ -> ()
    | exception exn ->
      note (what ^ ": escaped exception " ^ Printexc.to_string exn)
  in
  expect_error "empty input" "";
  expect_error "junk input" "not a trace at all";
  for _ = 1 to 8 do
    let cut = R.int rng (max 1 n) in
    expect_error
      (Printf.sprintf "truncation to %d bytes" cut)
      (String.sub enc 0 cut)
  done;
  for _ = 1 to 8 do
    let at = R.int rng (max 1 n) in
    let bit = R.int rng 8 in
    let b = Bytes.of_string enc in
    Bytes.set b at (Char.chr (Char.code enc.[at] lxor (1 lsl bit)));
    expect_error
      (Printf.sprintf "bit %d flipped at byte %d" bit at)
      (Bytes.to_string b)
  done;
  !bad

let run_case ?(config = default_config) ?(chaos_seeds = 1) ~index spec =
  let base =
    {
      index;
      spec;
      static_size = 0;
      instructions = 0;
      snapshots = 0;
      phases = 0;
      cells = 0;
      trace_events = 0;
      failure = None;
    }
  in
  let fail base stage detail =
    { base with failure = Some { stage; detail = one_line detail } }
  in
  try
    let image = Vp_prog.Program.layout (Gen.program ~seed:spec.seed spec.params) in
    let base = { base with static_size = Vp_prog.Image.size image } in
    let trace, clean =
      Trace.record ~backend:(Config.backend config) ~fuel:(Config.fuel config)
        ~mem_words:(Config.mem_words config) image
    in
    let base =
      { base with
        instructions = clean.Emulator.instructions;
        trace_events = Trace.length trace;
      }
    in
    if not clean.Emulator.halted then
      fail base "generate"
        (Printf.sprintf "did not halt within %d instructions"
           (Config.fuel config))
    else begin
      (* Re-derive the fuel envelope from this binary's clean run so
         fuel-starvation plans truncate meaningfully whatever the
         generated size, while layout overhead in the rewritten image
         never trips the clean-fuel oracle runs. *)
      let config =
        Config.with_fuel ((2 * clean.Emulator.instructions) + 10_000) config
      in
      let matrix =
        Chaos.matrix ~config ~seeds:chaos_seeds ~seed:spec.seed ~jobs:1 image
      in
      let base = { base with cells = List.length matrix.Chaos.cells } in
      let bad = Chaos.failures matrix in
      if bad <> [] then
        fail base "chaos"
          (Printf.sprintf "%d cell(s) violated the oracle: %s"
             (List.length bad)
             (String.concat ", "
                (List.filteri (fun i _ -> i < 4)
                   (List.map
                      (fun (c : Chaos.cell) ->
                        Printf.sprintf "%s/s%d" c.Chaos.plan.Vp_fault.Plan.name
                          c.Chaos.seed_index)
                      bad))))
      else begin
        let t =
          if spec.trace_frac_pct >= 100 then trace
          else
            Trace.prefix trace
              (Trace.length trace * max 0 spec.trace_frac_pct / 100)
        in
        let enc = Trace.encode t in
        match Trace.decode enc with
        | Error e -> fail base "trace-roundtrip" ("fresh encode rejected: " ^ e)
        | Ok t' when not (Trace.equal t t') ->
          fail base "trace-roundtrip" "decode . encode is not the identity"
        | Ok _ -> begin
          let live = Driver.profile ~config image in
          let base =
            { base with
              snapshots = List.length live.Driver.snapshots;
              phases = List.length (Phase_log.phases live.Driver.log);
            }
          in
          let ingested =
            Driver.profile_of_events ~config
              ~instructions:t.Trace.instructions image (Trace.events t)
          in
          if
            spec.trace_frac_pct >= 100
            && ingested.Driver.snapshots <> live.Driver.snapshots
          then
            fail base "trace-ingest"
              (Printf.sprintf
                 "ingested snapshot stream diverges from the live profile \
                  (%d vs %d snapshots)"
                 (List.length ingested.Driver.snapshots)
                 (List.length live.Driver.snapshots))
          else begin
            let rw = Driver.rewrite_of_profile ~config ingested in
            let out =
              (Vacuum.Coverage.measure ~config rw).Vacuum.Coverage.outcome
            in
            if not (Vp_package.Verify.ok rw.Driver.verification) then
              fail base "trace-ingest"
                "rewrite of the ingested profile failed verification"
            else if not (Emulator.equivalent ~reference:clean out) then
              fail base "trace-ingest"
                "image rewritten from the ingested trace diverges from the \
                 original"
            else begin
              match corrupt_check ~seed:spec.seed enc with
              | Some what -> fail base "trace-corrupt" what
              | None -> base
            end
          end
        end
      end
    end
  with exn -> fail base "crash" (Printexc.to_string exn)

let is_trace_stage stage = String.length stage >= 5 && String.sub stage 0 5 = "trace"

(* Case runs one failure's shrink may spend. *)
let max_attempts = 48

let shrink ?config ?chaos_seeds spec0 (failure0 : failure) =
  let attempts = ref 0 in
  let reproduces spec stage =
    if !attempts >= max_attempts then None
    else begin
      incr attempts;
      match (run_case ?config ?chaos_seeds ~index:0 spec).failure with
      | Some f when f.stage = stage -> Some f
      | _ -> None
    end
  in
  let candidates spec stage =
    List.map (fun q -> { spec with params = q }) (Gen.shrinks spec.params)
    @
    if is_trace_stage stage && spec.trace_frac_pct > 12 then
      [ { spec with trace_frac_pct = spec.trace_frac_pct / 2 } ]
    else []
  in
  let rec descend spec (f : failure) =
    let rec first = function
      | [] -> { spec; stage = f.stage; detail = f.detail }
      | c :: rest -> (
        match reproduces c f.stage with
        | Some f' -> descend c f'
        | None ->
          if !attempts >= max_attempts then
            { spec; stage = f.stage; detail = f.detail }
          else first rest)
    in
    first (candidates spec f.stage)
  in
  let repro = descend spec0 failure0 in
  (repro, !attempts)

let run ?(config = default_config) ?(bounds = Gen.default_bounds)
    ?(chaos_seeds = 1) ?(jobs = 1) ?(root_seed = 0) ~count () =
  let specs = List.init count (fun i -> (i, spec_of_index ~bounds ~root_seed i)) in
  let outcomes =
    Vp_util.Pool.map ~jobs
      (fun (i, s) -> run_case ~config ~chaos_seeds ~index:i s)
      specs
  in
  (* Shrinking is sequential and in case order, after the parallel
     sweep: the report stays byte-identical whatever [jobs] ran it. *)
  let shrink_attempts = ref 0 in
  let repros =
    List.filter_map
      (fun o ->
        match o.failure with
        | None -> None
        | Some f ->
          let r, n = shrink ~config ~chaos_seeds o.spec f in
          shrink_attempts := !shrink_attempts + n;
          Some r)
      outcomes
  in
  {
    count;
    chaos_seeds;
    root_seed;
    outcomes;
    repros;
    shrink_attempts = !shrink_attempts;
  }

let ok r = List.for_all (fun o -> o.failure = None) r.outcomes

let render r =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let failures = List.filter (fun o -> o.failure <> None) r.outcomes in
  line "vp-fuzz campaign";
  line "  cases         %d" r.count;
  line "  root seed     %d" r.root_seed;
  line "  chaos seeds   %d" r.chaos_seeds;
  line "  failures      %d" (List.length failures);
  line "  shrink runs   %d" r.shrink_attempts;
  let stat name f =
    match r.outcomes with
    | [] -> ()
    | os ->
      let vs = List.map f os in
      let lo = List.fold_left min max_int vs
      and hi = List.fold_left max min_int vs
      and sum = List.fold_left ( + ) 0 vs in
      line "  %-13s min %d / mean %d / max %d / total %d" name lo
        (sum / List.length vs) hi sum
  in
  stat "static size" (fun o -> o.static_size);
  stat "instructions" (fun o -> o.instructions);
  stat "snapshots" (fun o -> o.snapshots);
  stat "phases" (fun o -> o.phases);
  stat "chaos cells" (fun o -> o.cells);
  stat "trace events" (fun o -> o.trace_events);
  if failures = [] then line "result: all %d cases passed" r.count
  else begin
    List.iter
      (fun o ->
        match o.failure with
        | None -> ()
        | Some f ->
          line "FAIL case %d seed %d [%s]" o.index o.spec.seed f.stage;
          line "  %s" f.detail;
          line "  params %s"
            (Format.asprintf "%a" Gen.pp o.spec.params))
      failures;
    List.iter
      (fun (rp : repro) ->
        line "shrunk repro: seed %d trace_frac_pct %d [%s] %s" rp.spec.seed
          rp.spec.trace_frac_pct rp.stage
          (Format.asprintf "%a" Gen.pp rp.spec.params))
      r.repros;
    line "result: %d of %d cases FAILED" (List.length failures) r.count
  end;
  Buffer.contents b

(* ---- repro files ---- *)

let repro_schema = "vp-fuzz-repro/1"

let repro_to_string (r : repro) =
  let b = Buffer.create 256 in
  Buffer.add_string b ("# " ^ repro_schema ^ "\n");
  Printf.bprintf b "seed %d\n" r.spec.seed;
  Printf.bprintf b "trace_frac_pct %d\n" r.spec.trace_frac_pct;
  List.iter
    (fun (k, v) -> Printf.bprintf b "%s %d\n" k v)
    (Gen.fields r.spec.params);
  Printf.bprintf b "stage %s\n" r.stage;
  Printf.bprintf b "detail %s\n" (one_line r.detail);
  Buffer.contents b

let repro_of_string s =
  let lines = String.split_on_char '\n' s in
  match lines with
  | first :: rest when String.trim first = "# " ^ repro_schema ->
    let seed = ref None
    and frac = ref 100
    and stage = ref None
    and detail = ref ""
    and fields = ref []
    and err = ref None in
    List.iter
      (fun l ->
        if !err = None && String.trim l <> "" then
          match String.index_opt l ' ' with
          | None -> err := Some (Printf.sprintf "malformed repro line %S" l)
          | Some sp -> (
            let k = String.sub l 0 sp in
            let v = String.sub l (sp + 1) (String.length l - sp - 1) in
            match k with
            | "stage" -> stage := Some v
            | "detail" -> detail := v
            | _ -> (
              match int_of_string_opt (String.trim v) with
              | None ->
                err := Some (Printf.sprintf "repro key %s: %S is not an int" k v)
              | Some n -> (
                match k with
                | "seed" -> seed := Some n
                | "trace_frac_pct" -> frac := n
                | _ -> fields := (k, n) :: !fields)))
        )
      rest;
    (match !err with
    | Some e -> Error e
    | None -> (
      match (!seed, !stage) with
      | None, _ -> Error "repro file missing its seed"
      | _, None -> Error "repro file missing its stage"
      | Some seed, Some stage -> (
        match Gen.of_fields (List.rev !fields) with
        | Error e -> Error e
        | Ok params ->
          Ok
            {
              spec = { seed; params; trace_frac_pct = max 1 (min 100 !frac) };
              stage;
              detail = !detail;
            })))
  | _ -> Error (Printf.sprintf "missing %s header" repro_schema)

let save_repros ~dir r =
  Vp_util.Io.mkdir_p dir;
  List.map
    (fun (rp : repro) ->
      let path = Filename.concat dir (Printf.sprintf "seed-%d.repro" rp.spec.seed) in
      Vp_util.Io.write_file path (repro_to_string rp);
      path)
    r.repros

let load_repro_file ~path =
  match Vp_util.Io.read_file path with
  | s -> repro_of_string s
  | exception Sys_error e -> Error (Vp_util.Io.error_reason ~path e)

let replay ?config ?chaos_seeds (r : repro) =
  let o = run_case ?config ?chaos_seeds ~index:0 r.spec in
  match o.failure with None -> Ok o | Some f -> Error f
