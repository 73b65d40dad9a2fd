module Emulator = Vp_exec.Emulator
module Image = Vp_prog.Image

type t = {
  coverage_pct : float;
  outcome : Emulator.outcome;
  equivalent : bool;
  residency : Vp_telemetry.t;
}

(* pc -> residency lane.  Lane 0 is the original program; lane k > 0
   is the k-th symbol appended at or above [orig_limit] (one lane per
   emitted package group).  A flat array keeps the per-retirement
   attribution to one load. *)
let lanes_of_image image =
  let n = Image.size image in
  let lane_of = Array.make n 0 in
  let names = ref [ "orig" ] in
  let k = ref 0 in
  List.iter
    (fun (s : Image.sym) ->
      if s.Image.start >= image.Image.orig_limit then begin
        incr k;
        names := s.Image.name :: !names;
        for pc = s.Image.start to s.Image.start + s.Image.len - 1 do
          lane_of.(pc) <- !k
        done
      end)
    (Image.functions image);
  (lane_of, Array.of_list (List.rev !names))

let measure ?(config = Config.default) (r : Driver.rewrite) =
  Vp_metrics.Span.record (Config.metrics config) "coverage"
    ~work:(fun c -> c.outcome.Emulator.instructions)
  @@ fun () ->
  let image = Driver.rewritten_image r in
  (* Per-run residency timeline: which address range (original code or
     which emitted package) retired each interval's instructions, plus
     the migration events between them. *)
  let tl = Vp_telemetry.create (Config.metrics config) in
  let lane_of, lane_names = lanes_of_image image in
  let lanes = Array.length lane_names in
  let series =
    Array.map
      (fun name ->
        Vp_telemetry.Series.register tl
          (Printf.sprintf "run.%s.instructions" name))
      lane_names
  in
  let s_instr = Vp_telemetry.Series.register tl "run.instructions" in
  let counts = Array.make lanes 0 in
  let cur_lane = ref 0 in
  let sampler =
    Vp_telemetry.Sampler.create tl ~flush:(fun n ->
        Vp_telemetry.Series.push tl s_instr n;
        for k = 0 to lanes - 1 do
          Vp_telemetry.Series.push tl series.(k) counts.(k);
          counts.(k) <- 0
        done)
  in
  (* A run may cross a lane boundary, so lanes are attributed (and
     intervals counted) one instruction at a time.  With telemetry off
     the run gets no observer and executes the fast compiled variant. *)
  let on_run ~addrs:_ ~start ~len ~taken:_ ~next_pc:_ =
    for pc = start to start + len - 1 do
      let lane = lane_of.(pc) in
      counts.(lane) <- counts.(lane) + 1;
      if lane <> !cur_lane then begin
        let kind =
          if !cur_lane = 0 then "launch"
          else if lane = 0 then "side_exit"
          else "migrate"
        in
        let value = if lane = 0 then !cur_lane else lane in
        Vp_telemetry.Event.emit tl ~kind ~at:(Vp_telemetry.Sampler.at sampler)
          ~value;
        cur_lane := lane
      end;
      Vp_telemetry.Sampler.advance sampler 1
    done
  in
  let outcome =
    Emulator.run_backend ~backend:(Config.backend config)
      ~fuel:(Config.fuel config) ~mem_words:(Config.mem_words config)
      ?on_run:(if Vp_telemetry.enabled tl then Some on_run else None)
      image
  in
  Vp_telemetry.Sampler.finish sampler;
  if not outcome.Emulator.halted then
    Logs.warn (fun m ->
        m
          "coverage run truncated: fuel (%d) exhausted after %d instructions \
           on the rewritten binary"
          (Config.fuel config) outcome.Emulator.instructions);
  let original = r.Driver.source.Driver.outcome in
  {
    coverage_pct =
      Vp_util.Stats.pct outcome.Emulator.package_instructions
        outcome.Emulator.instructions;
    outcome;
    equivalent = Emulator.equivalent ~reference:original outcome;
    residency = tl;
  }
