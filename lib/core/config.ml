type session = {
  epoch_fuel : int;
  epochs : int;
  cache_pct : float;
  drift_threshold : float;
  patch_grace : int;
  oracle : bool;
}

let default_session =
  {
    epoch_fuel = 0;
    epochs = 4;
    cache_pct = 30.0;
    drift_threshold = 0.5;
    patch_grace = 50_000;
    oracle = true;
  }

type t = {
  detector : Vp_hsd.Config.t;
  history_size : int;
  similarity : Vp_phase.Similarity.config;
  identify : Vp_region.Identify.config;
  linking : bool;
  opt : Vp_opt.Opt.config;
  cpu : Vp_cpu.Config.t;
  backend : Vp_exec.Emulator.backend;
  mem_words : int;
  fuel : int;
  metrics : Vp_metrics.t;
  fault : Vp_fault.Plan.t option;
  session : session;
}

let v ?(detector = Vp_hsd.Config.default) ?(history_size = 0)
    ?(similarity = Vp_phase.Similarity.default)
    ?(identify = Vp_region.Identify.default) ?(linking = true)
    ?(opt = Vp_opt.Opt.default) ?(cpu = Vp_cpu.Config.default)
    ?(backend = Vp_exec.Emulator.Compiled) ?(mem_words = 1 lsl 20)
    ?(fuel = 200_000_000) ?(metrics = Vp_metrics.disabled) ?fault
    ?(session = default_session) () =
  {
    detector;
    history_size;
    similarity;
    identify;
    linking;
    opt;
    cpu;
    backend;
    mem_words;
    fuel;
    metrics;
    fault;
    session;
  }

let default = v ()

let experiment ~inference ~linking =
  {
    default with
    identify = { default.identify with Vp_region.Identify.block_inference = inference };
    linking;
    (* The paper's speedup study applies relayout and rescheduling
       only; superblock formation is this repository's extension and
       is measured separately (ablation-superblock). *)
    opt = Vp_opt.Opt.paper;
  }

let experiment_name ~inference ~linking =
  Printf.sprintf "%s inference, %s linking"
    (if inference then "with" else "no")
    (if linking then "with" else "no")

let detector t = t.detector
let counter_max t = (1 lsl t.detector.Vp_hsd.Config.counter_bits) - 1
let history_size t = t.history_size
let similarity t = t.similarity
let identify t = t.identify
let linking t = t.linking
let opt t = t.opt
let cpu t = t.cpu
let backend t = t.backend
let mem_words t = t.mem_words
let fuel t = t.fuel
let metrics t = t.metrics
let fault t = t.fault
let session t = t.session
let with_detector detector t = { t with detector }
let with_history_size history_size t = { t with history_size }
let with_opt opt t = { t with opt }
let with_backend backend t = { t with backend }
let with_fuel fuel t = { t with fuel }
let with_metrics metrics t = { t with metrics }
let with_fault fault t = { t with fault = Some fault }
let map_session f t = { t with session = f t.session }

let map_identify f t = { t with identify = f t.identify }

(* Rendering.  One internal JSON tree feeds both the single-line
   [to_json] (machine consumers: `vpack stats`, epoch reports) and the
   indented [pp] (humans), so the two can never disagree about what
   the effective configuration is. *)

type json =
  | J_bool of bool
  | J_int of int
  | J_float of float
  | J_str of string
  | J_obj of (string * json) list

let json_of_cache (g : Vp_cpu.Config.cache_geometry) =
  J_obj
    [
      ("size_bytes", J_int g.Vp_cpu.Config.size_bytes);
      ("line_bytes", J_int g.Vp_cpu.Config.line_bytes);
      ("assoc", J_int g.Vp_cpu.Config.assoc);
    ]

let json_of_t t =
  let d = t.detector in
  let s = t.similarity in
  let i = t.identify in
  let m = i.Vp_region.Identify.marking in
  let o = t.opt in
  let c = t.cpu in
  let se = t.session in
  J_obj
    [
      ( "detector",
        J_obj
          [
            ("sets", J_int d.Vp_hsd.Config.sets);
            ("assoc", J_int d.Vp_hsd.Config.assoc);
            ("counter_bits", J_int d.Vp_hsd.Config.counter_bits);
            ("candidate_threshold", J_int d.Vp_hsd.Config.candidate_threshold);
            ("refresh_interval", J_int d.Vp_hsd.Config.refresh_interval);
            ("clear_interval", J_int d.Vp_hsd.Config.clear_interval);
            ("hdc_bits", J_int d.Vp_hsd.Config.hdc_bits);
            ("hdc_inc", J_int d.Vp_hsd.Config.hdc_inc);
            ("hdc_dec", J_int d.Vp_hsd.Config.hdc_dec);
          ] );
      ("history_size", J_int t.history_size);
      ( "similarity",
        J_obj
          [
            ("missing_fraction", J_float s.Vp_phase.Similarity.missing_fraction);
            ("bias_threshold", J_float s.Vp_phase.Similarity.bias_threshold);
            ("max_bias_flips", J_int s.Vp_phase.Similarity.max_bias_flips);
          ] );
      ( "identify",
        J_obj
          [
            ("block_inference", J_bool i.Vp_region.Identify.block_inference);
            ("max_blocks", J_int i.Vp_region.Identify.max_blocks);
            ("max_connector", J_int i.Vp_region.Identify.max_connector);
            ( "marking",
              J_obj
                [
                  ( "arc_hot_fraction",
                    J_float m.Vp_region.Marking.arc_hot_fraction );
                  ( "hot_arc_weight_threshold",
                    J_int m.Vp_region.Marking.hot_arc_weight_threshold );
                ] );
          ] );
      ("linking", J_bool t.linking);
      ( "opt",
        J_obj
          [
            ("layout", J_bool o.Vp_opt.Opt.layout);
            ("scheduling", J_bool o.Vp_opt.Opt.scheduling);
            ("sinking", J_bool o.Vp_opt.Opt.sinking);
            ("superblocks", J_bool o.Vp_opt.Opt.superblocks);
            ("flip_threshold", J_float o.Vp_opt.Opt.flip_threshold);
          ] );
      ( "cpu",
        J_obj
          [
            ("issue_width", J_int c.Vp_cpu.Config.issue_width);
            ("ialu_units", J_int c.Vp_cpu.Config.ialu_units);
            ("fp_units", J_int c.Vp_cpu.Config.fp_units);
            ("mem_units", J_int c.Vp_cpu.Config.mem_units);
            ("branch_units", J_int c.Vp_cpu.Config.branch_units);
            ("l1i", json_of_cache c.Vp_cpu.Config.l1i);
            ("l1d", json_of_cache c.Vp_cpu.Config.l1d);
            ("l2", json_of_cache c.Vp_cpu.Config.l2);
            ("l2_latency", J_int c.Vp_cpu.Config.l2_latency);
            ("memory_latency", J_int c.Vp_cpu.Config.memory_latency);
            ("branch_resolution", J_int c.Vp_cpu.Config.branch_resolution);
            ("gshare_history_bits", J_int c.Vp_cpu.Config.gshare_history_bits);
            ("btb_entries", J_int c.Vp_cpu.Config.btb_entries);
            ("ras_entries", J_int c.Vp_cpu.Config.ras_entries);
            ("instr_bytes", J_int c.Vp_cpu.Config.instr_bytes);
            ("word_bytes", J_int c.Vp_cpu.Config.word_bytes);
          ] );
      ("backend", J_str (Vp_exec.Emulator.backend_name t.backend));
      ("mem_words", J_int t.mem_words);
      ("fuel", J_int t.fuel);
      ( "metrics",
        J_obj
          [
            ("enabled", J_bool (Vp_metrics.enabled t.metrics));
            (* 0: no per-run timelines *)
            ( "interval",
              J_int (Option.value ~default:0 (Vp_metrics.interval t.metrics)) );
          ] );
      ( "fault",
        match t.fault with
        | None -> J_str "none"
        | Some p -> J_str p.Vp_fault.Plan.name );
      ( "session",
        J_obj
          [
            ("epoch_fuel", J_int se.epoch_fuel);
            ("epochs", J_int se.epochs);
            ("cache_pct", J_float se.cache_pct);
            ("drift_threshold", J_float se.drift_threshold);
            ("patch_grace", J_int se.patch_grace);
            ("oracle", J_bool se.oracle);
          ] );
    ]

let float_lit f =
  let s = Printf.sprintf "%g" f in
  (* keep JSON numbers that happen to be integral parseable as floats *)
  if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

let rec render_compact b = function
  | J_bool v -> Buffer.add_string b (if v then "true" else "false")
  | J_int n -> Buffer.add_string b (string_of_int n)
  | J_float f -> Buffer.add_string b (float_lit f)
  | J_str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (Vp_util.Io.json_escape s);
    Buffer.add_char b '"'
  | J_obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun k (name, v) ->
        if k > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        Buffer.add_string b (Vp_util.Io.json_escape name);
        Buffer.add_string b "\":";
        render_compact b v)
      fields;
    Buffer.add_char b '}'

let to_json t =
  let b = Buffer.create 1024 in
  render_compact b (json_of_t t);
  Buffer.contents b

let rec render_indented b indent = function
  | J_obj fields ->
    let pad = String.make indent ' ' in
    Buffer.add_string b "{\n";
    List.iteri
      (fun k (name, v) ->
        if k > 0 then Buffer.add_string b ",\n";
        Buffer.add_string b pad;
        Buffer.add_string b "  \"";
        Buffer.add_string b (Vp_util.Io.json_escape name);
        Buffer.add_string b "\": ";
        render_indented b (indent + 2) v)
      fields;
    Buffer.add_char b '\n';
    Buffer.add_string b pad;
    Buffer.add_char b '}'
  | j -> render_compact b j

let pp ppf t =
  let b = Buffer.create 1024 in
  render_indented b 0 (json_of_t t);
  Format.pp_print_string ppf (Buffer.contents b)
