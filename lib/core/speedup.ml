module Pipeline = Vp_cpu.Pipeline

type t = {
  baseline : Pipeline.stats;
  optimized : Pipeline.stats;
  speedup : float;
}

let measure ?(config = Config.default) (r : Driver.rewrite) =
  let metrics = Config.metrics config in
  let time name image =
    Vp_metrics.Span.record metrics name ~work:(fun s -> s.Pipeline.instructions)
    @@ fun () ->
    Pipeline.simulate ~config:(Config.cpu config) ~fuel:(Config.fuel config)
      ~mem_words:(Config.mem_words config) image
  in
  let baseline = time "timing:baseline" r.Driver.source.Driver.image in
  let optimized = time "timing:optimized" (Driver.rewritten_image r) in
  List.iter
    (fun (tag, (s : Pipeline.stats)) ->
      Vp_metrics.Counter.bump metrics
        ("cpu." ^ tag ^ ".fetch_line_buffer_hits")
        s.Pipeline.fetch_line_buffer_hits;
      Vp_metrics.Counter.bump metrics
        ("cpu." ^ tag ^ ".data_line_buffer_hits")
        s.Pipeline.data_line_buffer_hits)
    [ ("baseline", baseline); ("optimized", optimized) ];
  { baseline; optimized; speedup = Pipeline.speedup ~baseline ~optimized }
