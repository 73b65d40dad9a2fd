module Pipeline = Vp_cpu.Pipeline

type t = {
  baseline : Pipeline.stats;
  optimized : Pipeline.stats;
  speedup : float;
}

(* The two timings are independent: each simulation takes its own
   domain-local model, compiled image and machine state, so running
   them on two domains gives the stats of running them in turn.  Pool
   keeps their order, raises the baseline's error first when both
   fail, runs them in turn when [default_jobs] is 1, and runs them
   inline inside another map's task. *)
let measure ?(config = Config.default) (r : Driver.rewrite) =
  let metrics = Config.metrics config in
  let time (name, image) =
    Vp_metrics.Span.record metrics name ~work:(fun s -> s.Pipeline.instructions)
    @@ fun () ->
    Pipeline.simulate ~config:(Config.cpu config) ~fuel:(Config.fuel config)
      ~mem_words:(Config.mem_words config) image
  in
  let baseline, optimized =
    match
      Vp_util.Pool.map ~jobs:(Vp_util.Pool.default_jobs ()) time
        [
          ("timing:baseline", r.Driver.source.Driver.image);
          ("timing:optimized", Driver.rewritten_image r);
        ]
    with
    | [ b; o ] -> (b, o)
    | _ -> assert false
  in
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
