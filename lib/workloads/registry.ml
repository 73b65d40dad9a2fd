type t = {
  bench : string;
  input : string;
  description : string;
  program : unit -> Vp_prog.Program.t;
}

let entry bench input description program = { bench; input; description; program }

let all =
  [
    entry "099.go" "A" "alternating territory/tactics evaluation" (fun () ->
        W_go.program ~scale:2);
    entry "124.m88ksim" "A" "two-pass loader then fetch-execute loop" (fun () ->
        W_m88ksim.program ~scale:2);
    entry "130.li" "A" "evaluator with weak callers of a hot lookup" (fun () ->
        W_li.program ~scale:2);
    entry "130.li" "B" "smaller run of the same evaluator" (fun () ->
        W_li.program ~scale:1);
    entry "130.li" "C" "longer reduced-reference run" (fun () ->
        W_li.program ~scale:3);
    entry "132.ijpeg" "A" "convert/DCT/entropy pipeline, 96x96 image" (fun () ->
        W_ijpeg.program ~scale:3 ~width:96 ~height:96);
    entry "132.ijpeg" "B" "convert/DCT/entropy pipeline, 64x64 image" (fun () ->
        W_ijpeg.program ~scale:3 ~width:64 ~height:64);
    entry "132.ijpeg" "C" "convert/DCT/entropy pipeline, 128x96 scenery" (fun () ->
        W_ijpeg.program ~scale:2 ~width:128 ~height:96);
    entry "164.gzip" "A" "deflate then inflate over a synthetic corpus" (fun () ->
        W_gzip.program ~scale:2);
    entry "175.vpr" "A" "annealing placement then wavefront routing" (fun () ->
        W_vpr.program ~scale:2);
    entry "181.mcf" "A" "alternating pricing and pivot passes" (fun () ->
        W_mcf.program ~scale:2);
    entry "134.perl" "A" "string-command half then numeric-command half" (fun () ->
        W_perl.program ~scale:3);
    entry "134.perl" "B" "shorter script run" (fun () -> W_perl.program ~scale:1);
    entry "134.perl" "C" "minimal script run" (fun () -> W_perl.program ~scale:2);
    entry "255.vortex" "A" "insert/lookup/traverse database phases" (fun () ->
        W_vortex.program ~scale:2);
    entry "255.vortex" "B" "smaller database run" (fun () ->
        W_vortex.program ~scale:1);
    entry "197.parser" "A" "tokenise then build linkages" (fun () ->
        W_parser.program ~scale:2);
    entry "300.twolf" "A" "net-cost and row-overlap refinement stages" (fun () ->
        W_twolf.program ~scale:2);
    entry "mpeg2dec" "A" "I/P frame decoding group-of-pictures pattern" (fun () ->
        W_mpeg2dec.program ~scale:2);
  ]

let find ~bench ~input =
  List.find_opt (fun t -> t.bench = bench && t.input = input) all

let name t = t.bench ^ "/" ^ t.input

let benches =
  List.fold_left
    (fun acc t -> if List.mem t.bench acc then acc else acc @ [ t.bench ])
    [] all
