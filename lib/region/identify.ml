type config = {
  block_inference : bool;
  max_blocks : int;
  max_connector : int;
  marking : Marking.config;
}

let default =
  { block_inference = true; max_blocks = 1; max_connector = 6;
    marking = Marking.default }

type stats = {
  functions : int;
  hot_blocks : int;
  selected_instructions : int;
  inference_rounds : int;
  grown_blocks : int;
}

(* Inference and growth enable each other: an adopted predecessor lets
   the arc rules reach the next loop level, whose latch the connector
   rule can then close.  Iterate the pair to a fix-point (bounded; each
   round only ever adds blocks, so termination is structural). *)
let max_formation_rounds = 12

let identify_with_stats ?(config = default) image snapshot =
  let region = Region.create image snapshot in
  Marking.mark ~config:config.marking region;
  let rounds = ref 0 in
  let grown = ref 0 in
  let continue_ = ref true in
  let iterations = ref 0 in
  while !continue_ && !iterations < max_formation_rounds do
    incr iterations;
    rounds := !rounds + Inference.run ~block_inference:config.block_inference region;
    let g =
      Growth.grow ~max_blocks:config.max_blocks ~max_connector:config.max_connector
        region
    in
    grown := !grown + g;
    continue_ := g > 0
  done;
  let hot_blocks = ref 0 in
  for i = 0 to Region.num_funcs region - 1 do
    hot_blocks := !hot_blocks + List.length (Region.hot_blocks (Region.func region i))
  done;
  let stats =
    {
      functions = Region.num_funcs region;
      hot_blocks = !hot_blocks;
      selected_instructions = Region.selected_instructions region;
      inference_rounds = !rounds;
      grown_blocks = !grown;
    }
  in
  (region, stats)

let identify ?config image snapshot = fst (identify_with_stats ?config image snapshot)
