type config = {
  layout : bool;
  scheduling : bool;
  sinking : bool;
  superblocks : bool;
  flip_threshold : float;
}

let default =
  {
    layout = true;
    scheduling = true;
    sinking = false;
    superblocks = true;
    flip_threshold = 0.5;
  }

let paper = { default with superblocks = false }

let none =
  {
    layout = false;
    scheduling = false;
    sinking = false;
    superblocks = false;
    flip_threshold = 0.5;
  }

let with_sinking = { default with sinking = true }

let optimize config scheduler ~protected pkg =
  let pkg = if config.sinking then fst (Sink.sink pkg) else pkg in
  let pkg = if config.superblocks then fst (Superblock.form ~protected pkg) else pkg in
  let pkg =
    if config.layout then Layout_opt.relayout ~threshold:config.flip_threshold pkg else pkg
  in
  if config.scheduling then Schedule.schedule_blocks (Lazy.force scheduler) pkg else pkg

let transformer ?(config = default) () =
  optimize config (lazy (Schedule.create ~share:true ()))

let transform ?(config = default) ?(protected = []) pkg =
  optimize config (lazy (Schedule.create ~share:false ())) ~protected pkg
