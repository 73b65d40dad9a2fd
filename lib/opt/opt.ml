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
  if not (config.sinking || config.superblocks || config.layout || config.scheduling) then pkg
  else begin
    let idx = Pkg_flow.of_pkg pkg in
    if config.sinking then ignore (Sink.sink idx);
    if config.superblocks then ignore (Superblock.form ~protected idx);
    if config.layout then Layout_opt.relayout ~threshold:config.flip_threshold idx;
    if config.scheduling then Schedule.schedule_blocks (Lazy.force scheduler) idx;
    Pkg_flow.to_pkg idx
  end

let transformer ?(config = default) () =
  optimize config (lazy (Schedule.create ~share:true))

let transform ?(config = default) ?(protected = []) pkg =
  optimize config (lazy (Schedule.create ~share:false)) ~protected pkg
