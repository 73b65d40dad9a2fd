module Emulator = Vp_exec.Emulator
module Plan = Vp_fault.Plan
module Rng = Vp_util.Rng
module Tabular = Vp_util.Tabular

type cell = {
  plan : Plan.t;
  seed_index : int;
  snapshots : int;
  packages : int;
  coverage_pct : float;
  expansion_pct : float;
  truncated : bool;
  drop_package : int;
  drop_region : int;
  fallback_image : int;
  verified : bool;
  equivalent : bool;
}

type result = {
  baseline : Emulator.outcome;
  cells : cell list;
}

let failures r = List.filter (fun c -> not (c.verified && c.equivalent)) r.cells

let run_cell ~config ~baseline ~plan image =
  let r = Driver.rewrite ~config:(Config.with_fault plan config) image in
  (* The oracle runs the rewritten image under the CLEAN fuel budget:
     a fuel-starvation plan truncates the profile, never the check.
     Compare against the separately computed clean baseline — the
     profile outcome is the wrong reference once fuel is faulted. *)
  let run = Coverage.measure ~config r in
  let count rung =
    List.length
      (List.filter (fun (d : Driver.demotion) -> d.Driver.rung = rung)
         r.Driver.demotions)
  in
  {
    plan;
    seed_index = plan.Plan.seed;
    snapshots = List.length r.Driver.source.Driver.snapshots;
    packages = List.length r.Driver.packages;
    coverage_pct = run.Coverage.coverage_pct;
    expansion_pct = (Expansion.measure r).Expansion.increase_pct;
    truncated = r.Driver.source.Driver.truncated;
    drop_package = count Driver.Drop_package;
    drop_region = count Driver.Drop_region;
    fallback_image = count Driver.Fallback_image;
    verified = Vp_package.Verify.ok r.Driver.verification;
    equivalent = Emulator.equivalent ~reference:baseline run.Coverage.outcome;
  }

let matrix ?(config = Config.default) ?(seeds = 5) ?(seed = 0) ?(jobs = 1)
    image =
  let baseline =
    Emulator.run_backend ~backend:(Config.backend config)
      ~fuel:(Config.fuel config) ~mem_words:(Config.mem_words config) image
  in
  let root = Rng.create ~seed in
  let tasks =
    List.concat
      (List.mapi
         (fun pi plan ->
           let plan_stream = Rng.stream root pi in
           List.init seeds (fun si ->
               let plan =
                 Plan.with_seed plan (Rng.stream_seed plan_stream si)
               in
               (plan, si)))
         Plan.presets)
  in
  let cells =
    Vp_util.Pool.map ~jobs
      (fun (plan, si) ->
        let c = run_cell ~config ~baseline ~plan image in
        { c with seed_index = si })
      tasks
  in
  { baseline; cells }

let table r =
  let t =
    Tabular.create
      ~header:
        [
          ("plan", Tabular.Left);
          ("seed", Tabular.Right);
          ("snaps", Tabular.Right);
          ("pkgs", Tabular.Right);
          ("cover%", Tabular.Right);
          ("expand%", Tabular.Right);
          ("drops p/r/f", Tabular.Right);
          ("trunc", Tabular.Right);
          ("verified", Tabular.Right);
          ("oracle", Tabular.Right);
        ]
  in
  List.iter
    (fun c ->
      Tabular.add_row t
        [
          c.plan.Plan.name;
          string_of_int c.seed_index;
          string_of_int c.snapshots;
          string_of_int c.packages;
          Tabular.cell_pct c.coverage_pct;
          Tabular.cell_pct c.expansion_pct;
          Printf.sprintf "%d/%d/%d" c.drop_package c.drop_region
            c.fallback_image;
          (if c.truncated then "yes" else "-");
          (if c.verified then "ok" else "REJECTED");
          (if c.equivalent then "ok" else "FAILED");
        ])
    r.cells;
  Tabular.render t
