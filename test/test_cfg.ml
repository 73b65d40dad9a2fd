(* Tests for vp_cfg: CFG recovery from images and liveness. *)

module Instr = Vp_isa.Instr
module Op = Vp_isa.Op
module Reg = Vp_isa.Reg
module Program = Vp_prog.Program
module Image = Vp_prog.Image
module Cfg = Vp_cfg.Cfg
module Liveness = Vp_cfg.Liveness
module Progs = Vp_test_support.Progs
module B = Vp_prog.Builder

let cfg_of p name =
  let img = Program.layout p in
  let sym = Option.get (Image.find_sym img name) in
  Cfg.recover img sym

let test_recover_loop_shape () =
  let cfg = cfg_of (Progs.sum_to_n 10) "main" in
  (* A for-loop yields at least: prologue, init, head, body, inc, exit
     chain, epilogue. *)
  Alcotest.(check bool) "several blocks" true (Cfg.num_blocks cfg >= 5);
  (* Exactly one conditional branch: the loop test. *)
  let branches =
    List.init (Cfg.num_blocks cfg) (fun b -> Cfg.branch_addr cfg b)
    |> List.filter_map Fun.id
  in
  Alcotest.(check int) "one cond branch" 1 (List.length branches);
  (* There must be a back edge: the loop. *)
  Alcotest.(check bool) "back edge" true (Cfg.back_edges cfg <> [])

let test_recover_block_partition () =
  let cfg = cfg_of (Progs.sum_to_n 10) "main" in
  let sym = Cfg.sym cfg in
  (* Blocks tile the function exactly. *)
  let total = List.init (Cfg.num_blocks cfg) (Cfg.len cfg) |> List.fold_left ( + ) 0 in
  Alcotest.(check int) "blocks tile range" sym.Image.len total;
  for b = 0 to Cfg.num_blocks cfg - 1 do
    (* At most one control instruction, and only at the end. *)
    let is = Cfg.instrs cfg b in
    List.iteri
      (fun i ins ->
        if i < List.length is - 1 then
          Alcotest.(check bool) "control only last" false (Instr.is_control ins))
      is
  done

let test_block_at_lookup () =
  let cfg = cfg_of (Progs.sum_to_n 10) "main" in
  let sym = Cfg.sym cfg in
  for addr = sym.Image.start to sym.Image.start + sym.Image.len - 1 do
    match Cfg.block_at cfg addr with
    | Some b ->
      Alcotest.(check bool) "addr within block" true
        (addr >= Cfg.start cfg b && addr < Cfg.start cfg b + Cfg.len cfg b)
    | None -> Alcotest.fail "address not covered"
  done;
  Alcotest.(check (option int)) "outside range" None
    (Cfg.block_at cfg (sym.Image.start + sym.Image.len))

let test_arcs_consistency () =
  let cfg = cfg_of (Progs.two_phase ~iters_per_phase:5 ~repeats:2) "main" in
  (* Every succ arc appears as a pred arc of its destination. *)
  List.iter
    (fun (a : Cfg.arc) ->
      Alcotest.(check bool) "succ has matching pred" true
        (List.exists (fun (p : Cfg.arc) -> p = a) (Cfg.preds cfg a.Cfg.dst)))
    (Cfg.arcs cfg);
  (* Conditional branch blocks have exactly two successors (taken +
     fallthrough) when both targets are intra-function. *)
  for b = 0 to Cfg.num_blocks cfg - 1 do
    match Cfg.terminator cfg b with
    | Some (Instr.Br _) ->
      Alcotest.(check int) "br has two succs" 2 (List.length (Cfg.succs cfg b))
    | Some (Instr.Jmp _) ->
      Alcotest.(check int) "jmp has one succ" 1 (List.length (Cfg.succs cfg b))
    | _ -> ()
  done

let test_call_sites () =
  let cfg = cfg_of (Progs.call_chain 1) "beta" in
  let img = Cfg.image cfg in
  let sites = Cfg.call_sites cfg in
  Alcotest.(check int) "one call" 1 (List.length sites);
  let _, callee = List.hd sites in
  match Image.sym_at img callee with
  | Some s -> Alcotest.(check string) "calls gamma" "gamma" s.Image.name
  | None -> Alcotest.fail "callee not found"

let test_liveness_straightline () =
  let cfg = cfg_of (Progs.call_chain 1) "gamma" in
  let live = Liveness.compute cfg in
  (* sp is live everywhere in a framed function. *)
  Alcotest.(check bool) "sp live at entry" true
    (Liveness.live_in live 0 land Reg.bit Reg.sp <> 0)

let test_liveness_arg_flows_to_use () =
  (* gamma uses its argument: a0 must be live-in at the prologue. *)
  let cfg = cfg_of (Progs.call_chain 1) "gamma" in
  let live = Liveness.compute cfg in
  Alcotest.(check bool) "a0 live at entry" true
    (Liveness.live_in live 0 land Reg.bit (Reg.arg 0) <> 0)

let test_liveness_dead_value () =
  (* A register defined and never used afterwards is not live-out of
     its defining block. *)
  let b = B.create () in
  B.func b "main" ~nargs:0 (fun fb _ ->
      let dead = B.vreg fb in
      let live_v = B.vreg fb in
      B.li fb dead 42;
      B.li fb live_v 1;
      B.ret fb (Some live_v);
      B.halt fb);
  let cfg = cfg_of (B.program b ~entry:"main") "main" in
  let live = Liveness.compute cfg in
  (* Find the block containing the li of 42; the dead temp (t0=r8)
     must not be live at function exit blocks.  We check the weaker,
     robust property: r8 is not live-in at the epilogue. *)
  let epilogue = Cfg.num_blocks cfg - 1 in
  Alcotest.(check bool) "dead temp not live at epilogue" true
    (Liveness.live_in live epilogue land Reg.bit (Reg.of_int 8) = 0)

let test_live_across_arc () =
  let cfg = cfg_of (Progs.sum_to_n 10) "main" in
  let live = Liveness.compute cfg in
  List.iter
    (fun (a : Cfg.arc) ->
      Alcotest.(check int) "live across = live-in of dst"
        (Liveness.live_in live a.Cfg.dst)
        (Liveness.live_across live a))
    (Cfg.arcs cfg)

(* Property: recovered blocks always tile the function and arcs stay
   in-bounds, over random programs. *)
let prop_recovery_tiles =
  QCheck.Test.make ~name:"recovery tiles random functions" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let img = Program.layout (Progs.random_arith ~seed) in
      List.for_all
        (fun sym ->
          let cfg = Cfg.recover img sym in
          let n = Cfg.num_blocks cfg in
          let total = List.init n (Cfg.len cfg) |> List.fold_left ( + ) 0 in
          total = sym.Image.len
          && List.for_all
               (fun (a : Cfg.arc) -> a.Cfg.src < n && a.Cfg.dst < n)
               (Cfg.arcs cfg))
        (Image.functions img))

(* Property: arc ids, back flags and the index views agree with the
   list views, over every function of every registry workload and of
   the first 200 campaign programs. *)
let arc_table_consistent cfg =
  let m = Cfg.num_arcs cfg in
  let arcs = Cfg.arcs cfg in
  let back = Cfg.back_edges cfg in
  let count p l = List.length (List.filter p l) in
  let ids_dense =
    List.map (fun (a : Cfg.arc) -> a.Cfg.id) arcs = List.init m Fun.id
    && List.for_all (fun (a : Cfg.arc) -> Cfg.arc cfg a.Cfg.id == a) arcs
  in
  let each_once =
    List.for_all
      (fun (a : Cfg.arc) ->
        let same (x : Cfg.arc) = x.Cfg.id = a.Cfg.id in
        count same (Cfg.succs cfg a.Cfg.src) = 1
        && count same (Cfg.preds cfg a.Cfg.dst) = 1
        && List.find same (Cfg.succs cfg a.Cfg.src) = a
        && List.find same (Cfg.preds cfg a.Cfg.dst) = a)
      arcs
  in
  let flags =
    List.for_all
      (fun (a : Cfg.arc) -> a.Cfg.back = List.mem (a.Cfg.src, a.Cfg.dst) back)
      arcs
  in
  let views =
    List.for_all
      (fun b ->
        let old_filter =
          List.filter
            (fun (a : Cfg.arc) -> not (List.mem (a.Cfg.src, a.Cfg.dst) back))
            (Cfg.preds cfg b)
        in
        Cfg.preds_ignoring_back_edges cfg b = old_filter
        && List.init (Cfg.out_degree cfg b) (Cfg.succ cfg b) = Cfg.succs cfg b
        && List.init (Cfg.in_degree cfg b) (Cfg.pred cfg b) = Cfg.preds cfg b)
      (List.init (Cfg.num_blocks cfg) Fun.id)
  in
  let sum f = List.fold_left ( + ) 0 (List.init (Cfg.num_blocks cfg) f) in
  ids_dense && each_once && flags && views
  && sum (fun b -> List.length (Cfg.succs cfg b)) = m
  && sum (fun b -> List.length (Cfg.preds cfg b)) = m

(* Checks every function of [img]; returns its back-flagged arcs. *)
let check_image what img =
  List.fold_left
    (fun acc (sym : Image.sym) ->
      let cfg = Cfg.recover img sym in
      if not (arc_table_consistent cfg) then
        Alcotest.failf "%s: %s: arc table inconsistent" what sym.Image.name;
      acc + List.length (List.filter (fun (a : Cfg.arc) -> a.Cfg.back) (Cfg.arcs cfg)))
    0 (Image.functions img)

let test_arc_ids_registry () =
  let back =
    List.fold_left
      (fun acc (w : Vp_workloads.Registry.t) ->
        acc
        + check_image (Vp_workloads.Registry.name w)
            (Program.layout (w.Vp_workloads.Registry.program ())))
      0 Vp_workloads.Registry.all
  in
  Alcotest.(check bool) "some back arcs" true (back > 0)

let test_arc_ids_campaign () =
  let module Campaign = Vp_gen.Campaign in
  let back = ref 0 in
  for i = 0 to 199 do
    let spec = Campaign.spec_of_index ~root_seed:0 i in
    back :=
      !back
      + check_image
          (Printf.sprintf "campaign %d" i)
          (Program.layout
             (Vp_gen.Gen.program ~seed:spec.Campaign.seed spec.Campaign.params))
  done;
  Alcotest.(check bool) "some back arcs" true (!back > 0)

let () =
  Alcotest.run "vp_cfg"
    [
      ( "recovery",
        [
          Alcotest.test_case "loop shape" `Quick test_recover_loop_shape;
          Alcotest.test_case "block partition" `Quick test_recover_block_partition;
          Alcotest.test_case "block_at" `Quick test_block_at_lookup;
          Alcotest.test_case "arc consistency" `Quick test_arcs_consistency;
          Alcotest.test_case "call sites" `Quick test_call_sites;
          QCheck_alcotest.to_alcotest prop_recovery_tiles;
        ] );
      ( "arc ids",
        [
          Alcotest.test_case "registry" `Quick test_arc_ids_registry;
          Alcotest.test_case "campaign" `Quick test_arc_ids_campaign;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "straight line" `Quick test_liveness_straightline;
          Alcotest.test_case "arg flows" `Quick test_liveness_arg_flows_to_use;
          Alcotest.test_case "dead value" `Quick test_liveness_dead_value;
          Alcotest.test_case "live across arc" `Quick test_live_across_arc;
        ] );
    ]
