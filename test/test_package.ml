(* Tests for vp_package: pruning views, root selection, package
   construction with partial inlining, linking, emission — and the
   decisive property that a packaged binary computes exactly what the
   original computed. *)

module Instr = Vp_isa.Instr
module Op = Vp_isa.Op
module Program = Vp_prog.Program
module Image = Vp_prog.Image
module Cfg = Vp_cfg.Cfg
module Emulator = Vp_exec.Emulator
module Detector = Vp_hsd.Detector
module Config = Vp_hsd.Config
module Snapshot = Vp_hsd.Snapshot
module Phase_log = Vp_phase.Phase_log
module Identify = Vp_region.Identify
module Region = Vp_region.Region
module Prune = Vp_package.Prune
module Roots = Vp_package.Roots
module Build = Vp_package.Build
module Linking = Vp_package.Linking
module Pkg = Vp_package.Pkg
module Emit = Vp_package.Emit
module B = Vp_prog.Builder
module Progs = Vp_test_support.Progs

(* The full pipeline: profile with the tiny detector, filter phases,
   identify a region per phase, build and emit packages. *)
let pipeline ?(linking = true) ?(block_inference = true) img =
  let d = Detector.create ~config:Config.tiny () in
  let original =
    Emulator.run_backend ~on_branch:(fun ~pc ~taken -> Detector.on_branch d ~pc ~taken) img
  in
  let log = Phase_log.build (Detector.snapshots d) in
  let config = { Identify.default with Identify.block_inference } in
  let pkgs =
    List.concat_map
      (fun (p : Phase_log.phase) ->
        let region = Identify.identify ~config img p.Phase_log.representative in
        Build.build region ~prefix:(Printf.sprintf "pkg$p%d" p.Phase_log.id))
      (Phase_log.phases log)
  in
  let result = Emit.of_groups img (Linking.group_packages ~linking pkgs) in
  (original, log, pkgs, result)

(* A workload with a hot recursive function under a hot loop. *)
let recursive_workload () =
  let b = B.create () in
  B.func b "fact" ~nargs:1 (fun fb args ->
      let x = args.(0) in
      B.if_ fb (Op.Le, x, B.K 1)
        (fun () ->
          let one = B.vreg fb in
          B.li fb one 1;
          B.ret fb (Some one))
        (fun () ->
          let xm1 = B.vreg fb in
          B.alu fb Op.Sub xm1 x (B.K 1);
          let sub = B.call fb "fact" [ xm1 ] in
          let r = B.vreg fb in
          B.alu fb Op.Mul r x (B.V sub);
          B.ret fb (Some r)));
  B.func b "main" ~nargs:0 (fun fb _ ->
      let acc = B.vreg fb in
      let i = B.vreg fb in
      let n = B.vreg fb in
      B.li fb acc 0;
      B.for_ fb i ~from:(B.K 0) ~below:(B.K 500) (fun () ->
          B.alu fb Op.Rem n i (B.K 12);
          B.addi fb n n 2;
          let r = B.call fb "fact" [ n ] in
          B.alu fb Op.Add acc acc (B.V r);
          B.alu fb Op.And acc acc (B.K 0xFFFFFF));
      B.ret fb (Some acc);
      B.halt fb);
  Program.layout (B.program b ~entry:"main")

let check_equivalence name img =
  let original, _, pkgs, result = pipeline img in
  Alcotest.(check bool) (name ^ ": packages built") true (pkgs <> []);
  let rewritten = Emulator.run_backend result.Emit.image in
  Alcotest.(check bool) (name ^ ": halted") true rewritten.Emulator.halted;
  Alcotest.(check int) (name ^ ": same result") original.Emulator.result
    rewritten.Emulator.result;
  Alcotest.(check int) (name ^ ": same checksum") original.Emulator.checksum
    rewritten.Emulator.checksum;
  Alcotest.(check int) (name ^ ": same instruction order of magnitude")
    original.Emulator.instructions
    original.Emulator.instructions;
  rewritten

let test_rewrite_two_phase () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:3) in
  let rewritten = check_equivalence "two_phase" img in
  (* The whole point: most execution migrates into packages. *)
  let coverage =
    Vp_util.Stats.pct rewritten.Emulator.package_instructions
      rewritten.Emulator.instructions
  in
  Alcotest.(check bool)
    (Printf.sprintf "coverage %.1f%% > 50%%" coverage)
    true (coverage > 50.0)

let test_rewrite_recursive () =
  let img = recursive_workload () in
  let rewritten = check_equivalence "recursive" img in
  Alcotest.(check bool) "some package execution" true
    (rewritten.Emulator.package_instructions > 0)

let test_rewrite_biased_branch () =
  let img = Program.layout (Progs.biased_branch ~iters:20000 ~bias_mod:10) in
  ignore (check_equivalence "biased" img)

let test_rewrite_without_linking () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:3) in
  let original, _, _, result = pipeline ~linking:false img in
  let rewritten = Emulator.run_backend result.Emit.image in
  Alcotest.(check int) "same result" original.Emulator.result rewritten.Emulator.result;
  Alcotest.(check int) "same checksum" original.Emulator.checksum
    rewritten.Emulator.checksum

let test_rewrite_without_inference () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:3) in
  let original, _, _, result = pipeline ~block_inference:false img in
  let rewritten = Emulator.run_backend result.Emit.image in
  Alcotest.(check int) "same result" original.Emulator.result rewritten.Emulator.result;
  Alcotest.(check int) "same checksum" original.Emulator.checksum
    rewritten.Emulator.checksum

let test_package_structure () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:3) in
  let _, _, pkgs, result = pipeline img in
  List.iter
    (fun p ->
      Alcotest.(check bool) (p.Pkg.id ^ " has entries") true (p.Pkg.entries <> []);
      (* Exit blocks jump back into the original code range. *)
      Array.iter
        (fun (b : Pkg.block) ->
          if b.Pkg.is_exit then
            match b.Pkg.term with
            | Pkg.Exit_jump a ->
              Alcotest.(check bool) "exit targets original range" true
                (a < img.Image.orig_limit)
            | Pkg.Link _ -> ()
            | _ -> Alcotest.fail "exit block with non-exit terminator")
        p.Pkg.blocks)
    pkgs;
  (* Launch patches land inside the original image. *)
  List.iter
    (fun (orig, target) ->
      Alcotest.(check bool) "patch in original" true (orig < img.Image.orig_limit);
      Alcotest.(check bool) "target in packages" true (target >= img.Image.orig_limit))
    result.Emit.launch_patches;
  Alcotest.(check bool) "at least one launch" true (result.Emit.launch_patches <> [])

let test_partial_inlining_happens () =
  let img = recursive_workload () in
  let _, _, pkgs, _ = pipeline img in
  (* Some package must contain an inlined call (fact into main's
     package, or fact into itself). *)
  let has_inline p =
    Array.exists
      (fun (b : Pkg.block) ->
        match b.Pkg.term with Pkg.Inlined_call _ -> true | _ -> false)
      p.Pkg.blocks
  in
  Alcotest.(check bool) "inlining happened" true (List.exists has_inline pkgs);
  (* And the recursion must bottom out in a call back to original
     code. *)
  let has_call_orig p =
    Array.exists
      (fun (b : Pkg.block) ->
        match b.Pkg.term with Pkg.Call_orig _ -> true | _ -> false)
      p.Pkg.blocks
  in
  Alcotest.(check bool) "recursion bottoms out via original call" true
    (List.exists has_call_orig pkgs)

let test_roots_self_recursive () =
  let img = recursive_workload () in
  let d = Detector.create ~config:Config.tiny () in
  let _ =
    Emulator.run_backend ~on_branch:(fun ~pc ~taken -> Detector.on_branch d ~pc ~taken) img
  in
  let log = Phase_log.build (Detector.snapshots d) in
  let phase = List.hd (Phase_log.phases log) in
  let region = Identify.identify img phase.Phase_log.representative in
  let roots = Roots.compute region in
  (match List.assoc_opt "fact" (Roots.roots roots) with
  | Some reasons ->
    Alcotest.(check bool) "fact self-recursive root" true
      (List.mem Roots.Self_recursive reasons)
  | None -> Alcotest.fail "fact is not a root");
  match List.assoc_opt "main" (Roots.roots roots) with
  | Some reasons ->
    Alcotest.(check bool) "main has no callers" true
      (List.mem Roots.No_callers reasons)
  | None -> Alcotest.fail "main is not a root"

let test_prune_view_consistency () =
  let img = recursive_workload () in
  let d = Detector.create ~config:Config.tiny () in
  let _ =
    Emulator.run_backend ~on_branch:(fun ~pc ~taken -> Detector.on_branch d ~pc ~taken) img
  in
  let log = Phase_log.build (Detector.snapshots d) in
  let phase = List.hd (Phase_log.phases log) in
  let region = Identify.identify img phase.Phase_log.representative in
  List.iter
    (fun (_, mf) ->
      let v = Prune.view mf in
      let hot = Prune.hot_blocks v in
      (* Internal succs and exits partition each hot block's succs. *)
      List.iter
        (fun b ->
          let internal = List.length (Prune.internal_succs v b) in
          let exits = List.length (Prune.exit_arcs_of v b) in
          let all = List.length (Cfg.succs (Prune.cfg v) b) in
          Alcotest.(check int) "partition" all (internal + exits))
        hot;
      (* Entry blocks are hot. *)
      List.iter
        (fun e -> Alcotest.(check bool) "entry hot" true (List.mem e hot))
        (Prune.entry_blocks v))
    (Region.funcs region)

(* Hand-built two-package root group exercising link resolution and
   application directly. *)
let mini_block ?(orig = -1) ?(exit_ = false) ?taken_prob label body term =
  {
    Pkg.label;
    orig_addr = orig;
    context = [];
    body;
    term;
    weight = 0;
    taken_prob;
    live_out = 0;
    is_exit = exit_;
  }

let t0 = Vp_isa.Reg.of_int 8
let t1 = Vp_isa.Reg.of_int 9

(* A package of root [f] from blocks in position order, all live in
   that order. *)
let package ?(region_id = 0) ?(entries = []) ?(sites = []) id blocks =
  let blocks = Array.of_list blocks in
  {
    Pkg.id;
    region_id;
    root = "f";
    blocks;
    order = Array.init (Array.length blocks) Fun.id;
    entries;
    sites;
  }

(* The one exit block of a package. *)
let exit_of (p : Pkg.t) =
  List.find (fun (b : Pkg.block) -> b.Pkg.is_exit) (Array.to_list p.Pkg.blocks)

(* Package specialised to the fall-through direction of the branch at
   original pc 100: the taken direction (original 300) exits. *)
let pkg_f =
  let b = 0 and ft = 1 and x = 2 in
  package "pkgF" ~entries:[ (b, 99) ]
    ~sites:
      [
        {
          Pkg.orig_pc = 100;
          site_context = [];
          block = b;
          bias = Pkg.F;
          cold_exit = Some x;
          cold_target = Some 300;
        };
      ]
    [
      mini_block ~orig:99 "pkgF$b" []
        (Pkg.Branch { cond = Op.Ge; src1 = t0; src2 = t1; taken = x; fall = ft });
      mini_block ~orig:200 "pkgF$ft" [] Pkg.Return;
      mini_block ~exit_:true "pkgF$x" [] (Pkg.Exit_jump 300);
    ]

(* The opposite specialisation: taken internal, fall-through exits. *)
let pkg_t =
  let b = 0 and tk = 1 and x = 2 in
  package "pkgT" ~region_id:1 ~entries:[ (b, 99) ]
    ~sites:
      [
        {
          Pkg.orig_pc = 100;
          site_context = [];
          block = b;
          bias = Pkg.T;
          cold_exit = Some x;
          cold_target = Some 200;
        };
      ]
    [
      mini_block ~orig:99 "pkgT$b" []
        (Pkg.Branch { cond = Op.Ge; src1 = t0; src2 = t1; taken = tk; fall = x });
      mini_block ~orig:300 "pkgT$tk" [] Pkg.Return;
      mini_block ~exit_:true "pkgT$x" [] (Pkg.Exit_jump 200);
    ]

let test_links_cross_specialisations () =
  let links = Linking.links_for_ordering [ pkg_f; pkg_t ] in
  Alcotest.(check int) "two links" 2 (List.length links);
  let find from = List.find (fun (l : Linking.link) -> l.Linking.from_pkg = from) links in
  let f_to = find 0 in
  Alcotest.(check int) "F links to T's copy of 300" 1 f_to.Linking.to_pkg;
  Alcotest.(check string) "target block" "pkgT$tk"
    pkg_t.Pkg.blocks.(f_to.Linking.to_block).Pkg.label;
  let t_to = find 1 in
  Alcotest.(check int) "T links to F's copy of 200" 0 t_to.Linking.to_pkg;
  Alcotest.(check string) "target block" "pkgF$ft"
    pkg_f.Pkg.blocks.(t_to.Linking.to_block).Pkg.label

(* Every exit of a linked group links into another package of it. *)
let check_exits_linked final =
  List.iteri
    (fun k (p : Pkg.t) ->
      match (exit_of p).Pkg.term with
      | Pkg.Link { pkg; _ } ->
        Alcotest.(check bool) (p.Pkg.id ^ " exit retargeted across packages") true (pkg <> k)
      | _ -> Alcotest.failf "%s exit not linked" p.Pkg.id)
    final

let test_group_rank_and_apply () =
  let groups = Linking.group_packages [ pkg_f; pkg_t ] in
  match groups with
  | [ g ] ->
    Alcotest.(check string) "single group" "f" g.Linking.root;
    (* Each package: 1 incoming link / 1 branch -> ratios 1.0, 1.0 ->
       rank 1 + 1*1 = 2. *)
    Alcotest.(check (float 1e-9)) "rank" 2.0 g.Linking.rank;
    let final = Linking.apply groups in
    check_exits_linked final;
    (* Applying links leaves its input as it was. *)
    List.iter
      (fun (p : Pkg.t) ->
        match (exit_of p).Pkg.term with
        | Pkg.Exit_jump _ -> ()
        | _ -> Alcotest.failf "%s input retargeted" p.Pkg.id)
      g.Linking.ordered
  | _ -> Alcotest.fail "expected one group"

let test_no_linking_keeps_exits () =
  let groups = Linking.group_packages ~linking:false [ pkg_f; pkg_t ] in
  List.iter
    (fun (g : Linking.group) -> Alcotest.(check int) "no links" 0 (List.length g.Linking.links))
    groups;
  let final = Linking.apply groups in
  List.iter
    (fun p ->
      match (exit_of p).Pkg.term with
      | Pkg.Exit_jump _ -> ()
      | _ -> Alcotest.fail "exit disturbed without linking")
    final

let test_emit_leftmost_claims_launch () =
  (* Both packages enter at original address 99; the left-most package
     of the chosen ordering owns the patch. *)
  let img = Program.layout (Progs.sum_to_n 200) in
  (* Address 99 must exist in the image for the patch; sum_to_n 200 is
     tiny, so grow it artificially by picking a real address. *)
  let addr = img.Image.entry in
  let retarget p =
    {
      p with
      Pkg.entries = [ (fst (List.hd p.Pkg.entries), addr) ];
      blocks =
        Array.map
          (fun (b : Pkg.block) ->
            match b.Pkg.term with
            | Pkg.Exit_jump _ -> { b with Pkg.term = Pkg.Exit_jump 0 }
            | _ -> b)
          p.Pkg.blocks;
    }
  in
  let result = Emit.of_groups img (Linking.group_packages [ retarget pkg_f; retarget pkg_t ]) in
  (match result.Emit.launch_patches with
  | [ (orig, target) ] ->
    Alcotest.(check int) "patched at shared entry" addr orig;
    (* The winner is the left-most package of the group's ordering. *)
    let first = List.hd (List.hd result.Emit.groups).Linking.ordered in
    (match Image.sym_at result.Emit.image target with
    | Some s -> Alcotest.(check string) "owner" first.Pkg.id s.Image.name
    | None -> Alcotest.fail "launch target outside packages")
  | l -> Alcotest.failf "expected one launch patch, got %d" (List.length l))

let test_rank_of_ratios_paper_example () =
  (* Figure 7(c): ratios 2/5, 2/5, 3/6 rank to 0.64. *)
  Alcotest.(check (float 1e-9)) "paper rank" 0.64
    (Linking.rank_of_ratios [ 0.4; 0.4; 0.5 ]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Linking.rank_of_ratios []);
  Alcotest.(check (float 1e-9)) "single" 0.25 (Linking.rank_of_ratios [ 0.25 ])

(* The emitted symbol of each package holds its blocks in its order:
   every body verbatim, then its terminator, plus a jump wherever the
   fall-through successor is not the next block; every transfer to a
   block of the same package lands on that block's first word. *)
let test_linearize_preserves_blocks () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:3) in
  let _, _, _, result = pipeline img in
  let image = result.Emit.image in
  Alcotest.(check bool) "packages emitted" true (result.Emit.packages <> []);
  List.iter
    (fun (p : Pkg.t) ->
      let sym = Option.get (Image.find_sym image p.Pkg.id) in
      let pc = ref sym.Image.start in
      let starts = Array.make (Array.length p.Pkg.blocks) (-1) and jumps = ref [] in
      let take what ok =
        let i = Image.fetch image !pc in
        if not (ok i) then
          Alcotest.failf "%s at 0x%x: expected %s, got %s" p.Pkg.id !pc what (Instr.to_string i);
        incr pc;
        i
      in
      let to_block j i =
        match Instr.target i with
        | Some (Instr.Addr a) -> jumps := (j, a) :: !jumps
        | _ -> Alcotest.failf "%s: unresolved transfer to block %d" p.Pkg.id j
      in
      let is_jmp = function Instr.Jmp _ -> true | _ -> false in
      let order = p.Pkg.order in
      Array.iteri
        (fun k j ->
          let b = p.Pkg.blocks.(j) in
          starts.(j) <- !pc;
          List.iter (fun x -> ignore (take (Instr.to_string x) (( = ) x))) b.Pkg.body;
          let fall l =
            if not (k + 1 < Array.length order && order.(k + 1) = l) then
              to_block l (take "jmp" is_jmp)
          in
          match b.Pkg.term with
          | Pkg.Fall l -> fall l
          | Pkg.Goto l -> to_block l (take "jmp" is_jmp)
          | Pkg.Link _ -> ignore (take "link jump" is_jmp)
          | Pkg.Exit_jump a ->
            ignore (take "exit jump" (( = ) (Instr.Jmp { target = Instr.Addr a })))
          | Pkg.Branch { cond; taken; fall = l; _ } ->
            to_block taken
              (take "br" (function Instr.Br { cond = c; _ } -> c = cond | _ -> false));
            fall l
          | Pkg.Call_orig { callee; next } ->
            ignore (take "call" (( = ) (Instr.Call { target = Instr.Addr callee })));
            fall next
          | Pkg.Inlined_call { ra_value; prologue } ->
            ignore
              (take "la" (function
                | Instr.La { target = Instr.Addr a; _ } -> a = ra_value
                | _ -> false));
            to_block prologue (take "jmp" is_jmp)
          | Pkg.Return -> ignore (take "ret" (( = ) Instr.Ret))
          | Pkg.Stop -> ignore (take "halt" (( = ) Instr.Halt)))
        order;
      Alcotest.(check int) (p.Pkg.id ^ " fills its symbol") (sym.Image.start + sym.Image.len) !pc;
      List.iter
        (fun (j, a) ->
          let what = p.Pkg.id ^ " transfer to " ^ p.Pkg.blocks.(j).Pkg.label in
          Alcotest.(check int) what starts.(j) a)
        !jumps)
    result.Emit.packages

let test_emit_image_validates () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:3) in
  let _, _, _, result = pipeline img in
  match Image.validate result.Emit.image with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_code_expansion_is_moderate () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:3) in
  let _, _, _, result = pipeline img in
  let orig = Image.size img in
  let expansion = Vp_util.Stats.pct result.Emit.package_instructions orig in
  (* Small phased programs replicate their hot loops; the expansion
     must stay well below whole-program duplication. *)
  Alcotest.(check bool)
    (Printf.sprintf "expansion %.1f%% < 100%%" expansion)
    true (expansion < 100.0)

(* Emission places every package in one pass over one array: growing
   an image by 1k package sections stays cheap (appending section by
   section once recopied the code array and symbol list each time). *)
let test_emit_1k_packages_linear_time () =
  let img = Program.layout (Progs.sum_to_n 100) in
  let pkgs =
    List.init 1000 (fun i ->
        let id = Printf.sprintf "pkg%04d" i in
        {
          (package ~region_id:i id
             [ mini_block (id ^ "$b") (List.init 63 (fun _ -> Instr.Nop)) Pkg.Return ])
          with
          Pkg.root = id;
        })
  in
  let t0 = Sys.time () in
  let result = Emit.of_groups img (Linking.group_packages pkgs) in
  let elapsed = Sys.time () -. t0 in
  let image = result.Emit.image in
  Alcotest.(check int) "all sections placed" (Image.size img + (64 * 1000)) (Image.size image);
  (match Image.validate image with Ok () -> () | Error e -> Alcotest.fail e);
  List.iteri
    (fun i (p : Pkg.t) ->
      match Image.find_sym image p.Pkg.id with
      | Some s -> Alcotest.(check int) (p.Pkg.id ^ " contiguous") (Image.size img + (64 * i)) s.Image.start
      | None -> Alcotest.failf "%s not emitted" p.Pkg.id)
    pkgs;
  Alcotest.(check bool)
    (Printf.sprintf "1000 sections emitted in %.3f s" elapsed)
    true (elapsed < 1.0)

(* Eight packages sharing one root: past the exhaustive-search cap of
   six, [group_packages] must fall back to the greedy rank-based
   ordering instead of silently keeping input order.  Even-numbered
   packages specialise the fall-through direction (hot copy of 200,
   cold exit to 300); odd ones the taken direction — so every link
   crosses parities, and the all-evens-first input order ranks 4.0
   while interleavings rank strictly higher. *)
let mk_link_pkg i =
  let id = Printf.sprintf "pkg%d" i in
  let f_side = i mod 2 = 0 in
  let hot_orig = if f_side then 200 else 300 in
  let cold_target = if f_side then 300 else 200 in
  let b = 0 and hot = 1 and x = 2 in
  package id ~region_id:i ~entries:[ (b, 99) ]
    ~sites:
      [
        {
          Pkg.orig_pc = 100;
          site_context = [];
          block = b;
          bias = (if f_side then Pkg.F else Pkg.T);
          cold_exit = Some x;
          cold_target = Some cold_target;
        };
      ]
    [
      mini_block ~orig:99 (id ^ "$b") []
        (Pkg.Branch
           {
             cond = Op.Ge;
             src1 = t0;
             src2 = t1;
             taken = (if f_side then x else hot);
             fall = (if f_side then hot else x);
           });
      mini_block ~orig:hot_orig (id ^ "$h") [] Pkg.Return;
      mini_block ~exit_:true (id ^ "$x") [] (Pkg.Exit_jump cold_target);
    ]

let test_large_group_greedy_fallback () =
  let pkgs = List.map mk_link_pkg [ 0; 2; 4; 6; 1; 3; 5; 7 ] in
  match Linking.group_packages pkgs with
  | [ g ] ->
    Alcotest.(check string) "root" "f" g.Linking.root;
    Alcotest.(check (list string))
      "ordering is a permutation of the input"
      (List.sort compare (List.map (fun (p : Pkg.t) -> p.Pkg.id) pkgs))
      (List.sort compare (List.map (fun (p : Pkg.t) -> p.Pkg.id) g.Linking.ordered));
    Alcotest.(check int) "every site linked" 8 (List.length g.Linking.links);
    let parity k =
      let id = (List.nth g.Linking.ordered k).Pkg.id in
      int_of_string (String.sub id 3 1) mod 2
    in
    List.iter
      (fun (l : Linking.link) ->
        Alcotest.(check bool) "link crosses specialisations" true
          (parity l.Linking.from_pkg <> parity l.Linking.to_pkg))
      g.Linking.links;
    Alcotest.(check bool)
      (Printf.sprintf "greedy rank %.2f beats input order's 4.0" g.Linking.rank)
      true
      (g.Linking.rank > 4.0);
    check_exits_linked (Linking.apply [ g ])
  | gs -> Alcotest.failf "expected one group, got %d" (List.length gs)

(* The ordering search as it stood before linking ranked orderings in
   place — list permutations, a link list per candidate, and
   [copy_block] scans — kept as the oracle the production search must
   match bit for bit, on today's package form: blocks by position, and
   links naming packages by their position in the candidate order. *)
module Reference = struct
  module Pkg = struct
    include Pkg

    let copy_block t context addr =
      Array.find_opt
        (fun j ->
          let b = t.blocks.(j) in
          (not b.is_exit) && b.context = context && b.orig_addr = addr)
        t.order
  end

  type link = Linking.link = {
    from_pkg : int;
    site : Pkg.site;
    to_pkg : int;
    to_block : int;
  }

  let rank_of_ratios = function
    | [] -> 0.0
    | r :: rest ->
      let acc = ref r in
      let weight = ref r in
      List.iter
        (fun ri ->
          weight := !weight *. ri;
          acc := !acc +. !weight)
        rest;
      !acc

  (* A site with a cold direction links to the first package rightward
     (wrapping, excluding the source) holding a copy of the cold target
     under the identical inline context.

     The ordering search re-ranks the same package set under many
     candidate orders, so the [Pkg.copy_block] scans — the expensive,
     order-independent part — are memoised once per group: for each
     linkable site, [copies] records each package's copy (indexed by
     the package's position in the base array). *)
  type site_memo = {
    site : Pkg.site;
    copies : int option array;  (* by base index; [None] at the owner *)
  }

  (* Per base package index, its linkable sites in declaration order. *)
  let memoize_sites arr =
    let n = Array.length arr in
    Array.mapi
      (fun i (p : Pkg.t) ->
        List.filter_map
          (fun (site : Pkg.site) ->
            match (site.Pkg.cold_exit, site.Pkg.cold_target, site.Pkg.bias) with
            | Some _, Some target, (Pkg.T | Pkg.F) ->
              let copies =
                Array.init n (fun j ->
                    if j = i then None
                    else Pkg.copy_block arr.(j) site.Pkg.site_context target)
              in
              Some { site; copies }
            | _ -> None)
          p.Pkg.sites)
      arr

  (* Resolve links for one candidate order ([perm] maps position to base
     index), walking packages in candidate order so the link list is
     identical to a direct scan of the reordered list. *)
  let links_for_permutation site_memos perm =
    let n = Array.length perm in
    let links = ref [] in
    Array.iteri
      (fun posn i ->
        List.iter
          (fun m ->
            let rec scan k =
              if k >= n - 1 then ()
              else
                let q = (posn + 1 + k) mod n in
                match m.copies.(perm.(q)) with
                | Some to_block ->
                  links := { from_pkg = posn; site = m.site; to_pkg = q; to_block } :: !links
                | None -> scan (k + 1)
            in
            scan 0)
          site_memos.(i))
      perm;
    List.rev !links

  let rank_of_links arr branch_counts perm links =
    let n = Array.length arr in
    let incoming = Array.make n 0 in
    List.iter
      (fun l -> let j = perm.(l.to_pkg) in incoming.(j) <- incoming.(j) + 1)
      links;
    let ratios =
      Array.to_list
        (Array.map
           (fun i ->
             if branch_counts.(i) = 0 then 0.0
             else float_of_int incoming.(i) /. float_of_int branch_counts.(i))
           perm)
    in
    rank_of_ratios ratios

  let identity_perm n = Array.init n (fun i -> i)

  let links_for_ordering ordered =
    let arr = Array.of_list ordered in
    links_for_permutation (memoize_sites arr) (identity_perm (Array.length arr))

  (* Index permutations, leftmost element varying slowest; the head is
     the identity, which makes the fold below keep input order on ties. *)
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

  (* Beyond the exhaustive-search cap, build the order greedily: at each
     position try every remaining package (rest kept in input order) and
     keep the one whose completed ordering ranks highest. *)
  let greedy_perm eval n =
    let chosen_rev = ref [] in
    let remaining = ref (List.init n (fun i -> i)) in
    for _ = 1 to n do
      let best =
        List.fold_left
          (fun best cand ->
            let perm =
              Array.of_list
                (List.rev_append !chosen_rev
                   (cand :: List.filter (fun j -> j <> cand) !remaining))
            in
            let rank, _ = eval perm in
            match best with
            | Some (best_rank, _) when best_rank >= rank -> best
            | _ -> Some (rank, cand))
          None !remaining
      in
      let cand = match best with Some (_, c) -> c | None -> assert false in
      chosen_rev := cand :: !chosen_rev;
      remaining := List.filter (fun j -> j <> cand) !remaining
    done;
    Array.of_list (List.rev !chosen_rev)

  let max_exhaustive = 6

  let best_ordering pkgs =
    let arr = Array.of_list pkgs in
    let n = Array.length arr in
    let site_memos = memoize_sites arr in
    let branch_counts = Array.map Pkg.branch_count arr in
    let eval perm =
      let links = links_for_permutation site_memos perm in
      (rank_of_links arr branch_counts perm links, links)
    in
    let greedy = n > max_exhaustive in
    let candidates =
      if not greedy then
        List.map Array.of_list (permutations (List.init n (fun i -> i)))
      else begin
        Logs.warn (fun m ->
            m
              "Linking: %d packages share root %s; permutation search is capped \
               at %d, falling back to greedy rank-based ordering"
              n arr.(0).Pkg.root max_exhaustive);
        [ identity_perm n; greedy_perm eval n ]
      end
    in
    let scored =
      List.map
        (fun perm ->
          let rank, links = eval perm in
          (rank, perm, links))
        candidates
    in
    let best_rank, best_perm, best_links =
      List.fold_left
        (fun (best_rank, best_perm, best_links) (rank, perm, links) ->
          if rank > best_rank then (rank, perm, links)
          else (best_rank, best_perm, best_links))
        (match scored with
        | first :: _ -> first
        | [] -> (0.0, identity_perm n, []))
        scored
    in
    ( best_rank,
      Array.to_list (Array.map (fun i -> arr.(i)) best_perm),
      best_links,
      List.length candidates,
      greedy )
end

(* A random group sharing one root: block copies drawn from few inline
   contexts and addresses (so contexts repeat, packages share copies,
   and one package may hold two copies of a block), exit blocks that
   must never be link targets, sites of every bias, sites whose cold
   target no package copies, and packages without sites (zero ratios,
   so ties are common). *)
let random_group rng n =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let contexts = [ []; [ 10 ]; [ 10; 20 ]; [ 30 ] ] and addrs = [ 100; 200; 300; 400 ] in
  List.init n (fun i ->
      let id = Printf.sprintf "pkg%d" i in
      let blocks =
        List.init
          (1 + Random.State.int rng 6)
          (fun k ->
            mini_block ~exit_:(Random.State.int rng 5 = 0) ~orig:(pick addrs)
              (Printf.sprintf "%s$%d" id k) [] Pkg.Return
            |> fun b -> { b with Pkg.context = pick contexts })
      in
      let sites =
        List.init (Random.State.int rng 4) (fun k ->
            {
              Pkg.orig_pc = 1000 + k;
              site_context = pick contexts;
              block = 0;
              bias = pick [ Pkg.T; Pkg.F; Pkg.U; Pkg.Neither ];
              cold_exit = (if Random.State.int rng 6 = 0 then None else Some 0);
              cold_target =
                (if Random.State.int rng 6 = 0 then None else Some (pick (999 :: addrs)));
            })
      in
      package id ~region_id:i ~sites blocks)

let check_linking_parity pkgs =
  let links_repr links =
    List.map
      (fun (l : Linking.link) ->
        Printf.sprintf "%d@%x>%d:%d" l.Linking.from_pkg l.Linking.site.Pkg.orig_pc
          l.Linking.to_pkg l.Linking.to_block)
      links
  in
  let ids ps = List.map (fun (p : Pkg.t) -> p.Pkg.id) ps in
  let rank, ordered, links, ranked, _ = Reference.best_ordering pkgs in
  match Linking.group_packages_with_stats pkgs with
  | [ g ], stats ->
    Alcotest.(check (list string)) "order" (ids ordered) (ids g.Linking.ordered);
    Alcotest.(check (list string)) "links" (links_repr links) (links_repr g.Linking.links);
    Alcotest.(check int64) "rank bits" (Int64.bits_of_float rank)
      (Int64.bits_of_float g.Linking.rank);
    Alcotest.(check int) "orderings ranked" ranked stats.Linking.orderings_ranked;
    Alcotest.(check int) "links resolved" (List.length links) stats.Linking.links_resolved;
    Alcotest.(check (list string)) "links of the input order" (links_repr (Reference.links_for_ordering pkgs))
      (links_repr (Linking.links_for_ordering pkgs));
    true
  | gs, _ -> Alcotest.failf "expected one group, got %d" (List.length gs)

let prop_linking_matches_reference =
  (* No shrinking: QCheck shrinks [n] below the range, to groups of
     fewer than two packages, which never run the search. *)
  QCheck.Test.make ~name:"linking matches the reference search" ~count:300
    QCheck.(set_shrink Shrink.nil (pair (int_range 2 9) int))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let ratios = List.init n (fun _ -> Random.State.float rng 2.0) in
      Alcotest.(check int64) "rank_of_ratios bits"
        (Int64.bits_of_float (Reference.rank_of_ratios ratios))
        (Int64.bits_of_float (Linking.rank_of_ratios ratios));
      check_linking_parity (random_group rng n))

let test_linking_parity_large_group () =
  ignore (check_linking_parity (random_group (Random.State.make [| 63 |]) 64));
  ignore (check_linking_parity (List.map mk_link_pkg [ 0; 2; 4; 6; 1; 3; 5; 7 ]))

(* The index form's checks: [Pkg.validate] names every position that
   names no live block of the package, and a block other than an exit
   that leaves it. *)
let test_validate_rejects () =
  let rejects what (p : Pkg.t) expected =
    match Pkg.validate p with
    | Ok () -> Alcotest.failf "%s: accepted" what
    | Error e -> Alcotest.(check string) what expected e
  in
  Alcotest.(check bool) "sound fixture" true (Pkg.validate pkg_f = Ok ());
  let with_term j term =
    let blocks = Array.copy pkg_f.Pkg.blocks in
    blocks.(j) <- { (blocks.(j)) with Pkg.term };
    { pkg_f with Pkg.blocks }
  in
  let branch taken fall = Pkg.Branch { cond = Op.Ge; src1 = t0; src2 = t1; taken; fall } in
  let site = List.hd pkg_f.Pkg.sites in
  rejects "successor" (with_term 0 (branch 7 1)) "successor 7 of pkgF$b out of range";
  rejects "absorbed successor" { pkg_f with Pkg.order = [| 0; 2 |] }
    "successor pkgF$ft of pkgF$b is not in the order";
  rejects "entry" { pkg_f with Pkg.entries = [ (5, 99) ] } "entry 5 out of range";
  rejects "site block" { pkg_f with Pkg.sites = [ { site with Pkg.block = -1 } ] }
    "site block -1 out of range";
  rejects "cold exit" { pkg_f with Pkg.sites = [ { site with Pkg.cold_exit = Some 3 } ] }
    "cold exit 3 out of range";
  rejects "exit jump" (with_term 1 (Pkg.Exit_jump 300)) "pkgF$ft leaves the package";
  rejects "link" (with_term 1 (Pkg.Link { pkg = 1; block = 1; label = "pkgT$tk" }))
    "pkgF$ft leaves the package"

(* An emission error carries the package to blame, and the driver's
   ladder drops exactly that package: the rest are emitted and
   verified.  The corrupt block is an extra exit linking into a package
   outside its group, which screening cannot see and no site links. *)
module Driver = Vacuum.Driver

let emission_fixture =
  lazy
    (let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:3) in
     let _, _, pkgs, _ = pipeline img in
     (img, pkgs))

let test_emit_link_outside_group () =
  let img, pkgs = Lazy.force emission_fixture in
  match pkgs with
  | p :: rest ->
    let n = Array.length p.Pkg.blocks in
    let stray =
      {
        (exit_of p) with
        Pkg.label = p.Pkg.id ^ "$stray";
        term = Pkg.Link { pkg = 99; block = 0; label = "elsewhere" };
      }
    in
    let bad =
      {
        p with
        Pkg.blocks = Array.append p.Pkg.blocks [| stray |];
        order = Array.append p.Pkg.order [| n |];
      }
    in
    let pkgs = bad :: rest in
    Alcotest.(check bool) "screening accepts it" true (Pkg.validate bad = Ok ());
    (match Emit.of_groups img (Linking.group_packages pkgs) with
    | _ -> Alcotest.fail "emission succeeded"
    | exception Emit.Rejected (q, e) ->
      Alcotest.(check bool) "carries its package" true (q == bad);
      Alcotest.(check string) "stage" "emit" e.Vp_util.Error.stage;
      Alcotest.(check (option string)) "label" (Some p.Pkg.id) e.Vp_util.Error.label;
      Alcotest.(check bool) "message" true
        (Option.is_some (Vp_util.Io.find_sub e.Vp_util.Error.what "outside its group")));
    let a = Driver.assemble ~original:img pkgs in
    (match a.Driver.drops with
    | [ { Driver.rung = Driver.Drop_package; error } ] ->
      Alcotest.(check string) "dropped at" "emit" error.Vp_util.Error.stage;
      Alcotest.(check (option string)) "drop label" (Some p.Pkg.id) error.Vp_util.Error.label
    | ds -> Alcotest.failf "expected one package drop, got %d drops" (List.length ds));
    let ids ps = List.sort compare (List.map (fun (p : Pkg.t) -> p.Pkg.id) ps) in
    Alcotest.(check (list string)) "emitted" (ids rest) (ids a.Driver.assembled.Emit.packages);
    Alcotest.(check bool) "emitted image verified" true (Vp_package.Verify.ok a.Driver.checks)
  | [] -> Alcotest.fail "expected packages"

let prop_rewrite_equivalence_random =
  QCheck.Test.make ~name:"rewritten binaries compute identical results" ~count:10
    QCheck.(pair (int_range 500 2500) (int_range 2 4))
    (fun (iters, repeats) ->
      let img = Program.layout (Progs.two_phase ~iters_per_phase:iters ~repeats) in
      let original, _, _, result = pipeline img in
      let rewritten = Emulator.run_backend result.Emit.image in
      rewritten.Emulator.halted
      && original.Emulator.result = rewritten.Emulator.result
      && original.Emulator.checksum = rewritten.Emulator.checksum)

let () =
  Alcotest.run "vp_package"
    [
      ( "rewrite",
        [
          Alcotest.test_case "two-phase equivalence" `Quick test_rewrite_two_phase;
          Alcotest.test_case "recursive equivalence" `Quick test_rewrite_recursive;
          Alcotest.test_case "biased-branch equivalence" `Quick test_rewrite_biased_branch;
          Alcotest.test_case "without linking" `Quick test_rewrite_without_linking;
          Alcotest.test_case "without inference" `Quick test_rewrite_without_inference;
          QCheck_alcotest.to_alcotest prop_rewrite_equivalence_random;
        ] );
      ( "structure",
        [
          Alcotest.test_case "package structure" `Quick test_package_structure;
          Alcotest.test_case "partial inlining" `Quick test_partial_inlining_happens;
          Alcotest.test_case "roots" `Quick test_roots_self_recursive;
          Alcotest.test_case "prune views" `Quick test_prune_view_consistency;
          Alcotest.test_case "linearize" `Quick test_linearize_preserves_blocks;
          Alcotest.test_case "emit validates" `Quick test_emit_image_validates;
          Alcotest.test_case "expansion moderate" `Quick test_code_expansion_is_moderate;
          Alcotest.test_case "validate rejects" `Quick test_validate_rejects;
        ] );
      ( "linking",
        [
          Alcotest.test_case "rank formula" `Quick test_rank_of_ratios_paper_example;
          Alcotest.test_case "cross links" `Quick test_links_cross_specialisations;
          Alcotest.test_case "group rank and apply" `Quick test_group_rank_and_apply;
          Alcotest.test_case "no linking keeps exits" `Quick test_no_linking_keeps_exits;
          Alcotest.test_case "leftmost claims launch" `Quick test_emit_leftmost_claims_launch;
          Alcotest.test_case "greedy fallback past cap" `Quick
            test_large_group_greedy_fallback;
          QCheck_alcotest.to_alcotest prop_linking_matches_reference;
          Alcotest.test_case "parity past 62 packages" `Quick test_linking_parity_large_group;
        ] );
      ( "emit",
        [
          Alcotest.test_case "1k packages fast" `Quick test_emit_1k_packages_linear_time;
          Alcotest.test_case "link outside its group" `Quick test_emit_link_outside_group;
        ] );
    ]
