module Instr = Vp_isa.Instr
module Image = Vp_prog.Image
module Cfg = Vp_cfg.Cfg
module Liveness = Vp_cfg.Liveness

type violation = {
  pkg : string option;
  what : string;
  addr : int option;
  label : string option;
}

type report = {
  packages : int;
  checked_instructions : int;
  exits_checked : int;
  patches_checked : int;
  links_checked : int;
  violations : violation list;
}

let ok r = r.violations = []

let pp_violation ppf v =
  let ctx =
    List.filter_map Fun.id
      [
        Option.map (Printf.sprintf "pkg %s") v.pkg;
        Option.map (Printf.sprintf "addr 0x%x") v.addr;
        Option.map (Printf.sprintf "label %s") v.label;
      ]
  in
  Format.fprintf ppf "%s%s" v.what
    (match ctx with [] -> "" | c -> " (" ^ String.concat ", " c ^ ")")

let pp_report ppf r =
  Format.fprintf ppf
    "verified %d package(s): %d instructions, %d side exits, %d launch \
     patches, %d links — %s"
    r.packages r.checked_instructions r.exits_checked r.patches_checked
    r.links_checked
    (if ok r then "sound"
     else Printf.sprintf "%d violation(s)" (List.length r.violations));
  List.iter (fun v -> Format.fprintf ppf "@.  - %a" pp_violation v) r.violations

(* Function CFGs and liveness of the ORIGINAL image, from the
   per-image memo.  The rewritten image is useless here: launch patches
   have already overwritten block terminators in it. *)
let oracle_at syms original addr =
  match Image.sym_in syms addr with
  | None -> None
  | Some sym ->
    let cfg = Vp_cfg.Cfg_memo.cfg original sym in
    Some (cfg, Vp_cfg.Cfg_memo.liveness cfg)

(* The left-most package of each group claims each launch address
   first — the same rule Emit applies, recomputed independently. *)
let expected_claims groups =
  let claimed = Hashtbl.create 16 in
  List.iter
    (fun (g : Linking.group) ->
      List.iter
        (fun (p : Pkg.t) ->
          List.iter
            (fun (_, orig) ->
              if not (Hashtbl.mem claimed orig) then
                Hashtbl.replace claimed orig p.Pkg.id)
            p.Pkg.entries)
        g.Linking.ordered)
    groups;
  claimed

let check ~original (r : Emit.result) =
  let violations = ref [] in
  let push ?pkg ?addr ?label fmt =
    Printf.ksprintf
      (fun what -> violations := { pkg; what; addr; label } :: !violations)
      fmt
  in
  let image = r.Emit.image in
  let limit = original.Image.orig_limit in
  if image.Image.orig_limit <> limit then
    push "rewritten image moved orig_limit (%d -> %d)" limit
      image.Image.orig_limit;

  (* 1. Per-package structural validity. *)
  List.iter
    (fun (p : Pkg.t) ->
      match Pkg.validate p with
      | Ok () -> ()
      | Error e -> push ~pkg:p.Pkg.id "package invalid: %s" e)
    r.Emit.packages;

  (* 2. Control-flow closure of the appended code. *)
  let size = Image.size image in
  let syms = Image.sym_table image in
  let pkg_at addr =
    Option.map (fun (s : Image.sym) -> s.Image.name) (Image.sym_in syms addr)
  in
  for addr = limit to size - 1 do
    match Image.fetch image addr with
    | Instr.Br { target; _ } | Instr.Jmp { target } | Instr.Call { target } | Instr.La { target; _ }
      as i -> (
      match target with
      | Instr.Label l ->
        push ?pkg:(pkg_at addr) ~addr ~label:l "unresolved label in emitted code"
      | Instr.Addr a ->
        if a < 0 || a >= size then
          push ?pkg:(pkg_at addr) ~addr "control target 0x%x out of range" a
        else if Instr.is_control i && a >= limit && Image.sym_in syms a = None
        then push ?pkg:(pkg_at addr) ~addr "control target 0x%x in no package" a)
    | _ -> ()
  done;

  (* 3. Side-exit liveness.  Exit blocks that linking retargeted are
     [Goto] terminators and are covered by closure + link agreement;
     the ones still leaving to original code carry the obligation that
     their recorded dummy consumers cover everything live there. *)
  let exits = ref 0 in
  let original_syms = Image.sym_table original in
  List.iter
    (fun (p : Pkg.t) ->
      Array.iter
        (fun j ->
          let b = p.Pkg.blocks.(j) in
          match b.Pkg.term with
          | Pkg.Exit_jump target ->
            incr exits;
            if target < 0 || target >= limit then
              push ~pkg:p.Pkg.id ~label:b.Pkg.label ~addr:target
                "side exit leaves the original program"
            else (
              match oracle_at original_syms original target with
              | None ->
                push ~pkg:p.Pkg.id ~label:b.Pkg.label ~addr:target
                  "side exit targets no original function"
              | Some (cfg, live) ->
                (match Cfg.block_at cfg target with
                | Some blk when Cfg.start cfg blk = target ->
                  let dropped =
                    Liveness.live_in live blk land lnot b.Pkg.live_out
                  in
                  if dropped <> 0 then
                    push ~pkg:p.Pkg.id ~label:b.Pkg.label ~addr:target
                      "side exit drops live registers [%s]"
                      (String.concat ","
                         (List.map Vp_isa.Reg.name (Vp_isa.Reg.of_mask dropped)))
                | _ ->
                  push ~pkg:p.Pkg.id ~label:b.Pkg.label ~addr:target
                    "side exit does not target a block leader"))
          | _ -> ())
        p.Pkg.order)
    r.Emit.packages;

  (* 4. Launch patches: equal to the recomputed claim set, each one a
     jump into the claiming package, everything else untouched. *)
  let claims = expected_claims r.Emit.groups in
  let patch_tbl = Hashtbl.create 16 in
  List.iter
    (fun (orig, target) -> Hashtbl.replace patch_tbl orig target)
    r.Emit.launch_patches;
  if Hashtbl.length patch_tbl <> List.length r.Emit.launch_patches then
    push "duplicate launch-patch addresses";
  Hashtbl.iter
    (fun orig _owner ->
      if not (Hashtbl.mem patch_tbl orig) then
        push ~addr:orig "claimed launch point never patched")
    claims;
  List.iter
    (fun (orig, target) ->
      (match Hashtbl.find_opt claims orig with
      | None -> push ~addr:orig "launch patch at unclaimed address"
      | Some owner ->
        (match Image.sym_in syms target with
        | Some s when s.Image.name = owner && target >= limit -> ()
        | Some s ->
          push ~pkg:owner ~addr:orig
            "launch patch lands in %s, not the claiming package"
            s.Image.name
        | None -> push ~pkg:owner ~addr:orig "launch patch lands in no package"));
      if orig < 0 || orig >= limit then
        push ~addr:orig "launch patch outside the original program"
      else if Image.fetch image orig <> Instr.Jmp { target = Instr.Addr target }
      then push ~addr:orig "patched instruction is not the recorded jump")
    r.Emit.launch_patches;
  (* Reversibility: the patch set is exactly the original-code delta.
     Unpatched words are shared with the original, so physical
     equality settles nearly all of them. *)
  for addr = 0 to limit - 1 do
    let w = Image.fetch image addr and o = Image.fetch original addr in
    if w != o && w <> o && not (Hashtbl.mem patch_tbl addr) then
      push ~addr "original code modified outside the launch-patch set"
  done;

  (* 5. Link agreement: shared root, and each link lands on a live
     copy of the promised address under the promised inline context.
     The final packages are the groups' packages in emission order. *)
  let links = ref 0 in
  let rest = ref r.Emit.packages in
  List.iter
    (fun (g : Linking.group) ->
      let given = Array.of_list g.Linking.ordered in
      Array.iter
        (fun (p : Pkg.t) ->
          if p.Pkg.root <> g.Linking.root then
            push ~pkg:p.Pkg.id "package root %s disagrees with group root %s"
              p.Pkg.root g.Linking.root)
        given;
      let final =
        Array.map
          (fun _ ->
            match !rest with
            | p :: tl ->
              rest := tl;
              Some (p, Pkg.live p)
            | [] -> None)
          given
      in
      List.iter
        (fun (l : Linking.link) ->
          incr links;
          let from =
            if l.Linking.from_pkg >= 0 && l.Linking.from_pkg < Array.length given then
              Some given.(l.Linking.from_pkg).Pkg.id
            else None
          in
          let k = l.Linking.to_pkg and j = l.Linking.to_block in
          match if k >= 0 && k < Array.length final then final.(k) else None with
          | None -> push ?pkg:from "link targets missing package %d" k
          | Some (dst, live) ->
            if j < 0 || j >= Array.length live || not live.(j) then
              push ~pkg:dst.Pkg.id ~label:(Pkg.name dst j) "link target block missing"
            else begin
              let b = dst.Pkg.blocks.(j) in
              let site = l.Linking.site in
              (match site.Pkg.cold_target with
              | Some cold when b.Pkg.orig_addr <> cold ->
                push ~pkg:dst.Pkg.id ~label:b.Pkg.label ~addr:b.Pkg.orig_addr
                  "link lands on 0x%x, promised 0x%x" b.Pkg.orig_addr cold
              | _ -> ());
              if b.Pkg.context <> site.Pkg.site_context then
                push ~pkg:dst.Pkg.id ~label:b.Pkg.label "link crosses inline contexts"
            end)
        g.Linking.links)
    r.Emit.groups;

  {
    packages = List.length r.Emit.packages;
    checked_instructions = Int.max 0 (size - limit);
    exits_checked = !exits;
    patches_checked = List.length r.Emit.launch_patches;
    links_checked = !links;
    violations = List.rev !violations;
  }
