module Instr = Vp_isa.Instr
module Image = Vp_prog.Image

type result = {
  image : Image.t;
  packages : Pkg.t list;
  groups : Linking.group list;
  launch_patches : (int * int) list;
  package_instructions : int;
  branch_map : (int * int) list;
}

let failf = Vp_util.Error.failf

(* The blocks of a run are numbered in emission order; a package's
   blocks end before [stop].  A transfer to the next block of the same
   package falls through; any other costs a jump. *)
let jumps (blocks : Pkg.block array) ~stop g l =
  if g + 1 < stop && String.equal blocks.(g + 1).Pkg.label l then 0 else 1

let term_length blocks ~stop g =
  match blocks.(g).Pkg.term with
  | Pkg.Fall l -> jumps blocks ~stop g l
  | Pkg.Branch { fall = l; _ } | Pkg.Call_orig { next = l; _ } -> 1 + jumps blocks ~stop g l
  | Pkg.Inlined_call _ -> 2
  | Pkg.Goto _ | Pkg.Return | Pkg.Exit_jump _ | Pkg.Stop -> 1

let of_groups ?(transform = fun ~protected:_ p -> p) image groups =
  (* Blocks targeted by cross-package links have predecessors the
     transform cannot see; it must not absorb or shorten them.  Links
     only target packages of their own group. *)
  let final =
    List.concat_map
      (fun (g : Linking.group) ->
        let protected (p : Pkg.t) =
          List.filter_map
            (fun (l : Linking.link) ->
              if String.equal l.Linking.to_pkg p.Pkg.id then Some l.Linking.to_label else None)
            g.Linking.links
        in
        List.map (fun p -> transform ~protected:(protected p) p) (Linking.apply [ g ]))
      groups
  in
  let pkgs = Array.of_list (List.map (fun (p : Pkg.t) -> (p, Array.of_list p.Pkg.blocks)) final) in
  let np = Array.length pkgs in
  let blocks = Array.concat (Array.to_list (Array.map snd pkgs)) in
  let nb = Array.length blocks in
  let first = Array.make (np + 1) 0 in
  Array.iteri (fun i (_, bs) -> first.(i + 1) <- first.(i) + Array.length bs) pkgs;
  (* First pass: number every label and place every block from its
     size — its body plus its terminator given its layout successor. *)
  let base = Image.size image in
  let labels = Pkg.Labels.create (Int.max 16 nb) in
  let addr = Array.make (nb + 1) base in
  for i = 0 to np - 1 do
    for g = first.(i) to first.(i + 1) - 1 do
      let b = blocks.(g) in
      let label = b.Pkg.label in
      if Pkg.Labels.mem labels label then failf ~stage:"emit" ~label "duplicate label %s" label;
      Pkg.Labels.add labels label g;
      addr.(g + 1) <- addr.(g) + List.length b.Pkg.body + term_length blocks ~stop:first.(i + 1) g
    done
  done;
  let total = addr.(nb) - base in
  let lookup label =
    match Pkg.Labels.find labels label with
    | g -> addr.(g)
    | exception Not_found -> failf ~stage:"emit" ~label "undefined label %s" label
  in
  (* Second pass: resolved instructions go straight into one copy of
     the original code, in stream order. *)
  let code = Array.make (base + total) Instr.Nop in
  Array.blit image.Image.code 0 code 0 base;
  let pc = ref base in
  let put i =
    code.(!pc) <- i;
    incr pc
  in
  let put_body = function
    | ( Instr.Br { target = Instr.Label _; _ }
      | Instr.Jmp { target = Instr.Label _ }
      | Instr.Call { target = Instr.Label _ }
      | Instr.La { target = Instr.Label _; _ } ) as i ->
      put (Instr.resolve lookup i)
    | i -> put i
  in
  let jump l = put (Instr.Jmp { target = Instr.Addr (lookup l) }) in
  let fall ~stop g l = if jumps blocks ~stop g l = 1 then jump l in
  for i = 0 to np - 1 do
    let stop = first.(i + 1) in
    for g = first.(i) to stop - 1 do
      let b = blocks.(g) in
      List.iter put_body b.Pkg.body;
      match b.Pkg.term with
      | Pkg.Fall l -> fall ~stop g l
      | Pkg.Goto l -> jump l
      | Pkg.Branch { cond; src1; src2; taken; fall = l } ->
        put (Instr.Br { cond; src1; src2; target = Instr.Addr (lookup taken) });
        fall ~stop g l
      | Pkg.Call_orig { callee; next } ->
        put (Instr.Call { target = Instr.Addr callee });
        fall ~stop g next
      | Pkg.Inlined_call { ra_value; prologue } ->
        put (Instr.La { dst = Vp_isa.Reg.ra; target = Instr.Addr ra_value });
        jump prologue
      | Pkg.Return -> put Instr.Ret
      | Pkg.Exit_jump a -> put (Instr.Jmp { target = Instr.Addr a })
      | Pkg.Stop -> put Instr.Halt
    done
  done;
  (* Launch points: left-most package of each group claims each entry
     address first. *)
  let claimed = Hashtbl.create 16 in
  List.iter
    (fun (g : Linking.group) ->
      List.iter
        (fun (p : Pkg.t) ->
          List.iter
            (fun (label, orig) ->
              if not (Hashtbl.mem claimed orig) then Hashtbl.replace claimed orig (lookup label))
            p.Pkg.entries)
        g.Linking.ordered)
    groups;
  let launch_patches =
    Hashtbl.fold (fun orig target acc -> (orig, target) :: acc) claimed []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  List.iter
    (fun (orig, target) ->
      if orig < 0 || orig >= Array.length code then
        failf ~stage:"image" ~pc:orig "patch: address 0x%x out of range" orig;
      code.(orig) <- Instr.Jmp { target = Instr.Addr target })
    launch_patches;
  let section i =
    let start = addr.(first.(i)) in
    { Image.name = (fst pkgs.(i)).Pkg.id; start; len = addr.(first.(i + 1)) - start }
  in
  let image' = { image with Image.code; syms = image.Image.syms @ List.init np section } in
  (* Only the patched words and the appended code changed; check them
     in address order. *)
  let check a =
    match Image.target_error image' a with
    | Some e -> failf ~stage:"emit" "invalid rewritten image: %s" e
    | None -> ()
  in
  List.iter (fun (orig, _) -> if orig < base then check orig) launch_patches;
  for a = base to base + total - 1 do check a done;
  (* Emitted conditional branch -> original branch pc.  Block bodies
     are straight-line, so a [Branch] terminator's [Br] sits exactly
     [|body|] instructions past the block; the package's first site
     naming that block names the branch it was copied from.  Blocks
     without a site (e.g. synthesized by a transform) stay unmapped —
     profiles taken over the rewritten image simply drop those
     retirements.  Blocks are numbered in address order, so the map
     comes out sorted. *)
  let site_pc = Array.make nb min_int in
  Array.iteri
    (fun i ((p : Pkg.t), _) ->
      List.iter
        (fun (s : Pkg.site) ->
          let g = Pkg.position labels s.Pkg.block_label in
          if g >= first.(i) && g < first.(i + 1) && site_pc.(g) = min_int then
            site_pc.(g) <- s.Pkg.orig_pc)
        p.Pkg.sites)
    pkgs;
  let branch_map = ref [] in
  for g = nb - 1 downto 0 do
    match blocks.(g).Pkg.term with
    | Pkg.Branch _ when site_pc.(g) <> min_int ->
      branch_map := (addr.(g) + List.length blocks.(g).Pkg.body, site_pc.(g)) :: !branch_map
    | _ -> ()
  done;
  {
    image = image';
    packages = final;
    groups;
    launch_patches;
    package_instructions = total;
    branch_map = !branch_map;
  }

let emit ?linking ?transform image pkgs =
  of_groups ?transform image (Linking.group_packages ?linking pkgs)
