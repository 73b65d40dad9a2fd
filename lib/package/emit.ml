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

exception Rejected of Pkg.t * Vp_util.Error.t

let failf = Vp_util.Error.failf

(* A transfer to the next block of the order falls through; any other
   costs a jump. *)
let jumps (order : int array) k j = if k + 1 < Array.length order && order.(k + 1) = j then 0 else 1

let term_length (p : Pkg.t) k =
  match p.Pkg.blocks.(p.Pkg.order.(k)).Pkg.term with
  | Pkg.Fall j -> jumps p.Pkg.order k j
  | Pkg.Branch { fall = j; _ } | Pkg.Call_orig { next = j; _ } -> 1 + jumps p.Pkg.order k j
  | Pkg.Inlined_call _ -> 2
  | Pkg.Goto _ | Pkg.Return | Pkg.Exit_jump _ | Pkg.Link _ | Pkg.Stop -> 1

(* A package of the run as its group gave it (the one an error names)
   and linked and transformed, with the emission index of its group's
   first package and the group's size: a link's package position is
   relative to them. *)
type member = { given : Pkg.t; pkg : Pkg.t; first : int; size : int }

let of_groups ?(transform = fun ~protected:_ p -> p) image groups =
  (* Blocks targeted by cross-package links have predecessors the
     transform cannot see; it must not absorb or shorten them. *)
  let next = ref 0 in
  let run =
    Array.of_list
      (List.concat_map
         (fun (g : Linking.group) ->
           let first = !next and size = List.length g.Linking.ordered in
           next := first + size;
           let protected k =
             List.filter_map
               (fun (l : Linking.link) ->
                 if l.Linking.to_pkg = k then Some l.Linking.to_block else None)
               g.Linking.links
           in
           List.mapi
             (fun k (given, linked) ->
               { given; pkg = transform ~protected:(protected k) linked; first; size })
             (List.combine g.Linking.ordered (Linking.apply [ g ])))
         groups)
  in
  let pkgs = Array.map (fun m -> m.pkg) run in
  let np = Array.length pkgs in
  let reject i fmt =
    let p = run.(i).given in
    Printf.ksprintf
      (fun what -> raise (Rejected (p, Vp_util.Error.v ~stage:"emit" ~label:p.Pkg.id "%s" what)))
      fmt
  in
  (* First pass: place every live block from its size — its body plus
     its terminator given its successor in the order.  [at.(i).(j)] is
     the address of block [j] of package [i], -1 for a block in no
     order; package [i]'s section is [bound.(i)] to [bound.(i + 1)]. *)
  let start = Image.size image in
  let bound = Array.make (np + 1) start in
  let at =
    Array.mapi
      (fun i (p : Pkg.t) ->
        let a = Array.make (Array.length p.Pkg.blocks) (-1) in
        let pc = ref bound.(i) in
        Array.iteri
          (fun k j ->
            a.(j) <- !pc;
            pc := !pc + List.length p.Pkg.blocks.(j).Pkg.body + term_length p k)
          p.Pkg.order;
        bound.(i + 1) <- !pc;
        a)
      pkgs
  in
  let total = bound.(np) - start in
  (* The address of block [j] of package [i], for a transfer of
     package [owner]. *)
  let resolve owner i j =
    let a = at.(i) in
    if j < 0 || j >= Array.length a then
      reject owner "block %d of %s out of range" j pkgs.(i).Pkg.id
    else if a.(j) < 0 then
      reject owner "block %s is not in the order" pkgs.(i).Pkg.blocks.(j).Pkg.label
    else a.(j)
  in
  (* Second pass: resolved instructions go straight into one copy of
     the original code, in stream order. *)
  let code = Array.make (start + total) Instr.Nop in
  Array.blit image.Image.code 0 code 0 start;
  let pc = ref start in
  let put i =
    code.(!pc) <- i;
    incr pc
  in
  for i = 0 to np - 1 do
    let p = pkgs.(i) in
    let order = p.Pkg.order in
    let jump j = put (Instr.Jmp { target = Instr.Addr (resolve i i j) }) in
    let fall k j = if jumps order k j = 1 then jump j in
    Array.iteri
      (fun k j ->
        let b = p.Pkg.blocks.(j) in
        List.iter put b.Pkg.body;
        match b.Pkg.term with
        | Pkg.Fall j -> fall k j
        | Pkg.Goto j -> jump j
        | Pkg.Branch { cond; src1; src2; taken; fall = j } ->
          put (Instr.Br { cond; src1; src2; target = Instr.Addr (resolve i i taken) });
          fall k j
        | Pkg.Call_orig { callee; next } ->
          put (Instr.Call { target = Instr.Addr callee });
          fall k next
        | Pkg.Inlined_call { ra_value; prologue } ->
          put (Instr.La { dst = Vp_isa.Reg.ra; target = Instr.Addr ra_value });
          jump prologue
        | Pkg.Return -> put Instr.Ret
        | Pkg.Exit_jump a -> put (Instr.Jmp { target = Instr.Addr a })
        | Pkg.Link { pkg; block; _ } ->
          let { first; size; _ } = run.(i) in
          if pkg < 0 || pkg >= size then
            reject i "link into package %d outside its group of %d" pkg size;
          put (Instr.Jmp { target = Instr.Addr (resolve i (first + pkg) block) })
        | Pkg.Stop -> put Instr.Halt)
      order
  done;
  (* Launch points: left-most package of each group claims each entry
     address first. *)
  let claimed = Hashtbl.create 16 in
  Array.iteri
    (fun i (p : Pkg.t) ->
      List.iter
        (fun (j, orig) ->
          if not (Hashtbl.mem claimed orig) then Hashtbl.replace claimed orig (resolve i i j))
        p.Pkg.entries)
    pkgs;
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
    { Image.name = pkgs.(i).Pkg.id; start = bound.(i); len = bound.(i + 1) - bound.(i) }
  in
  let image' = { image with Image.code; syms = image.Image.syms @ List.init np section } in
  (* Only the patched words and the appended code changed; check them
     in address order. *)
  let check a =
    match Image.target_error image' a with
    | Some e -> failf ~stage:"emit" "invalid rewritten image: %s" e
    | None -> ()
  in
  List.iter (fun (orig, _) -> if orig < start then check orig) launch_patches;
  for a = start to start + total - 1 do check a done;
  (* Emitted conditional branch -> original branch pc.  Block bodies
     are straight-line, so a [Branch] terminator's [Br] sits exactly
     [|body|] instructions past the block; the package's first site
     naming that block names the branch it was copied from.  Blocks
     without a site (e.g. synthesized by a transform) stay unmapped —
     profiles taken over the rewritten image simply drop those
     retirements.  Packages and their orders are walked backwards, in
     descending address order, so the map comes out sorted. *)
  let branch_map = ref [] in
  for i = np - 1 downto 0 do
    let p = pkgs.(i) in
    let site_pc = Array.make (Array.length p.Pkg.blocks) min_int in
    List.iter
      (fun (s : Pkg.site) ->
        let j = s.Pkg.block in
        if j >= 0 && j < Array.length site_pc && site_pc.(j) = min_int then
          site_pc.(j) <- s.Pkg.orig_pc)
      p.Pkg.sites;
    for k = Array.length p.Pkg.order - 1 downto 0 do
      let j = p.Pkg.order.(k) in
      let b = p.Pkg.blocks.(j) in
      match b.Pkg.term with
      | Pkg.Branch _ when site_pc.(j) <> min_int ->
        branch_map := (at.(i).(j) + List.length b.Pkg.body, site_pc.(j)) :: !branch_map
      | _ -> ()
    done
  done;
  {
    image = image';
    packages = Array.to_list pkgs;
    groups;
    launch_patches;
    package_instructions = total;
    branch_map = !branch_map;
  }
