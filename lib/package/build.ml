module Cfg = Vp_cfg.Cfg
module Image = Vp_prog.Image
module Instr = Vp_isa.Instr
module Region = Vp_region.Region

(* Copies by (context number, original address). *)
module Copies = Hashtbl.Make (struct
  type t = int * int

  let equal ((c, a) : t) (c', a') = c = c' && a = a'

  (* The table takes the low bits, where addresses differ. *)
  let hash ((c, a) : t) = ((a * 31) + c) land max_int
end)

(* Mutable construction state for one package.  A block's position is
   its number in order of first mention — as a transfer's target or as
   it is made — from one table keyed on (context, address); an exit
   block is numbered as it is made.  The order is the copy order. *)
type state = {
  pkg_id : string;
  region : Region.t;
  roots : Roots.t;
  contexts : (Pkg.context, int * string) Hashtbl.t;
  copies : int Copies.t;
  mutable made : (int * Pkg.block) list;  (* position and block, newest first *)
  mutable sites_rev : Pkg.site list;
  mutable next_position : int;
  mutable next_exit : int;
}

(* A calling context's number and label prefix ["<pkg_id>$c<n>$"],
   [n] numbering contexts in order of first use. *)
let context st ctx =
  match Hashtbl.find_opt st.contexts ctx with
  | Some c -> c
  | None ->
    let id = Hashtbl.length st.contexts in
    let c = (id, st.pkg_id ^ "$c" ^ string_of_int id ^ "$") in
    Hashtbl.replace st.contexts ctx c;
    c

let fresh_position st =
  let i = st.next_position in
  st.next_position <- i + 1;
  i

(* The position of the copy of [addr] under a context numbered [c]. *)
let position st (c, _) addr =
  let key = (c, addr) in
  match Copies.find st.copies key with
  | i -> i
  | exception Not_found ->
    let i = fresh_position st in
    Copies.replace st.copies key i;
    i

(* [Printf.sprintf "%s%x" prefix addr], without the format
   interpreter. *)
let label prefix addr =
  (* [%x] prints the 63-bit pattern, at most 16 digits; [lsr] matches
     it for negative values too. *)
  let digits = ref 1 in
  while !digits < 16 && addr lsr (4 * !digits) > 0 do
    incr digits
  done;
  let n = String.length prefix in
  let b = Bytes.create (n + !digits) in
  Bytes.blit_string prefix 0 b 0 n;
  for i = 0 to !digits - 1 do
    Bytes.set b (n + i) "0123456789abcdef".[(addr lsr (4 * (!digits - 1 - i))) land 15]
  done;
  Bytes.unsafe_to_string b

(* An exit block leaving the package along [arc]; carries the live
   registers across the arc as dummy consumers for the optimizer.
   Returns its position and the original address it leaves to. *)
let make_exit st view ctx (arc : Cfg.arc) =
  let cfg = Prune.cfg view in
  let target = Cfg.start cfg arc.Cfg.dst in
  let i = fresh_position st in
  let n = st.next_exit in
  st.next_exit <- n + 1;
  st.made <-
    ( i,
      {
        Pkg.label = st.pkg_id ^ "$x" ^ string_of_int n;
        orig_addr = -1;
        context = ctx;
        body = [];
        term = Pkg.Exit_jump target;
        weight = 0;
        taken_prob = None;
        live_out = Prune.live_across view arc;
        is_exit = true;
      } )
    :: st.made;
  (i, target)

let find_arc cfg b kind =
  List.find_opt (fun (a : Cfg.arc) -> a.Cfg.kind = kind) (Cfg.succs cfg b)

(* Would inlining [callee] under [path] respect the recursion rule?
   A function may appear once on the path, and then only as the
   immediate caller making a direct self-recursive call. *)
let inline_allowed path callee =
  let occurrences = List.length (List.filter (( = ) callee) path) in
  occurrences = 0
  || occurrences = 1
     &&
     match List.rev path with last :: _ -> last = callee | [] -> false

let max_inline_depth = 8

(* Copy the selected blocks of [fname] under [ctx].  [ret_term] is the
   terminator replacing a return: [Pkg.Return] at root level or when
   the continuation is cold, [Pkg.Goto cont] for a hot continuation.
   Returns unit; blocks accumulate in [st]. *)
let rec copy_function st ~ctx ~path ~fname ~is_root ~ret_term =
  let view = Roots.view st.roots fname in
  let cfg = Prune.cfg view in
  let to_copy =
    if is_root then Prune.hot_blocks view else Prune.reachable_from_prologue view
  in
  let selected = Array.make (Cfg.num_blocks cfg) false in
  List.iter (fun b -> selected.(b) <- true) to_copy;
  (* The context is numbered at its first use, as labels name it. *)
  let here = lazy (context st ctx) in
  let at addr = position st (Lazy.force here) addr in
  let internal (a : Cfg.arc) =
    selected.(a.Cfg.dst)
    && Vp_region.Temperature.is_hot (Region.arc_temp (Prune.mf view) a)
    && Vp_region.Temperature.is_hot (Region.temp (Prune.mf view) a.Cfg.dst)
  in
  let transfer arc_opt ~fallback_exit =
    (* Position of a control transfer along [arc_opt]: a package-internal
       copy when the arc stays inside, an exit block otherwise.
       Returns (position, cold_target option): the cold target is the
       original address when the direction leaves the package. *)
    match arc_opt with
    | Some arc when internal arc -> (at (Cfg.start cfg arc.Cfg.dst), None)
    | Some arc ->
      let i, target = fallback_exit arc in
      (i, Some target)
    | None ->
      (* A control transfer with no recovered arc (target outside the
         function): treat as an exit to nowhere; cannot happen on
         builder-produced images. *)
      Vp_util.Error.failf ~stage:"build" "copy_function: dangling control transfer"
  in
  List.iter
    (fun b ->
      let instrs = Cfg.instrs cfg b in
      let terminator = Cfg.terminator cfg b in
      let body =
        match terminator with
        | Some _ -> List.filteri (fun i _ -> i < Cfg.len cfg b - 1) instrs
        | None -> instrs
      in
      let block_start = Cfg.start cfg b in
      let block_end = block_start + Cfg.len cfg b in
      let fallback_exit arc = make_exit st view ctx arc in
      let mk_term () =
        match terminator with
        | Some (Instr.Br { cond; src1; src2; target = Instr.Addr ta }) ->
          let taken_arc = find_arc cfg b Cfg.Taken in
          let fall_arc = find_arc cfg b Cfg.Fallthrough in
          let taken, taken_cold = transfer taken_arc ~fallback_exit in
          let fall, fall_cold = transfer fall_arc ~fallback_exit in
          ignore ta;
          let bias, cold_exit, cold_target =
            match (taken_cold, fall_cold) with
            | None, None -> (Pkg.U, None, None)
            | None, Some t -> (Pkg.T, Some fall, Some t)
            | Some t, None -> (Pkg.F, Some taken, Some t)
            | Some t, Some _ -> (Pkg.Neither, Some taken, Some t)
          in
          st.sites_rev <-
            {
              Pkg.orig_pc = block_end - 1;
              site_context = ctx;
              block = at block_start;
              bias;
              cold_exit;
              cold_target;
            }
            :: st.sites_rev;
          Pkg.Branch { cond; src1; src2; taken; fall }
        | Some (Instr.Jmp { target = Instr.Addr _ }) ->
          let arc = find_arc cfg b Cfg.Taken in
          Pkg.Goto (fst (transfer arc ~fallback_exit))
        | Some (Instr.Call { target = Instr.Addr callee_entry }) -> (
          let call_site = block_end - 1 in
          let cont_arc = find_arc cfg b Cfg.Fallthrough in
          let callee_name =
            match Image.sym_at (Region.image st.region) callee_entry with
            | Some sym -> Some sym.Image.name
            | None -> None
          in
          let callee_in_region =
            match callee_name with
            | Some n -> Region.find_func st.region n <> None
            | None -> false
          in
          let do_inline =
            callee_in_region
            && (match callee_name with
               | Some n -> Roots.inlinable st.roots n && inline_allowed path n
               | None -> false)
            && List.length path < max_inline_depth
          in
          if do_inline then begin
            let callee = Option.get callee_name in
            let new_ctx = ctx @ [ call_site ] in
            let callee_ret_term =
              match cont_arc with
              | Some arc when internal arc -> Pkg.Goto (at (Cfg.start cfg arc.Cfg.dst))
              | Some _ | None ->
                (* Cold continuation: the restored ra already points at
                   the original continuation. *)
                Pkg.Return
            in
            copy_function st ~ctx:new_ctx ~path:(path @ [ callee ]) ~fname:callee
              ~is_root:false ~ret_term:callee_ret_term;
            let callee_cfg = Prune.cfg (Roots.view st.roots callee) in
            Pkg.Inlined_call
              {
                ra_value = call_site + 1;
                prologue =
                  position st (context st new_ctx) (Cfg.start callee_cfg (Cfg.entry callee_cfg));
              }
          end
          else
            let next =
              match cont_arc with
              | Some arc when internal arc -> at (Cfg.start cfg arc.Cfg.dst)
              | Some arc -> fst (make_exit st view ctx arc)
              | None -> Vp_util.Error.failf ~stage:"build" "call without continuation"
            in
            Pkg.Call_orig { callee = callee_entry; next })
        | Some Instr.Ret -> ret_term
        | Some Instr.Halt -> Pkg.Stop
        | Some (Instr.Br { target = Instr.Label _; _ })
        | Some (Instr.Jmp { target = Instr.Label _ })
        | Some (Instr.Call { target = Instr.Label _ }) ->
          Vp_util.Error.failf ~stage:"build" "unresolved label in image"
        | Some _ | None -> (
          (* Straight-line block: fall through. *)
          match find_arc cfg b Cfg.Fallthrough with
          | Some arc when internal arc -> Pkg.Fall (at (Cfg.start cfg arc.Cfg.dst))
          | Some arc -> Pkg.Goto (fst (make_exit st view ctx arc))
          | None -> Vp_util.Error.failf ~stage:"build" "block without successor")
      in
      let term = mk_term () in
      let i = at block_start in
      st.made <-
        ( i,
          {
            Pkg.label = label (snd (Lazy.force here)) block_start;
            orig_addr = block_start;
            context = ctx;
            body;
            term;
            weight = Region.weight (Prune.mf view) b;
            taken_prob = Region.taken_prob (Prune.mf view) b;
            live_out = 0;
            is_exit = false;
          } )
        :: st.made)
    to_copy

(* The blocks by position and in copy order.  A position mentioned
   but never made holds a placeholder in no order, so {!Pkg.validate}
   rejects the package whose transfer names it. *)
let place st =
  let missing =
    {
      Pkg.label = st.pkg_id ^ "$missing";
      orig_addr = -1;
      context = [];
      body = [];
      term = Pkg.Stop;
      weight = 0;
      taken_prob = None;
      live_out = 0;
      is_exit = false;
    }
  in
  let blocks = Array.make st.next_position missing in
  let order = Array.make (List.length st.made) 0 in
  List.iteri
    (fun k (i, (b : Pkg.block)) ->
      if blocks.(i) != missing then
        Vp_util.Error.failf ~stage:"build" "block 0x%x copied twice" b.Pkg.orig_addr;
      blocks.(i) <- b;
      order.(Array.length order - 1 - k) <- i)
    st.made;
  (blocks, order)

let build_one region roots ~prefix root =
  let st =
    {
      pkg_id = Printf.sprintf "%s$%s" prefix root;
      region;
      roots;
      contexts = Hashtbl.create 8;
      copies = Copies.create 64;
      made = [];
      sites_rev = [];
      next_position = 0;
      next_exit = 0;
    }
  in
  copy_function st ~ctx:[] ~path:[ root ] ~fname:root ~is_root:true
    ~ret_term:Pkg.Return;
  let view = Roots.view roots root in
  let cfg = Prune.cfg view in
  let entries =
    List.map
      (fun b -> (position st (context st []) (Cfg.start cfg b), Cfg.start cfg b))
      (Prune.entry_blocks view)
  in
  let blocks, order = place st in
  {
    Pkg.id = st.pkg_id;
    region_id = (Region.snapshot region).Vp_hsd.Snapshot.id;
    root;
    blocks;
    order;
    entries;
    sites = List.rev st.sites_rev;
  }

let build region ~prefix =
  let roots = Roots.compute region in
  List.map (fun (root, _) -> build_one region roots ~prefix root) (Roots.roots roots)
