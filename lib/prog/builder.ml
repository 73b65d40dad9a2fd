module Instr = Vp_isa.Instr
module Op = Vp_isa.Op
module Reg = Vp_isa.Reg

(* Register budget: virtual registers are pinned to r8..r28; r29..r31
   are reserved scratch for stack-slot traffic. *)
let last_alloc_temp = 28
let scratch1 = Reg.of_int 29
let scratch2 = Reg.of_int 30
let scratch3 = Reg.of_int 31

type loc = Phys of Reg.t | Slot of int

type vreg = { loc : loc }

type operand = V of vreg | K of int

type cond_spec = Op.cond * vreg * operand

type fb = {
  fname : string;
  mutable cur_label : string;
  mutable cur_rev : Instr.t list;
  mutable blocks_rev : Block.t list;
  mutable label_counter : int;
  mutable frame_words : int;
  used : bool array;  (* phys temps touched, to be saved/restored *)
  mutable next_temp : int;
  mutable loops : (string * string) list;  (* (continue target, break target) *)
  epilogue_label : string;
}

type t = {
  mutable funcs_rev : Func.t list;
  mutable data_break : int;
  mutable data_init_rev : (int * int) list;
}

let create () = { funcs_rev = []; data_break = 16; data_init_rev = [] }

let global t ~words =
  assert (words > 0);
  let addr = t.data_break in
  t.data_break <- t.data_break + words;
  addr

let global_init t values =
  let addr = global t ~words:(max 1 (List.length values)) in
  List.iteri (fun i v -> t.data_init_rev <- (addr + i, v) :: t.data_init_rev) values;
  addr

(* --- function-level plumbing --- *)

let emit fb i = fb.cur_rev <- i :: fb.cur_rev

let fresh fb =
  fb.label_counter <- fb.label_counter + 1;
  Printf.sprintf "%s$L%d" fb.fname fb.label_counter

let close fb ~next =
  fb.blocks_rev <- Block.v fb.cur_label (List.rev fb.cur_rev) :: fb.blocks_rev;
  fb.cur_label <- next;
  fb.cur_rev <- []

let mark fb r =
  let i = Reg.to_int r in
  if i >= Reg.first_temp then fb.used.(i) <- true

let vreg fb =
  if fb.next_temp <= last_alloc_temp then begin
    let r = Reg.of_int fb.next_temp in
    fb.next_temp <- fb.next_temp + 1;
    mark fb r;
    { loc = Phys r }
  end
  else begin
    let off = fb.frame_words in
    fb.frame_words <- fb.frame_words + 1;
    mark fb scratch1;
    mark fb scratch2;
    mark fb scratch3;
    { loc = Slot off }
  end

(* Read a virtual register into a physical one, loading spilled values
   into the given scratch register. *)
let reg_of_v fb ~scratch v =
  match v.loc with
  | Phys r -> r
  | Slot off ->
    emit fb (Instr.Load { dst = scratch; base = Reg.sp; offset = off });
    scratch

(* A physical register to compute a result into, plus the commit action
   that stores it back when the destination is spilled. *)
let def_reg fb v =
  match v.loc with
  | Phys r -> (r, fun () -> ())
  | Slot off ->
    ( scratch3,
      fun () -> emit fb (Instr.Store { src = scratch3; base = Reg.sp; offset = off }) )

let li fb v imm =
  let rd, commit = def_reg fb v in
  emit fb (Instr.Li { dst = rd; imm });
  commit ()

let alu fb op dst a b =
  let r1 = reg_of_v fb ~scratch:scratch1 a in
  let src2 =
    match b with
    | V v -> Instr.Reg (reg_of_v fb ~scratch:scratch2 v)
    | K n -> Instr.Imm n
  in
  let rd, commit = def_reg fb dst in
  emit fb (Instr.Alu { op; dst = rd; src1 = r1; src2 });
  commit ()

let addi fb dst src n = alu fb Op.Add dst src (K n)

let mov fb dst src = addi fb dst src 0

let mov_from_phys fb dst phys =
  let rd, commit = def_reg fb dst in
  emit fb (Instr.Alu { op = Op.Add; dst = rd; src1 = phys; src2 = Instr.Imm 0 });
  commit ()

let mov_to_phys fb phys src =
  let r = reg_of_v fb ~scratch:scratch1 src in
  emit fb (Instr.Alu { op = Op.Add; dst = phys; src1 = r; src2 = Instr.Imm 0 })

let load fb dst ~base ~off =
  let rb = reg_of_v fb ~scratch:scratch1 base in
  let rd, commit = def_reg fb dst in
  emit fb (Instr.Load { dst = rd; base = rb; offset = off });
  commit ()

let store fb src ~base ~off =
  let rs = reg_of_v fb ~scratch:scratch1 src in
  let rb = reg_of_v fb ~scratch:scratch2 base in
  emit fb (Instr.Store { src = rs; base = rb; offset = off })

let load_abs fb dst addr =
  let rd, commit = def_reg fb dst in
  emit fb (Instr.Load { dst = rd; base = Reg.zero; offset = addr });
  commit ()

let store_abs fb src addr =
  let rs = reg_of_v fb ~scratch:scratch1 src in
  emit fb (Instr.Store { src = rs; base = Reg.zero; offset = addr })

let local fb ~words =
  assert (words > 0);
  let off = fb.frame_words in
  fb.frame_words <- fb.frame_words + words;
  off

let local_addr fb dst off =
  let rd, commit = def_reg fb dst in
  emit fb (Instr.Alu { op = Op.Add; dst = rd; src1 = Reg.sp; src2 = Instr.Imm off });
  commit ()

(* --- control flow --- *)

let emit_branch fb (c, a, b) target =
  let r1 = reg_of_v fb ~scratch:scratch1 a in
  let r2 =
    match b with
    | V v -> reg_of_v fb ~scratch:scratch2 v
    | K n ->
      mark fb scratch2;
      emit fb (Instr.Li { dst = scratch2; imm = n });
      scratch2
  in
  emit fb (Instr.Br { cond = c; src1 = r1; src2 = r2; target = Instr.Label target })

let negate (c, a, b) = (Op.negate_cond c, a, b)

let new_label fb = fresh fb

let place_label fb label = close fb ~next:label

let goto fb label =
  emit fb (Instr.Jmp { target = Instr.Label label });
  close fb ~next:(fresh fb)

let branch fb spec label =
  emit_branch fb spec label;
  close fb ~next:(fresh fb)

let if_ fb spec then_ else_ =
  let else_l = fresh fb in
  let join_l = fresh fb in
  emit_branch fb (negate spec) else_l;
  close fb ~next:(fresh fb);
  then_ ();
  emit fb (Instr.Jmp { target = Instr.Label join_l });
  close fb ~next:else_l;
  else_ ();
  close fb ~next:join_l

let when_ fb spec then_ = if_ fb spec then_ (fun () -> ())

let while_ fb cond_fn body =
  let head_l = fresh fb in
  let exit_l = fresh fb in
  close fb ~next:head_l;
  let spec = cond_fn () in
  emit_branch fb (negate spec) exit_l;
  close fb ~next:(fresh fb);
  fb.loops <- (head_l, exit_l) :: fb.loops;
  body ();
  (match fb.loops with
  | _ :: rest -> fb.loops <- rest
  | [] -> assert false);
  emit fb (Instr.Jmp { target = Instr.Label head_l });
  close fb ~next:exit_l

let for_ fb v ~from ~below ?(step = 1) body =
  (match from with K n -> li fb v n | V u -> mov fb v u);
  let head_l = fresh fb in
  let inc_l = fresh fb in
  let exit_l = fresh fb in
  close fb ~next:head_l;
  emit_branch fb (Op.Ge, v, below) exit_l;
  close fb ~next:(fresh fb);
  fb.loops <- (inc_l, exit_l) :: fb.loops;
  body ();
  (match fb.loops with
  | _ :: rest -> fb.loops <- rest
  | [] -> assert false);
  close fb ~next:inc_l;
  addi fb v v step;
  emit fb (Instr.Jmp { target = Instr.Label head_l });
  close fb ~next:exit_l

let break_ fb =
  match fb.loops with
  | (_, exit_l) :: _ -> goto fb exit_l
  | [] -> invalid_arg "Builder.break_: not inside a loop"

let continue_ fb =
  match fb.loops with
  | (cont_l, _) :: _ -> goto fb cont_l
  | [] -> invalid_arg "Builder.continue_: not inside a loop"

(* --- calls and returns --- *)

let call_void fb name args =
  if List.length args > 5 then invalid_arg "Builder.call: more than 5 arguments";
  List.iteri (fun i a -> mov_to_phys fb (Reg.arg i) a) args;
  emit fb (Instr.Call { target = Instr.Label name });
  close fb ~next:(fresh fb)

let call fb name args =
  call_void fb name args;
  let r = vreg fb in
  mov_from_phys fb r Reg.ret_value;
  r

let ret fb value =
  (match value with
  | Some v -> mov_to_phys fb Reg.ret_value v
  | None -> ());
  emit fb (Instr.Jmp { target = Instr.Label fb.epilogue_label });
  close fb ~next:(fresh fb)

let halt fb =
  emit fb Instr.Halt;
  close fb ~next:(fresh fb)

(* --- function assembly --- *)

let func t name ~nargs body =
  if nargs < 0 || nargs > 5 then invalid_arg "Builder.func: bad argument count";
  let fb =
    {
      fname = name;
      cur_label = name ^ "$body";
      cur_rev = [];
      blocks_rev = [];
      label_counter = 0;
      frame_words = 0;
      used = Array.make Reg.count false;
      next_temp = Reg.first_temp;
      loops = [];
      epilogue_label = name ^ "$epilogue";
    }
  in
  let args = Array.init nargs (fun _ -> vreg fb) in
  Array.iteri (fun i v -> mov_from_phys fb v (Reg.arg i)) args;
  body fb args;
  (* Fall off the end of the body into the epilogue. *)
  close fb ~next:(fresh fb);
  let body_blocks = List.rev fb.blocks_rev in
  let saved =
    List.filter (fun r -> fb.used.(Reg.to_int r)) Reg.temps
  in
  let saved_base = fb.frame_words in
  let ra_slot = saved_base + List.length saved in
  let frame_size = ra_slot + 1 in
  let save_slot i = saved_base + i in
  let prologue =
    Block.v (name ^ "$prologue")
      (Instr.Alu { op = Op.Add; dst = Reg.sp; src1 = Reg.sp; src2 = Instr.Imm (-frame_size) }
      :: List.mapi
           (fun i r -> Instr.Store { src = r; base = Reg.sp; offset = save_slot i })
           saved
      @ [ Instr.Store { src = Reg.ra; base = Reg.sp; offset = ra_slot } ])
  in
  let epilogue =
    Block.v fb.epilogue_label
      (List.mapi
         (fun i r -> Instr.Load { dst = r; base = Reg.sp; offset = save_slot i })
         saved
      @ [
          Instr.Load { dst = Reg.ra; base = Reg.sp; offset = ra_slot };
          Instr.Alu { op = Op.Add; dst = Reg.sp; src1 = Reg.sp; src2 = Instr.Imm frame_size };
          Instr.Ret;
        ])
  in
  let f = Func.v name ((prologue :: body_blocks) @ [ epilogue ]) in
  t.funcs_rev <- f :: t.funcs_rev

let program t ~entry =
  Program.v
    ~data_init:(List.rev t.data_init_rev)
    ~data_break:t.data_break ~entry
    (List.rev t.funcs_rev)
