(* Tests for vp_isa: register conventions, operation semantics,
   instruction classification and dataflow summaries. *)

module Reg = Vp_isa.Reg
module Op = Vp_isa.Op
module Instr = Vp_isa.Instr

let reg = Alcotest.testable (Fmt.of_to_string Reg.name) Reg.equal

let test_reg_conventions () =
  Alcotest.(check int) "zero is r0" 0 (Reg.to_int Reg.zero);
  Alcotest.(check int) "sp is r1" 1 (Reg.to_int Reg.sp);
  Alcotest.(check int) "ra is r2" 2 (Reg.to_int Reg.ra);
  Alcotest.check reg "ret value is a0" (Reg.arg 0) Reg.ret_value;
  Alcotest.(check int) "temp count" (32 - 8) (List.length Reg.temps)

let test_reg_bounds () =
  Alcotest.check_raises "of_int 32" (Invalid_argument "Reg.of_int") (fun () ->
      ignore (Reg.of_int 32));
  Alcotest.check_raises "of_int -1" (Invalid_argument "Reg.of_int") (fun () ->
      ignore (Reg.of_int (-1)));
  Alcotest.check_raises "arg 5" (Invalid_argument "Reg.arg") (fun () ->
      ignore (Reg.arg 5))

let test_reg_names_unique () =
  let names = List.init 32 (fun i -> Reg.name (Reg.of_int i)) in
  Alcotest.(check int) "all distinct" 32 (List.length (List.sort_uniq compare names))

let test_alu_semantics () =
  let check op a b expect =
    Alcotest.(check int) (Op.alu_name op) expect (Op.eval_alu op a b)
  in
  check Op.Add 3 4 7;
  check Op.Sub 3 4 (-1);
  check Op.Mul 3 4 12;
  check Op.Div 12 4 3;
  check Op.Div 7 0 0;
  check Op.Rem 7 3 1;
  check Op.Rem 7 0 0;
  check Op.And 12 10 8;
  check Op.Or 12 10 14;
  check Op.Xor 12 10 6;
  check Op.Shl 1 4 16;
  check Op.Shr (-16) 2 (-4);
  check Op.Slt 1 2 1;
  check Op.Slt 2 1 0;
  check Op.Fadd 3 4 7;
  check Op.Fmul 3 4 12;
  check Op.Fdiv 12 4 3

let test_cond_semantics () =
  let check c a b expect =
    Alcotest.(check bool) (Op.cond_name c) expect (Op.eval_cond c a b)
  in
  check Op.Eq 1 1 true;
  check Op.Ne 1 1 false;
  check Op.Lt 1 2 true;
  check Op.Le 2 2 true;
  check Op.Gt 2 1 true;
  check Op.Ge 1 2 false

let test_negate_cond_involutive () =
  List.iter
    (fun c ->
      Alcotest.(check string) "double negation" (Op.cond_name c)
        (Op.cond_name (Op.negate_cond (Op.negate_cond c))))
    Op.all_cond

let prop_negate_cond_complements =
  QCheck.Test.make ~name:"negated condition complements" ~count:500
    QCheck.(triple (int_bound 5) (int_range (-50) 50) (int_range (-50) 50))
    (fun (ci, a, b) ->
      let c = List.nth Op.all_cond ci in
      Op.eval_cond c a b <> Op.eval_cond (Op.negate_cond c) a b)

let test_fu_assignment () =
  Alcotest.(check bool) "add on ialu" true (Op.alu_fu Op.Add = Op.Ialu);
  Alcotest.(check bool) "mul on fp" true (Op.alu_fu Op.Mul = Op.Fp);
  Alcotest.(check bool) "div long" true (Op.alu_fu Op.Div = Op.Long_fp);
  List.iter
    (fun op ->
      Alcotest.(check bool)
        (Op.alu_name op ^ " latency positive")
        true
        (Op.alu_latency op >= 1))
    Op.all_alu

let t0 = Reg.of_int 8
let t1 = Reg.of_int 9

let test_instr_classification () =
  let call = Instr.Call { target = Instr.Addr 4 } in
  Alcotest.(check bool) "call is control" true (Instr.is_control call);
  Alcotest.(check bool) "ret is control" true (Instr.is_control Instr.Ret);
  Alcotest.(check bool) "alu not control" false
    (Instr.is_control (Instr.Li { dst = t0; imm = 1 }));
  Alcotest.(check bool) "load is load" true
    (Instr.is_load (Instr.Load { dst = t0; base = t1; offset = 0 }))

let test_instr_target_rewriting () =
  let br = Instr.Br { cond = Op.Eq; src1 = t0; src2 = t1; target = Instr.Label "x" } in
  let resolved = Instr.resolve (fun _ -> 99) br in
  (match Instr.target resolved with
  | Some (Instr.Addr 99) -> ()
  | _ -> Alcotest.fail "resolve failed");
  let moved = Instr.retarget (fun a -> a + 1) resolved in
  (match Instr.target moved with
  | Some (Instr.Addr 100) -> ()
  | _ -> Alcotest.fail "retarget failed");
  (* retarget leaves labels alone *)
  let still = Instr.retarget (fun a -> a + 1) br in
  match Instr.target still with
  | Some (Instr.Label "x") -> ()
  | _ -> Alcotest.fail "label disturbed"

let test_instr_with_target_invalid () =
  Alcotest.check_raises "ret has no target"
    (Invalid_argument "Instr.with_target: instruction has no target") (fun () ->
      ignore (Instr.with_target Instr.Ret (Instr.Addr 0)))

let test_instr_defs_uses () =
  let regs mask = List.map Reg.to_int (Reg.of_mask mask) in
  let alu = Instr.Alu { op = Op.Add; dst = t0; src1 = t1; src2 = Instr.Reg Reg.sp } in
  Alcotest.(check (list int)) "alu defs" [ 8 ] (regs (Instr.def_mask alu));
  Alcotest.(check (list int)) "alu uses" [ 1; 9 ] (regs (Instr.use_mask alu));
  let call = Instr.Call { target = Instr.Addr 0 } in
  Alcotest.(check (list int)) "call defs ra and args" [ 2; 3; 4; 5; 6; 7 ]
    (regs (Instr.def_mask call));
  Alcotest.(check (list int)) "call uses sp and args" [ 1; 3; 4; 5; 6; 7 ]
    (regs (Instr.use_mask call));
  Alcotest.(check (list int)) "ret uses sp, ra, a0" [ 1; 2; 3 ]
    (regs (Instr.use_mask Instr.Ret));
  let store = Instr.Store { src = t0; base = t1; offset = 4 } in
  Alcotest.(check int) "store defs nothing" 0 (Instr.def_mask store)

(* The one definition of every instruction's register effects: the
   expected (def, use) masks, written out bit by bit, for every
   constructor and operand shape, [r0] as source and as destination.
   sp = bit 1, ra = bit 2, a0..a4 = bits 3-7, t0 = bit 8, t1 = bit 9. *)
let test_instr_masks () =
  let a = Instr.Addr 3 in
  let args = 0b1111_1000 in
  List.iter
    (fun (i, def, use) ->
      let name what = Format.asprintf "%s of %a" what Instr.pp i in
      Alcotest.(check int) (name "def mask") def (Instr.def_mask i);
      Alcotest.(check int) (name "use mask") use (Instr.use_mask i))
    [
      (Instr.Alu { op = Op.Add; dst = t0; src1 = t1; src2 = Instr.Reg Reg.sp }, 0x100, 0x202);
      (Instr.Alu { op = Op.Sub; dst = t0; src1 = t0; src2 = Instr.Reg t0 }, 0x100, 0x100);
      (Instr.Alu { op = Op.Or; dst = t0; src1 = Reg.zero; src2 = Instr.Reg t1 }, 0x100, 0x201);
      (Instr.Alu { op = Op.Add; dst = Reg.zero; src1 = t0; src2 = Instr.Reg Reg.zero }, 0x1, 0x101);
      (Instr.Alu { op = Op.Mul; dst = t1; src1 = t0; src2 = Instr.Imm 2 }, 0x200, 0x100);
      (Instr.Alu { op = Op.Mul; dst = Reg.zero; src1 = t1; src2 = Instr.Imm 2 }, 0x1, 0x200);
      (Instr.Alu { op = Op.Add; dst = t0; src1 = Reg.zero; src2 = Instr.Imm 7 }, 0x100, 0x1);
      (Instr.Li { dst = t1; imm = 7 }, 0x200, 0);
      (Instr.Li { dst = Reg.zero; imm = 7 }, 0x1, 0);
      (Instr.La { dst = Reg.ra; target = a }, 0x4, 0);
      (Instr.La { dst = Reg.zero; target = Instr.Label "f" }, 0x1, 0);
      (Instr.Load { dst = t0; base = Reg.sp; offset = 1 }, 0x100, 0x2);
      (Instr.Load { dst = Reg.zero; base = Reg.zero; offset = 0 }, 0x1, 0x1);
      (Instr.Store { src = Reg.ra; base = Reg.sp; offset = 0 }, 0, 0x6);
      (Instr.Store { src = Reg.zero; base = t0; offset = 2 }, 0, 0x101);
      (Instr.Br { cond = Op.Lt; src1 = t0; src2 = t1; target = a }, 0, 0x300);
      (Instr.Br { cond = Op.Eq; src1 = Reg.zero; src2 = Reg.zero; target = a }, 0, 0x1);
      (Instr.Jmp { target = a }, 0, 0);
      (Instr.Call { target = a }, 0x4 lor args, 0x2 lor args);
      (Instr.Ret, 0, 0x4 lor 0x2 lor 0x8);
      (Instr.Nop, 0, 0);
      (Instr.Halt, 0, 0);
    ]

(* [Reg.of_mask] lists exactly the mask's registers, ascending, and
   [Reg.bit] folds them back to the mask; a register list maps to its
   sorted, duplicate-free self. *)
let prop_reg_mask_roundtrip =
  QCheck.Test.make ~name:"mask roundtrip" ~count:1000
    QCheck.(pair (int_bound 0xFFFF_FFFF) (small_list (int_bound 31)))
    (fun (mask, rs) ->
      let regs = Reg.of_mask mask in
      let ints = List.map Reg.to_int regs in
      let back = List.fold_left (fun m r -> m lor Reg.bit r) 0 regs in
      let from_list =
        Reg.of_mask (List.fold_left (fun m r -> m lor Reg.bit (Reg.of_int r)) 0 rs)
      in
      back = mask
      && ints = List.sort_uniq compare ints
      && List.map Reg.to_int from_list = List.sort_uniq compare rs)

let test_instr_printing () =
  let i = Instr.Alu { op = Op.Add; dst = t0; src1 = t1; src2 = Instr.Imm 5 } in
  Alcotest.(check string) "alu text" "add t0, t1, #5" (Instr.to_string i);
  let br = Instr.Br { cond = Op.Lt; src1 = t0; src2 = t1; target = Instr.Addr 16 } in
  Alcotest.(check string) "br text" "blt t0, t1, 0x10" (Instr.to_string br)

let prop_shift_masking_total =
  QCheck.Test.make ~name:"shifts never raise" ~count:1000
    QCheck.(pair int int)
    (fun (a, b) ->
      let _ = Op.eval_alu Op.Shl a b in
      let _ = Op.eval_alu Op.Shr a b in
      true)

let () =
  Alcotest.run "vp_isa"
    [
      ( "reg",
        [
          Alcotest.test_case "conventions" `Quick test_reg_conventions;
          Alcotest.test_case "bounds" `Quick test_reg_bounds;
          Alcotest.test_case "names unique" `Quick test_reg_names_unique;
          QCheck_alcotest.to_alcotest prop_reg_mask_roundtrip;
        ] );
      ( "op",
        [
          Alcotest.test_case "alu semantics" `Quick test_alu_semantics;
          Alcotest.test_case "cond semantics" `Quick test_cond_semantics;
          Alcotest.test_case "negate involutive" `Quick test_negate_cond_involutive;
          Alcotest.test_case "fu assignment" `Quick test_fu_assignment;
          QCheck_alcotest.to_alcotest prop_negate_cond_complements;
          QCheck_alcotest.to_alcotest prop_shift_masking_total;
        ] );
      ( "instr",
        [
          Alcotest.test_case "classification" `Quick test_instr_classification;
          Alcotest.test_case "target rewriting" `Quick test_instr_target_rewriting;
          Alcotest.test_case "with_target invalid" `Quick test_instr_with_target_invalid;
          Alcotest.test_case "defs/uses" `Quick test_instr_defs_uses;
          Alcotest.test_case "def/use masks" `Quick test_instr_masks;
          Alcotest.test_case "printing" `Quick test_instr_printing;
        ] );
    ]
