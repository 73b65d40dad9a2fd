(* Tests for vp_prog: block/function invariants, layout and image
   operations, and builder-generated structure. *)

module Instr = Vp_isa.Instr
module Op = Vp_isa.Op
module Reg = Vp_isa.Reg
module Block = Vp_prog.Block
module Func = Vp_prog.Func
module Program = Vp_prog.Program
module Image = Vp_prog.Image
module B = Vp_prog.Builder
module Progs = Vp_test_support.Progs

let t0 = Reg.of_int 8

let test_block_terminator_invariant () =
  let ok =
    Block.v "b"
      [ Instr.Li { dst = t0; imm = 1 }; Instr.Jmp { target = Instr.Label "x" } ]
  in
  Alcotest.(check int) "size" 2 (Block.size ok);
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Block.v "bad"
            [ Instr.Jmp { target = Instr.Label "x" }; Instr.Li { dst = t0; imm = 1 } ]);
       false
     with Invalid_argument _ -> true)

let test_func_invariants () =
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Func.v "f" []);
       false
     with Invalid_argument _ -> true);
  let blk l = Block.v l [ Instr.Nop ] in
  Alcotest.(check bool) "dup labels rejected" true
    (try
       ignore (Func.v "f" [ blk "a"; blk "a" ]);
       false
     with Invalid_argument _ -> true)

let test_program_invariants () =
  let blk l = Block.v l [ Instr.Ret ] in
  let f1 = Func.v "f" [ blk "f$e" ] in
  Alcotest.(check bool) "missing entry" true
    (try
       ignore (Program.v ~entry:"nope" [ f1 ]);
       false
     with Vp_util.Error.Error _ -> true);
  Alcotest.(check bool) "dup funcs" true
    (try
       ignore (Program.v ~entry:"f" [ f1; Func.v "f" [ blk "g$e" ] ]);
       false
     with Vp_util.Error.Error _ -> true)

let test_layout_addresses_and_resolution () =
  let callee = Func.v "callee" [ Block.v "callee$b" [ Instr.Nop; Instr.Ret ] ] in
  let main =
    Func.v "main"
      [
        Block.v "main$b" [ Instr.Call { target = Instr.Label "callee" } ];
        Block.v "main$c" [ Instr.Halt ];
      ]
  in
  let p = Program.v ~entry:"main" [ callee; main ] in
  let img = Program.layout p in
  Alcotest.(check int) "image size" 4 (Image.size img);
  (match Image.find_sym img "main" with
  | Some s -> Alcotest.(check int) "main at 2" 2 s.Image.start
  | None -> Alcotest.fail "main symbol missing");
  (match Image.fetch img 2 with
  | Instr.Call { target = Instr.Addr 0 } -> ()
  | i -> Alcotest.failf "call not resolved: %s" (Instr.to_string i));
  Alcotest.(check int) "entry" 2 img.Image.entry;
  Alcotest.(check int) "orig_limit" 4 img.Image.orig_limit;
  match Image.validate img with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_layout_undefined_label () =
  let f = Func.v "f" [ Block.v "f$b" [ Instr.Jmp { target = Instr.Label "ghost" } ] ] in
  let p = Program.v ~entry:"f" [ f ] in
  Alcotest.(check bool) "undefined label" true
    (try
       ignore (Program.layout p);
       false
     with Vp_util.Error.Error { stage = "program"; label = Some "ghost"; _ } -> true)

let test_image_append_and_patch () =
  let img = Program.layout (Progs.sum_to_n 4) in
  let before = Image.size img in
  let img2, base =
    Image.append img ~name:"pkg$0" [| Instr.Nop; Instr.Jmp { target = Instr.Addr 0 } |]
  in
  Alcotest.(check int) "base at old end" before base;
  Alcotest.(check int) "grown" (before + 2) (Image.size img2);
  (match Image.sym_at img2 base with
  | Some s -> Alcotest.(check string) "sym name" "pkg$0" s.Image.name
  | None -> Alcotest.fail "no symbol for appended code");
  let img3 = Image.patch img2 [ (0, Instr.Jmp { target = Instr.Addr base }) ] in
  (match Image.fetch img3 0 with
  | Instr.Jmp { target = Instr.Addr a } -> Alcotest.(check int) "patched" base a
  | _ -> Alcotest.fail "patch failed");
  (* Patching is functional: the original image is untouched. *)
  match Image.fetch img2 0 with
  | Instr.Jmp _ -> Alcotest.fail "patch leaked"
  | _ -> ()

let test_image_append_rejects_labels () =
  let img = Program.layout (Progs.sum_to_n 4) in
  Alcotest.(check bool) "label rejected" true
    (try
       ignore (Image.append img ~name:"p" [| Instr.Jmp { target = Instr.Label "x" } |]);
       false
     with Vp_util.Error.Error { stage = "image"; _ } -> true)

let test_image_validate_catches_bad_target () =
  let img = Program.layout (Progs.sum_to_n 4) in
  let img2 = Image.patch img [ (0, Instr.Jmp { target = Instr.Addr 99999 }) ] in
  match Image.validate img2 with
  | Ok () -> Alcotest.fail "expected validation error"
  | Error _ -> ()

let test_builder_prologue_epilogue_shape () =
  let p = Progs.call_chain 1 in
  let gamma = Option.get (Program.find_func p "gamma") in
  let blocks = Func.blocks gamma in
  let first = List.hd blocks in
  let last = List.nth blocks (List.length blocks - 1) in
  Alcotest.(check string) "prologue label" "gamma$prologue" (Block.label first);
  Alcotest.(check string) "epilogue label" "gamma$epilogue" (Block.label last);
  (* Prologue starts by allocating the frame. *)
  (match Block.body first with
  | Instr.Alu { op = Op.Add; dst; src1; src2 = Instr.Imm n } :: _ ->
    Alcotest.(check bool) "sp adjust" true (Reg.equal dst Reg.sp && Reg.equal src1 Reg.sp);
    Alcotest.(check bool) "negative" true (n < 0)
  | _ -> Alcotest.fail "prologue missing frame allocation");
  (* Epilogue ends in ret. *)
  match List.rev (Block.body last) with
  | Instr.Ret :: _ -> ()
  | _ -> Alcotest.fail "epilogue missing ret"

let test_builder_saves_used_temps_only () =
  (* A tiny function touches few temporaries; its prologue must be
     correspondingly small. *)
  let b = B.create () in
  B.func b "tiny" ~nargs:1 (fun fb args -> B.ret fb (Some args.(0)));
  B.func b "main" ~nargs:0 (fun fb _ ->
      let x = B.vreg fb in
      B.li fb x 3;
      let r = B.call fb "tiny" [ x ] in
      B.ret fb (Some r);
      B.halt fb);
  let p = B.program b ~entry:"main" in
  let tiny = Option.get (Program.find_func p "tiny") in
  let prologue = List.hd (Func.blocks tiny) in
  (* frame alloc + 1 temp save (the arg copy) + ra save *)
  Alcotest.(check int) "prologue length" 3 (Block.size prologue)

let test_builder_spill_allocation () =
  let p = Progs.spill_heavy 30 in
  let img = Program.layout p in
  match Image.validate img with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_builder_label_collision_free () =
  (* Two functions with structurally identical bodies must not collide
     on labels. *)
  let b = B.create () in
  let body fb (args : B.vreg array) =
    B.if_ fb (Op.Lt, args.(0), B.K 0)
      (fun () -> B.ret fb (Some args.(0)))
      (fun () -> B.ret fb (Some args.(0)))
  in
  B.func b "one" ~nargs:1 body;
  B.func b "two" ~nargs:1 body;
  B.func b "main" ~nargs:0 (fun fb _ ->
      let x = B.vreg fb in
      B.li fb x 1;
      let _ = B.call fb "one" [ x ] in
      let _ = B.call fb "two" [ x ] in
      B.halt fb);
  let p = B.program b ~entry:"main" in
  Alcotest.(check int) "three functions" 3 (List.length p.Program.funcs)

let test_builder_global_layout () =
  let b = B.create () in
  let g1 = B.global b ~words:4 in
  let g2 = B.global_init b [ 9; 8 ] in
  Alcotest.(check int) "first global at break" 16 g1;
  Alcotest.(check int) "second after first" 20 g2;
  B.func b "main" ~nargs:0 (fun fb _ -> B.halt fb);
  let p = B.program b ~entry:"main" in
  Alcotest.(check int) "break advanced" 22 p.Program.data_break;
  Alcotest.(check (list (pair int int))) "init data" [ (20, 9); (21, 8) ]
    p.Program.data_init

let test_static_size_counts () =
  let p = Progs.sum_to_n 10 in
  let img = Program.layout p in
  Alcotest.(check int) "program size = image size" (Program.static_size p)
    (Image.size img);
  Alcotest.(check bool) "static count <= size" true
    (Image.static_instruction_count img <= Image.size img)

(* Property: layout of random programs validates and roundtrips sizes. *)
let prop_layout_validates =
  QCheck.Test.make ~name:"random program layout validates" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let p = Progs.random_arith ~seed in
      let img = Vp_prog.Program.layout p in
      match Image.validate img with Ok () -> true | Error _ -> false)

let () =
  Alcotest.run "vp_prog"
    [
      ( "block",
        [
          Alcotest.test_case "terminator invariant" `Quick test_block_terminator_invariant;
        ] );
      ( "func/program",
        [
          Alcotest.test_case "func invariants" `Quick test_func_invariants;
          Alcotest.test_case "program invariants" `Quick test_program_invariants;
        ] );
      ( "layout",
        [
          Alcotest.test_case "addresses and resolution" `Quick
            test_layout_addresses_and_resolution;
          Alcotest.test_case "undefined label" `Quick test_layout_undefined_label;
          Alcotest.test_case "static sizes" `Quick test_static_size_counts;
          QCheck_alcotest.to_alcotest prop_layout_validates;
        ] );
      ( "image",
        [
          Alcotest.test_case "append and patch" `Quick test_image_append_and_patch;
          Alcotest.test_case "append rejects labels" `Quick test_image_append_rejects_labels;
          Alcotest.test_case "validate bad target" `Quick test_image_validate_catches_bad_target;
        ] );
      ( "builder",
        [
          Alcotest.test_case "prologue/epilogue shape" `Quick
            test_builder_prologue_epilogue_shape;
          Alcotest.test_case "saves used temps only" `Quick
            test_builder_saves_used_temps_only;
          Alcotest.test_case "spill allocation" `Quick test_builder_spill_allocation;
          Alcotest.test_case "label collisions" `Quick test_builder_label_collision_free;
          Alcotest.test_case "global layout" `Quick test_builder_global_layout;
        ] );
    ]
