(* Tests for the textual assembly: instruction syntax, program parsing,
   printer/parser roundtrips on builder programs and workloads, and
   error reporting. *)

module Asm = Vp_prog.Asm
module Program = Vp_prog.Program
module Instr = Vp_isa.Instr
module Emulator = Vp_exec.Emulator
module Progs = Vp_test_support.Progs
module Registry = Vp_workloads.Registry

let parse_ok s =
  match Asm.parse_instr s with
  | Ok i -> i
  | Error e -> Alcotest.failf "parse %S: %s" s e

let roundtrip_instr s =
  Alcotest.(check string) s s (Instr.to_string (parse_ok s))

let test_instr_syntax () =
  List.iter roundtrip_instr
    [
      "add t0, t1, #5";
      "add t0, t1, t2";
      "sub a0, a1, #-3";
      "mul t3, t3, t3";
      "fdiv t5, t6, #16";
      "li t0, #42";
      "li t0, #-42";
      "la t2, some_label";
      "ld t0, 4(sp)";
      "st t1, -2(t0)";
      "beq t0, t1, loop";
      "bge zero, a0, 0x1f";
      "jmp exit";
      "call helper";
      "ret";
      "nop";
      "halt";
    ]

let test_instr_errors () =
  List.iter
    (fun s ->
      match Asm.parse_instr s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error _ -> ())
    [
      "";
      "frobnicate t0";
      "add t0, t1";
      "add x9, t1, #5";
      "li t0, 42";  (* missing # *)
      "ld t0, sp";
      "beq t0, #1, loop";  (* branches compare registers *)
      "ret t0";
    ]

let source =
  {|
; a classic: sum 0..n-1
.data 20
.init 16 7
.func sum
sum$entry:
  li t0, #0
  li t1, #0
sum$head:
  bge t1, a0, sum$done
  add t0, t0, t1
  add t1, t1, #1
  jmp sum$head
sum$done:
  add a0, t0, #0
  ret
.func main
main$entry:
  ld a0, 16(zero)     ; n comes from initialised memory
  call sum
  halt
.entry main
|}

let test_parse_and_run () =
  match Asm.parse_program source with
  | Error e -> Alcotest.failf "parse: %s" (Format.asprintf "%a" Asm.pp_error e)
  | Ok p ->
    Alcotest.(check int) "two functions" 2 (List.length p.Program.funcs);
    Alcotest.(check int) "data break" 20 p.Program.data_break;
    let o = Emulator.run_backend (Program.layout p) in
    Alcotest.(check bool) "halted" true o.Emulator.halted;
    Alcotest.(check int) "sum 0..6" 21 o.Emulator.result

let test_program_roundtrip_handwritten () =
  match Asm.parse_program source with
  | Error e -> Alcotest.failf "parse: %s" (Format.asprintf "%a" Asm.pp_error e)
  | Ok p -> (
    let printed = Asm.print_program p in
    match Asm.parse_program printed with
    | Error e -> Alcotest.failf "reparse: %s" (Format.asprintf "%a" Asm.pp_error e)
    | Ok p' -> Alcotest.(check bool) "structurally equal" true (p = p'))

let roundtrip_program name p =
  let printed = Asm.print_program p in
  match Asm.parse_program printed with
  | Error e ->
    Alcotest.failf "%s reparse: %s" name (Format.asprintf "%a" Asm.pp_error e)
  | Ok p' ->
    Alcotest.(check bool) (name ^ " roundtrips") true (p = p');
    (* And the behaviour is identical. *)
    let a = Emulator.run_backend ~fuel:2_000_000 (Program.layout p) in
    let b = Emulator.run_backend ~fuel:2_000_000 (Program.layout p') in
    Alcotest.(check int) (name ^ " same checksum") a.Emulator.checksum b.Emulator.checksum

let test_builder_roundtrips () =
  roundtrip_program "factorial" (Progs.factorial 8);
  roundtrip_program "two_phase" (Progs.two_phase ~iters_per_phase:50 ~repeats:2);
  roundtrip_program "spill_heavy" (Progs.spill_heavy 30);
  roundtrip_program "global_rw" (Progs.global_rw ())

let test_workload_roundtrips () =
  (* The full Table 1 programs, structural roundtrip only (no run). *)
  List.iter
    (fun (bench, input) ->
      let w = Option.get (Registry.find ~bench ~input) in
      let p = w.Registry.program () in
      let printed = Asm.print_program p in
      match Asm.parse_program printed with
      | Error e ->
        Alcotest.failf "%s: %s" (Registry.name w) (Format.asprintf "%a" Asm.pp_error e)
      | Ok p' ->
        Alcotest.(check bool) (Registry.name w ^ " roundtrips") true (p = p'))
    [ ("134.perl", "B"); ("181.mcf", "A"); ("130.li", "B") ]

let test_auto_split () =
  (* Code after a control instruction lands in an auto-labelled block. *)
  let src = ".func f\nf$b:\n  jmp f$b\n  ret\n.entry f\n" in
  match Asm.parse_program src with
  | Error e -> Alcotest.failf "parse: %s" (Format.asprintf "%a" Asm.pp_error e)
  | Ok p ->
    let f = List.hd p.Program.funcs in
    Alcotest.(check int) "two blocks" 2 (List.length (Vp_prog.Func.blocks f))

let test_program_errors () =
  let expect_error src fragment =
    match Asm.parse_program src with
    | Ok _ -> Alcotest.failf "should fail: %s" fragment
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error mentions %S (got %S)" fragment e.Asm.message)
        true
        (let n = String.length fragment and h = String.length e.Asm.message in
         let rec go i = i + n <= h && (String.sub e.Asm.message i n = fragment || go (i + 1)) in
         go 0)
  in
  expect_error ".func f\nf$b:\n  ret\n" "missing .entry";
  expect_error "  add t0, t1, #2\n.entry x" "outside any block";
  expect_error ".func f\nf$b:\n  bogus t1\n.entry f" "cannot parse";
  expect_error ".func f\nf$b:\n  jmp nowhere\n.entry f\n.func g" "no blocks"

(* Property: random builder programs roundtrip. *)
let prop_random_roundtrip =
  QCheck.Test.make ~name:"random programs roundtrip through assembly" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let p = Progs.random_arith ~seed in
      match Asm.parse_program (Asm.print_program p) with
      | Ok p' -> p = p'
      | Error _ -> false)

let () =
  Alcotest.run "vp_asm"
    [
      ( "instr",
        [
          Alcotest.test_case "syntax roundtrip" `Quick test_instr_syntax;
          Alcotest.test_case "errors" `Quick test_instr_errors;
        ] );
      ( "program",
        [
          Alcotest.test_case "parse and run" `Quick test_parse_and_run;
          Alcotest.test_case "handwritten roundtrip" `Quick
            test_program_roundtrip_handwritten;
          Alcotest.test_case "builder roundtrips" `Quick test_builder_roundtrips;
          Alcotest.test_case "workload roundtrips" `Quick test_workload_roundtrips;
          Alcotest.test_case "auto split" `Quick test_auto_split;
          Alcotest.test_case "errors" `Quick test_program_errors;
          QCheck_alcotest.to_alcotest prop_random_roundtrip;
        ] );
    ]
