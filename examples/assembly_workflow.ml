(* The whole system without the OCaml DSL: a program written in
   textual assembly goes through the assembler, the emulator, the Hot
   Spot Detector and the packaging pipeline.

     dune exec examples/assembly_workflow.exe *)

module Asm = Vp_prog.Asm
module Program = Vp_prog.Program
module Emulator = Vp_exec.Emulator

(* Two phases: a long polynomial-evaluation loop, then a long
   bit-mixing loop, repeated.  The rare branch inside each loop gives
   the packages something to specialise. *)
let source =
  {|
; vector of coefficients
.data 80

.func poly
poly$entry:
  li t0, #0          ; acc
  li t1, #0          ; i
poly$head:
  bge t1, a0, poly$done
  mul t0, t0, #3
  add t0, t0, t1
  and t2, t1, #63
  bne t2, zero, poly$skip
  xor t0, t0, #255   ; rare path: once every 64 iterations
poly$skip:
  and t0, t0, #1048575
  add t1, t1, #1
  jmp poly$head
poly$done:
  add a0, t0, #0
  ret

.func mix
mix$entry:
  li t0, #0
  li t1, #0
mix$head:
  bge t1, a0, mix$done
  shl t2, a1, #3
  xor t2, t2, t1
  add t0, t0, t2
  and t0, t0, #1048575
  add t1, t1, #1
  jmp mix$head
mix$done:
  add a0, t0, #0
  ret

.func main
main$entry:
  li t3, #0          ; round counter
  li t4, #1          ; running value
main$loop:
  li t5, #4
  bge t3, t5, main$done
  li a0, #6000
  call poly
  add t4, a0, t4
  li a0, #6000
  add a1, t4, #0
  call mix
  xor t4, t4, a0
  add t3, t3, #1
  jmp main$loop
main$done:
  add a0, t4, #0
  halt
.entry main
|}

let () =
  let program =
    match Asm.parse_program source with
    | Ok p -> p
    | Error e ->
      Format.eprintf "assembly error: %a@." Asm.pp_error e;
      exit 1
  in
  let image = Program.layout program in
  Printf.printf "assembled %d instructions across %d functions\n"
    (Vp_prog.Image.size image)
    (List.length program.Program.funcs);

  let config = Vacuum.Config.with_detector Vp_hsd.Config.tiny Vacuum.Config.default in
  let profile = Vacuum.Driver.profile ~config image in
  Printf.printf "run: %d instructions, result %d\n"
    profile.Vacuum.Driver.outcome.Emulator.instructions
    profile.Vacuum.Driver.outcome.Emulator.result;
  Printf.printf "detected %d unique phases from %d recordings\n"
    (Vp_phase.Phase_log.unique_count profile.Vacuum.Driver.log)
    (List.length profile.Vacuum.Driver.snapshots);

  let rewrite = Vacuum.Driver.rewrite_of_profile ~config profile in
  List.iter
    (fun p ->
      Printf.printf "  %-22s %2d blocks rooted at %s\n" p.Vp_package.Pkg.id
        (Array.length p.Vp_package.Pkg.blocks)
        p.Vp_package.Pkg.root)
    rewrite.Vacuum.Driver.packages;

  let coverage = Vacuum.Coverage.measure ~config rewrite in
  Printf.printf "rewritten binary: %.1f%% of execution in packages, equivalent=%b\n"
    coverage.Vacuum.Coverage.coverage_pct coverage.Vacuum.Coverage.equivalent
