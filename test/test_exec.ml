(* Tests for vp_exec: architectural semantics end-to-end through the
   builder, layout and emulator. *)

module Program = Vp_prog.Program
module Image = Vp_prog.Image
module Emulator = Vp_exec.Emulator
module State = Vp_exec.State
module Progs = Vp_test_support.Progs

let run p = Emulator.run_backend (Program.layout p)

let test_sum_loop () =
  let o = run (Progs.sum_to_n 100) in
  Alcotest.(check bool) "halted" true o.Emulator.halted;
  Alcotest.(check int) "sum 0..99" 4950 o.Emulator.result

let test_sum_zero_iterations () =
  let o = run (Progs.sum_to_n 0) in
  Alcotest.(check int) "empty loop" 0 o.Emulator.result

let test_factorial_recursion () =
  let o = run (Progs.factorial 10) in
  Alcotest.(check int) "10!" 3628800 o.Emulator.result

let test_factorial_base_case () =
  let o = run (Progs.factorial 1) in
  Alcotest.(check int) "1!" 1 o.Emulator.result

let test_deep_recursion_stack () =
  let o = run (Progs.factorial 200) in
  (* The value overflows; what matters is that 200 nested frames work. *)
  Alcotest.(check bool) "halted" true o.Emulator.halted

let test_call_chain () =
  let o = run (Progs.call_chain 5) in
  (* gamma: 5+100=105; beta: 210; alpha: 211 *)
  Alcotest.(check int) "chained" 211 o.Emulator.result

let test_spill_correctness () =
  let o = run (Progs.spill_heavy 30) in
  Alcotest.(check int) "sum with spills" (30 * 31 / 2) o.Emulator.result

let test_global_rw () =
  let o = run (Progs.global_rw ()) in
  Alcotest.(check int) "globals" (2 * (5 + 6 + 7)) o.Emulator.result

let test_two_phase_runs () =
  let o = run (Progs.two_phase ~iters_per_phase:50 ~repeats:3) in
  Alcotest.(check bool) "halted" true o.Emulator.halted;
  Alcotest.(check bool) "substantial work" true (o.Emulator.instructions > 1000)

let test_fuel_exhaustion () =
  (* An infinite loop: while (0 == 0). *)
  let module B = Vp_prog.Builder in
  let b = B.create () in
  B.func b "main" ~nargs:0 (fun fb _ ->
      let z = B.vreg fb in
      B.li fb z 0;
      B.while_ fb (fun () -> (Vp_isa.Op.Eq, z, B.K 0)) (fun () -> ());
      B.halt fb);
  let o = Emulator.run_backend ~fuel:10_000 (Program.layout (B.program b ~entry:"main")) in
  Alcotest.(check bool) "not halted" false o.Emulator.halted;
  Alcotest.(check int) "fuel consumed" 10_000 o.Emulator.instructions

(* The differential oracle's verdict needs both runs to halt: two runs
   that ran out of fuel prove nothing, even with matching state. *)
let test_equivalent_requires_halting () =
  let o = run (Progs.two_phase ~iters_per_phase:50 ~repeats:3) in
  let cut = { o with Emulator.halted = false } in
  Alcotest.(check bool) "halted runs agree" true
    (Emulator.equivalent ~reference:o o);
  Alcotest.(check bool) "non-halting pair" false
    (Emulator.equivalent ~reference:cut cut);
  Alcotest.(check bool) "non-halting candidate" false
    (Emulator.equivalent ~reference:o cut);
  Alcotest.(check bool) "non-halting reference" false
    (Emulator.equivalent ~reference:cut o);
  Alcotest.(check bool) "result differs" false
    (Emulator.equivalent ~reference:o
       { o with Emulator.result = o.Emulator.result + 1 });
  Alcotest.(check bool) "checksum differs" false
    (Emulator.equivalent ~reference:o
       { o with Emulator.checksum = o.Emulator.checksum + 1 })

(* Builder control-flow surface not exercised by the shared programs:
   break/continue, raw labels and frame locals. *)
let test_builder_break_continue () =
  let module B = Vp_prog.Builder in
  let module Op = Vp_isa.Op in
  let b = B.create () in
  B.func b "main" ~nargs:0 (fun fb _ ->
      let acc = B.vreg fb in
      let i = B.vreg fb in
      let m = B.vreg fb in
      B.li fb acc 0;
      B.for_ fb i ~from:(B.K 0) ~below:(B.K 100) (fun () ->
          B.when_ fb (Op.Eq, i, B.K 7) (fun () -> B.break_ fb);
          B.alu fb Op.Rem m i (B.K 2);
          B.when_ fb (Op.Eq, m, B.K 0) (fun () -> B.continue_ fb);
          B.alu fb Op.Add acc acc (B.V i));
      B.ret fb (Some acc);
      B.halt fb);
  let o = Emulator.run_backend (Program.layout (B.program b ~entry:"main")) in
  (* Odd values below 7: 1 + 3 + 5. *)
  Alcotest.(check int) "break/continue semantics" 9 o.Emulator.result

let test_builder_raw_labels () =
  (* An irregular shape built from goto/branch/place_label: a bottom-
     tested loop. *)
  let module B = Vp_prog.Builder in
  let module Op = Vp_isa.Op in
  let b = B.create () in
  B.func b "main" ~nargs:0 (fun fb _ ->
      let acc = B.vreg fb in
      let i = B.vreg fb in
      B.li fb acc 0;
      B.li fb i 0;
      let head = B.new_label fb in
      B.place_label fb head;
      B.alu fb Op.Add acc acc (B.V i);
      B.addi fb i i 1;
      B.branch fb (Op.Lt, i, B.K 10) head;
      let out = B.new_label fb in
      B.goto fb out;
      (* Dead code the goto skips. *)
      B.li fb acc 999;
      B.place_label fb out;
      B.ret fb (Some acc);
      B.halt fb);
  let o = Emulator.run_backend (Program.layout (B.program b ~entry:"main")) in
  Alcotest.(check int) "bottom-tested loop" 45 o.Emulator.result

let test_builder_frame_locals () =
  let module B = Vp_prog.Builder in
  let module Op = Vp_isa.Op in
  let b = B.create () in
  B.func b "main" ~nargs:0 (fun fb _ ->
      let buf = B.local fb ~words:8 in
      let base = B.vreg fb in
      let i = B.vreg fb in
      let v = B.vreg fb in
      let acc = B.vreg fb in
      B.local_addr fb base buf;
      B.for_ fb i ~from:(B.K 0) ~below:(B.K 8) (fun () ->
          B.alu fb Op.Mul v i (B.V i);
          B.alu fb Op.Add v v (B.K 1);
          let slot = B.vreg fb in
          B.alu fb Op.Add slot base (B.V i);
          B.store fb v ~base:slot ~off:0);
      B.li fb acc 0;
      B.for_ fb i ~from:(B.K 0) ~below:(B.K 8) (fun () ->
          let slot = B.vreg fb in
          B.alu fb Op.Add slot base (B.V i);
          B.load fb v ~base:slot ~off:0;
          B.alu fb Op.Add acc acc (B.V v));
      B.ret fb (Some acc);
      B.halt fb);
  let o = Emulator.run_backend (Program.layout (B.program b ~entry:"main")) in
  (* sum of i^2 + 1 for i in 0..7 = 140 + 8. *)
  Alcotest.(check int) "frame-local array" 148 o.Emulator.result

let test_branch_observation () =
  let img = Program.layout (Progs.biased_branch ~iters:1000 ~bias_mod:10) in
  let seen = ref 0 in
  let taken_count = ref 0 in
  let o =
    Emulator.run_backend
      ~on_branch:(fun ~pc:_ ~taken ->
        incr seen;
        if taken then incr taken_count)
      img
  in
  Alcotest.(check int) "observer count matches outcome" o.Emulator.cond_branches !seen;
  Alcotest.(check bool) "some taken" true (!taken_count > 0);
  Alcotest.(check bool) "some not taken" true (!taken_count < !seen)

let test_aggregate_profile_bias () =
  let img = Program.layout (Progs.biased_branch ~iters:1000 ~bias_mod:10) in
  let profile = (Vacuum.Driver.profile img).Vacuum.Driver.aggregate in
  (* Find the if-branch: it executes 1000 times, taken 900 (the 'else'
     arm is the common direction). *)
  let found = ref false in
  Vp_exec.Branch_profile.iter
    (fun ~pc:_ ~executed ~taken ->
      if executed = 1000 && taken = 900 then found := true)
    profile;
  Alcotest.(check bool) "biased branch profiled" true !found

let test_event_stream_consistency () =
  let img = Program.layout (Progs.sum_to_n 20) in
  let events = ref [] in
  let on_retire ~pc ~taken:_ ~next_pc ~mem_addr:_ =
    events := (pc, next_pc) :: !events
  in
  let o = Emulator.run_backend ~on_retire img in
  let events = List.rev !events in
  Alcotest.(check int) "one event per instruction" o.Emulator.instructions
    (List.length events);
  (* next_pc chains: each event's next_pc equals the next event's pc. *)
  let rec chain = function
    | (_, next_pc) :: (((pc, _) :: _) as rest) ->
      Alcotest.(check int) "pc chain" pc next_pc;
      chain rest
    | _ -> ()
  in
  chain events

let test_package_instruction_accounting () =
  (* Redirect the entry through appended code and check the counters. *)
  let img = Program.layout (Progs.sum_to_n 5) in
  let entry_instr = Image.fetch img img.Image.entry in
  let img2, base =
    Image.append img ~name:"pkg" [| entry_instr; Vp_isa.Instr.Jmp { target = Vp_isa.Instr.Addr (img.Image.entry + 1) } |]
  in
  let img3 =
    Image.patch img2 [ (img2.Image.entry, Vp_isa.Instr.Jmp { target = Vp_isa.Instr.Addr base }) ]
  in
  let o = Emulator.run_backend img3 in
  Alcotest.(check bool) "halted" true o.Emulator.halted;
  Alcotest.(check int) "package instructions" 2 o.Emulator.package_instructions

let test_checksum_stability () =
  let a = run (Progs.two_phase ~iters_per_phase:20 ~repeats:2) in
  let b = run (Progs.two_phase ~iters_per_phase:20 ~repeats:2) in
  Alcotest.(check int) "deterministic checksum" a.Emulator.checksum b.Emulator.checksum;
  let c = run (Progs.two_phase ~iters_per_phase:21 ~repeats:2) in
  Alcotest.(check bool) "different program, different checksum" true
    (a.Emulator.checksum <> c.Emulator.checksum)

(* ------------------------------------------------------------------ *)
(* The decoded form, and the lazy unresolved-label faults its tags
   carry. *)

module Decode = Vp_exec.Decode
module Instr = Vp_isa.Instr
module Reg = Vp_isa.Reg

let test_decode_tables_match_instr () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:5 ~repeats:2) in
  let d = Decode.of_image img in
  Alcotest.(check int) "size" (Array.length img.Image.code) (Decode.size d);
  Array.iteri
    (fun pc i ->
      Alcotest.(check int)
        (Printf.sprintf "target at pc %d" pc)
        (match Instr.target i with Some (Instr.Addr a) -> a | _ -> -1)
        d.Decode.target.(pc))
    img.Image.code

(* Unresolved [Label] targets must fault lazily — exactly when the
   instruction executes and (for branches) only when taken — with the
   same error payload on every backend. *)
let unresolved_branch_image ~taken =
  let r = Reg.of_int 8 in
  {
    Image.code =
      [|
        Instr.Li { dst = r; imm = (if taken then 0 else 1) };
        Instr.Br
          {
            cond = Vp_isa.Op.Eq;
            src1 = r;
            src2 = Reg.zero;
            target = Instr.Label "nowhere";
          };
        Instr.Halt;
      |];
    syms = [ { Image.name = "main"; start = 0; len = 3 } ];
    entry = 0;
    orig_limit = 3;
    data_init = [];
    data_break = 0;
  }

let on_every_backend f =
  List.iter (fun backend -> f (Emulator.backend_name backend) backend)
    Emulator.all_backends

let test_unresolved_branch_not_taken_runs () =
  on_every_backend (fun name backend ->
      let o =
        Emulator.run_backend ~backend (unresolved_branch_image ~taken:false)
      in
      Alcotest.(check bool) (name ^ ": halted") true o.Emulator.halted;
      Alcotest.(check int) (name ^ ": branch counted") 1
        o.Emulator.cond_branches)

let emulator_error ?pc ?label what =
  Vp_util.Error.Error
    { stage = "emulator"; what; pc; label }

let test_unresolved_branch_taken_faults () =
  on_every_backend (fun name backend ->
      Alcotest.check_raises
        (name ^ ": taken unresolved branch")
        (emulator_error ~label:"nowhere" "unresolved label nowhere")
        (fun () ->
          ignore
            (Emulator.run_backend ~backend
               (unresolved_branch_image ~taken:true))))

let jump_image target =
  {
    Image.code = [| Instr.Jmp { target }; Instr.Halt |];
    syms = [ { Image.name = "main"; start = 0; len = 2 } ];
    entry = 0;
    orig_limit = 2;
    data_init = [];
    data_break = 0;
  }

let test_unresolved_jmp_faults () =
  on_every_backend (fun name backend ->
      Alcotest.check_raises (name ^ ": unresolved jmp")
        (emulator_error ~label:"gone" "unresolved label gone") (fun () ->
          ignore
            (Emulator.run_backend ~backend (jump_image (Instr.Label "gone")))))

(* A jump past the image's last instruction faults at the target pc. *)
let test_jump_outside_image_faults () =
  on_every_backend (fun name backend ->
      Alcotest.check_raises (name ^ ": jump outside image")
        (emulator_error ~pc:1000 "pc 0x3e8 outside image") (fun () ->
          ignore
            (Emulator.run_backend ~backend (jump_image (Instr.Addr 1000)))))

let minor_words_during f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* ---- the state arena ---- *)

let arena_image = lazy (Program.layout (Progs.sum_to_n 10))

(* However many states were released, the states live at one time
   never share a memory region — a state released twice over included:
   taking it from the arena takes every copy. *)
let test_arena_no_sharing () =
  let img = Lazy.force arena_image in
  let create () = State.create ~mem_words:4096 img in
  let a = create () and b = create () in
  State.release b;
  State.release a;
  State.release a;
  let live = List.init 4 (fun _ -> create ()) in
  List.iteri (fun i s -> State.set_mem s 100 (i + 1)) live;
  List.iteri
    (fun i s ->
      Alcotest.(check int) (Printf.sprintf "state %d keeps its word" i) (i + 1)
        (State.mem s 100))
    live;
  List.iter State.release live;
  let fresh = create () in
  Alcotest.(check int) "recycled memory is scrubbed" 0 (State.mem fresh 100)

(* A run started from inside another run's observer takes its own
   state from the arena and hands it back, while the outer run keeps
   writing its own memory: both compute what they compute alone. *)
let test_arena_nested_run () =
  let outer = Program.layout (Progs.two_phase ~iters_per_phase:200 ~repeats:2) in
  let inner = Program.layout (Progs.factorial 6) in
  List.iter
    (fun backend ->
      let alone = Emulator.run_backend ~backend outer in
      let inner_alone = Emulator.run_backend ~backend inner in
      (* Fill the arena with both slots first. *)
      ignore (Emulator.run_backend ~backend inner);
      ignore (Emulator.run_backend ~backend outer);
      let nested = ref 0 in
      let on_branch ~pc:_ ~taken:_ =
        if !nested < 5 then begin
          incr nested;
          let o = Emulator.run_backend ~backend inner in
          Alcotest.(check int) "inner checksum" inner_alone.Emulator.checksum
            o.Emulator.checksum
        end
      in
      let o = Emulator.run_backend ~backend ~on_branch outer in
      let name = Emulator.backend_name backend in
      Alcotest.(check int) (name ^ ": nested runs") 5 !nested;
      Alcotest.(check int) (name ^ ": outer checksum") alone.Emulator.checksum
        o.Emulator.checksum;
      Alcotest.(check int) (name ^ ": outer result") alone.Emulator.result
        o.Emulator.result)
    Emulator.all_backends

let prop_random_programs_halt =
  QCheck.Test.make ~name:"random arithmetic programs halt deterministically" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let img = Program.layout (Progs.random_arith ~seed) in
      let a = Emulator.run_backend img in
      let b = Emulator.run_backend img in
      a.Emulator.halted && a.Emulator.checksum = b.Emulator.checksum
      && a.Emulator.result = b.Emulator.result)

let prop_spill_sum_matches_closed_form =
  QCheck.Test.make ~name:"spill-heavy sums match closed form" ~count:20
    QCheck.(int_range 1 30)
    (fun n ->
      let o = Emulator.run_backend (Program.layout (Progs.spill_heavy n)) in
      o.Emulator.result = n * (n + 1) / 2)

(* ------------------------------------------------------------------ *)
(* Compiled backend: block partitioning, memoization, fuel-boundary
   parity with the reference oracle, and allocation flatness of the
   threaded-code retire loop. *)

let test_compile_memoizes_on_identity () =
  let img = Program.layout (Progs.sum_to_n 10) in
  let c1 = Vp_exec.Compile.of_image img in
  let c2 = Vp_exec.Compile.of_image img in
  Alcotest.(check bool) "same physical image, same compile" true (c1 == c2)

let test_compile_blocks_partition_image () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:10 ~repeats:2) in
  let c = Vp_exec.Compile.of_image img in
  let n = Array.length img.Image.code in
  let nb = Vp_exec.Compile.block_count c in
  Alcotest.(check bool) "has blocks" true (nb > 0);
  let covered = Array.make n 0 in
  for b = 0 to nb - 1 do
    let start, len = Vp_exec.Compile.block_bounds c b in
    Alcotest.(check bool)
      (Printf.sprintf "block %d in range" b)
      true
      (start >= 0 && len > 0 && start + len <= n);
    Alcotest.(check int)
      (Printf.sprintf "leader of block %d maps back" b)
      b
      (Vp_exec.Compile.block_of_pc c start);
    for pc = start to start + len - 1 do
      covered.(pc) <- covered.(pc) + 1;
      if pc > start then
        Alcotest.(check int)
          (Printf.sprintf "pc %d is mid-block" pc)
          (-1)
          (Vp_exec.Compile.block_of_pc c pc)
    done
  done;
  Array.iteri
    (fun pc k ->
      Alcotest.(check int)
        (Printf.sprintf "pc %d covered exactly once" pc)
        1 k)
    covered

(* The observation stream of one run — both channels, interleaved in
   the order they fired — and how the run ended. *)
type obs = Branch of int * bool | Retire of int * bool * int * int

let observe_stream run =
  let log = ref [] in
  let on_branch ~pc ~taken = log := Branch (pc, taken) :: !log in
  let on_retire ~pc ~taken ~next_pc ~mem_addr =
    log := Retire (pc, taken, next_pc, mem_addr) :: !log
  in
  let ending =
    match run ~on_branch ~on_retire with
    | o ->
      Ok
        ( o.Emulator.instructions,
          o.Emulator.package_instructions,
          o.Emulator.cond_branches,
          o.Emulator.halted,
          o.Emulator.checksum,
          o.Emulator.final_pc )
    | exception e -> Error (Printexc.to_string e)
  in
  (List.rev !log, ending)

(* The compiled backend must feed its observers the reference
   interpreter's exact stream: it reports a retirement run per block
   and [Emulator] expands it, so a fault inside a block, a fuel cut
   inside a block and a not-taken unresolved branch each exercise a
   different edge of that expansion. *)
let check_stream_parity name ?fuel img =
  let stream backend =
    observe_stream (fun ~on_branch ~on_retire ->
        Emulator.run_backend ~backend ?fuel ~on_branch ~on_retire img)
  in
  let want, want_end = stream Emulator.Reference in
  let got, got_end = stream Emulator.Compiled in
  let tag what = Printf.sprintf "%s: %s" name what in
  Alcotest.(check bool) (tag "same ending") true (want_end = got_end);
  Alcotest.(check int) (tag "stream length") (List.length want)
    (List.length got);
  Alcotest.(check bool) (tag "same stream") true (want = got)

(* Every fuel value from 0 up past the program's full length: each one
   lands the cutoff somewhere else relative to the block boundaries, so
   this sweeps the block entry, the boundary interpreter and the
   exhaustion edge against the reference interpreter — outcomes
   (package instructions included, since every entry charges its
   block's package count) and the observation stream alike. *)
let check_fuel_sweep name img =
  let reference ?fuel () =
    Emulator.run_backend ~backend:Emulator.Reference ?fuel img
  in
  let full = (reference ()).Emulator.instructions in
  for fuel = 0 to full + 5 do
    let a = reference ~fuel () in
    let b = Emulator.run_backend ~backend:Emulator.Compiled ~fuel img in
    let tag what = Printf.sprintf "%s, fuel %d: %s" name fuel what in
    Alcotest.(check int) (tag "instructions") a.Emulator.instructions
      b.Emulator.instructions;
    Alcotest.(check int) (tag "package instructions")
      a.Emulator.package_instructions b.Emulator.package_instructions;
    Alcotest.(check int) (tag "cond branches") a.Emulator.cond_branches
      b.Emulator.cond_branches;
    Alcotest.(check bool) (tag "halted") a.Emulator.halted b.Emulator.halted;
    Alcotest.(check int) (tag "checksum") a.Emulator.checksum
      b.Emulator.checksum;
    Alcotest.(check int) (tag "final pc") a.Emulator.final_pc
      b.Emulator.final_pc;
    check_stream_parity (tag "stream") ~fuel img
  done

(* A small rewritten image: the entry jumps into appended package code
   that replicates the entry instruction, falls through into a second
   package block (a leader only because an unreachable jump targets
   it), and jumps back.  Block entries in package space charge package
   instructions, so the sweep cuts fuel inside and around them. *)
let package_chain_image () =
  let img = Program.layout (Progs.sum_to_n 5) in
  let entry = img.Image.entry in
  let base = Array.length img.Image.code in
  let addr a = Instr.Addr a in
  let img2, base' =
    Image.append img ~name:"pkg"
      [|
        Image.fetch img entry;
        Instr.Nop;
        Instr.Jmp { target = addr (entry + 1) };
        Instr.Jmp { target = addr (base + 1) };
      |]
  in
  assert (base' = base);
  Image.patch img2 [ (entry, Instr.Jmp { target = addr base }) ]

let test_compiled_fuel_boundary_parity () =
  check_fuel_sweep "factorial" (Program.layout (Progs.factorial 8));
  let img = package_chain_image () in
  let o = Emulator.run_backend ~backend:Emulator.Reference img in
  Alcotest.(check bool) "package chain halts" true o.Emulator.halted;
  Alcotest.(check int) "package chain package instructions" 3
    o.Emulator.package_instructions;
  check_fuel_sweep "package chain" img

(* [run_slice]'s run observer: cut into slices of every size from 1 to
   24, the runs of each backend must cover exactly the retirements of
   one uncut per-instruction run, in order, each with its pc, next pc
   and (for loads and stores) effective address.  The branch stream
   [run_slice] derives from those runs (native on the reference
   interpreter) must equal the reference's uncut [on_branch] stream at
   every cut too. *)
let test_slice_run_feed_parity () =
  let img = Program.layout (Progs.factorial 8) in
  let d = Vp_exec.Compile.(decode (of_image img)) in
  let want = ref [] and want_branches = ref [] in
  let (_ : Emulator.outcome) =
    Emulator.run_backend ~backend:Emulator.Reference
      ~on_branch:(fun ~pc ~taken -> want_branches := (pc, taken) :: !want_branches)
      ~on_retire:(fun ~pc ~taken:_ ~next_pc ~mem_addr ->
        want := (pc, next_pc, mem_addr) :: !want)
      img
  in
  let want = List.rev !want and want_branches = List.rev !want_branches in
  Alcotest.(check bool) "branches observed" true (want_branches <> []);
  List.iter
    (fun backend ->
      for cut = 1 to 24 do
        let got = ref [] in
        let on_run ~addrs ~start ~len ~taken:_ ~next_pc =
          for pc = start to start + len - 1 do
            let t = d.Decode.tag.(pc) in
            let mem_addr =
              if t = Decode.tag_load || t = Decode.tag_store then
                addrs.(pc - start)
              else -1
            in
            let np = if pc = start + len - 1 then next_pc else pc + 1 in
            got := (pc, np, mem_addr) :: !got
          done
        in
        let branches = ref [] in
        let on_branch ~pc ~taken = branches := (pc, taken) :: !branches in
        let state = State.create ~mem_words:(1 lsl 20) img in
        let halted = ref false in
        while not !halted do
          let o =
            Emulator.run_slice ~backend ~state ~fuel:cut ~on_branch ~on_run img
          in
          halted := o.Emulator.halted
        done;
        let name = Emulator.backend_name backend in
        Alcotest.(check bool)
          (Printf.sprintf "%s, slices of %d" name cut)
          true
          (want = List.rev !got);
        Alcotest.(check bool)
          (Printf.sprintf "%s, branches in slices of %d" name cut)
          true
          (want_branches = List.rev !branches)
      done)
    Emulator.all_backends

(* A block that stores, then faults on a load before its terminator:
   the retired prefix (with the store's address) must reach the
   observers before the fault propagates, and nothing of the faulting
   load may.  The sweep also cuts fuel at every point of the block. *)
let test_run_feed_mid_block_fault () =
  let r n = Reg.of_int n in
  let img =
    {
      Image.code =
        [|
          Instr.Li { dst = r 8; imm = 7 };
          Instr.Li { dst = r 9; imm = 0 };
          Instr.Alu
            {
              op = Vp_isa.Op.Add;
              dst = r 10;
              src1 = r 8;
              src2 = Instr.Reg (r 9);
            };
          Instr.Store { src = r 8; base = r 9; offset = 100 };
          Instr.Load { dst = r 11; base = r 8; offset = 999_999_999 };
          Instr.Halt;
        |];
      syms = [ { Image.name = "main"; start = 0; len = 6 } ];
      entry = 0;
      orig_limit = 6;
      data_init = [];
      data_break = 0;
    }
  in
  check_stream_parity "mid-block fault" img;
  for fuel = 0 to 6 do
    check_stream_parity (Printf.sprintf "mid-block fault, fuel %d" fuel) ~fuel
      img
  done

(* Out-of-range loads and stores fault with the reference
   interpreter's exact message, pc context included, on every backend:
   the reference interpreter, the fast compiled variant, and the
   run-observed one, which must also report the retired prefix of the
   faulting block (the run [3, 4) after the run [0, 3)).  The bounds
   are exact whatever the memory's page layout.  An address far out of
   range from a builder program faults too. *)
let test_memory_fault () =
  let module B = Vp_prog.Builder in
  let b = B.create () in
  B.func b "main" ~nargs:0 (fun fb _ ->
      let v = B.vreg fb in
      B.load_abs fb v 999_999_999;
      B.halt fb);
  let img = Program.layout (B.program b ~entry:"main") in
  Alcotest.(check bool) "fault raised" true
    (try
       ignore (Emulator.run_backend img);
       false
     with State.Fault _ -> true);
  let r n = Reg.of_int n in
  let image ~store addr =
    {
      Image.code =
        [|
          Instr.Li { dst = r 8; imm = 7 };
          Instr.Li { dst = r 9; imm = addr };
          Instr.Jmp { target = Instr.Addr 3 };
          Instr.Alu
            {
              op = Vp_isa.Op.Add;
              dst = r 10;
              src1 = r 8;
              src2 = Instr.Reg (r 8);
            };
          (if store then Instr.Store { src = r 8; base = r 9; offset = 0 }
           else Instr.Load { dst = r 11; base = r 9; offset = 0 });
          Instr.Halt;
        |];
      syms = [ { Image.name = "main"; start = 0; len = 6 } ];
      entry = 0;
      orig_limit = 6;
      data_init = [];
      data_break = 0;
    }
  in
  List.iter
    (fun (mem_words, store, addr) ->
      let img = image ~store addr in
      let want =
        Printf.sprintf "%s %d out of range (pc=0x4)"
          (if store then "store to" else "load from")
          addr
      in
      let fault name run =
        match run () with
        | (_ : Emulator.outcome) -> Alcotest.failf "%s: no fault" name
        | exception State.Fault msg ->
          Alcotest.(check string) (name ^ ": message") want msg
      in
      let runs = ref [] in
      let on_run ~addrs:_ ~start ~len ~taken:_ ~next_pc:_ =
        runs := (start, len) :: !runs
      in
      let case what =
        Printf.sprintf "%s at %d of %d, %s"
          (if store then "store" else "load")
          addr mem_words what
      in
      fault (case "reference") (fun () ->
          Emulator.run_backend ~backend:Emulator.Reference ~mem_words ~on_run
            img);
      Alcotest.(check (list (pair int int)))
        (case "reference retirements")
        [ (0, 1); (1, 1); (2, 1); (3, 1) ]
        (List.rev !runs);
      fault (case "compiled, fast") (fun () ->
          Emulator.run_backend ~backend:Emulator.Compiled ~mem_words img);
      runs := [];
      fault (case "compiled, observed") (fun () ->
          Emulator.run_backend ~backend:Emulator.Compiled ~mem_words ~on_run
            img);
      Alcotest.(check (list (pair int int)))
        (case "observed runs")
        [ (0, 3); (3, 1) ]
        (List.rev !runs))
    (List.concat_map
       (fun mem_words ->
         [
           (mem_words, false, -1);
           (mem_words, false, mem_words);
           (mem_words, true, -1);
           (mem_words, true, mem_words);
         ])
       (* one page, a partial last page, the default memory *)
       [ 1 lsl 12; 5_000; 1 lsl 20 ])

(* ---- demand-sized memory ---- *)

(* A one-function image of raw instructions, no data. *)
let raw_image code =
  {
    Image.code;
    syms = [ { Image.name = "main"; start = 0; len = Array.length code } ];
    entry = 0;
    orig_limit = Array.length code;
    data_init = [];
    data_break = 0;
  }

(* The three cores every memory case runs on: the reference
   interpreter, the fast compiled variant and the run-observed one.
   Each case runs on a new domain, whose arena is empty, so every core
   grows its own memory regions instead of reusing the ones an earlier
   core grew. *)
let in_new_domain f = Domain.join (Domain.spawn f)

let three_cores =
  let noop ~addrs:_ ~start:_ ~len:_ ~taken:_ ~next_pc:_ = () in
  [
    ("reference", fun ~mem_words img ->
        Emulator.run_backend ~backend:Emulator.Reference ~mem_words img);
    ("compiled, fast", fun ~mem_words img ->
        Emulator.run_backend ~backend:Emulator.Compiled ~mem_words img);
    ("compiled, observed", fun ~mem_words img ->
        Emulator.run_backend ~backend:Emulator.Compiled ~mem_words
          ~on_run:noop img);
  ]

let r = Reg.of_int
let li d v = Instr.Li { dst = r d; imm = v }
let add_imm d s v = Instr.Alu { op = Vp_isa.Op.Add; dst = r d; src1 = r s; src2 = Instr.Imm v }
let load d base = Instr.Load { dst = r d; base = r base; offset = 0 }
let store s base = Instr.Store { src = r s; base = r base; offset = 0 }
let add_rv s = Instr.Alu { op = Vp_isa.Op.Add; dst = Reg.ret_value; src1 = Reg.ret_value; src2 = Instr.Reg (r s) }

let mix h v = (h * 31) + v

(* Words never stored read 0 anywhere in memory: in the data region
   (beside a stored word, and across a page boundary), in the gap up to
   the stack floor, and in the deep stack. *)
let test_unstored_words_read_zero () =
  let mem_words = 1 lsl 20 in
  let floor = mem_words - (1 lsl 16) in
  let addrs =
    [ 0; 6; 4095; 4096; 100_000; mem_words / 2; floor - 1; floor; floor + 10; mem_words - 1 ]
  in
  let img =
    raw_image
      (Array.of_list
         ([ li 8 77; li 9 5; store 8 9 ]
         @ List.concat_map (fun a -> [ li 9 a; load 10 9; add_rv 10 ]) addrs
         @ [ Instr.Halt ]))
  in
  List.iter
    (fun (core, run) ->
      let o = in_new_domain (fun () -> run ~mem_words img) in
      Alcotest.(check bool) (core ^ ": halted") true o.Emulator.halted;
      Alcotest.(check int) (core ^ ": loads read 0") 0 o.Emulator.result)
    three_cores

(* A store just below the stack floor and one at it both read back; only
   the first enters the store digest, identically on every core. *)
let test_stack_floor_stores () =
  let mem_words = 1 lsl 20 in
  let floor = mem_words - (1 lsl 16) in
  let img =
    raw_image
      [|
        li 8 11; li 9 (floor - 1); store 8 9;
        li 8 13; li 9 floor; store 8 9;
        li 9 (floor - 1); load 10 9; li 9 floor; load 11 9;
        Instr.Alu { op = Vp_isa.Op.Mul; dst = Reg.ret_value; src1 = r 10; src2 = Instr.Imm 100 };
        add_rv 11;
        Instr.Halt;
      |]
  in
  let checksum = mix (mix (mix 0 (floor - 1)) 11) 1113 in
  List.iter
    (fun (core, run) ->
      let o = in_new_domain (fun () -> run ~mem_words img) in
      Alcotest.(check int) (core ^ ": read back") 1113 o.Emulator.result;
      Alcotest.(check int) (core ^ ": checksum") checksum o.Emulator.checksum)
    three_cores

(* [n] words from [base] on: the writer stores a nonzero word into each,
   the reader sums them into the result register. *)
let sweep_image ~write ~base ~n =
  raw_image
    [|
      li 8 0;
      li 9 n;
      add_imm 11 8 base;
      (if write then add_imm 12 8 1 else load 12 11);
      (if write then store 12 11 else add_rv 12);
      add_imm 8 8 1;
      Instr.Br { cond = Vp_isa.Op.Lt; src1 = r 8; src2 = r 9; target = Instr.Addr 2 };
      Instr.Halt;
    |]

(* A run that follows a run of another image which dirtied memory reads
   only zeros, both when the dirty-word journal scrubs the recycled
   pages word by word and after it overflowed (more than 65,536 dirty
   words), in the data region and across the stack floor. *)
let test_recycled_memory_reads_zero () =
  let mem_words = 1 lsl 20 in
  List.iter
    (fun (base, n) ->
      let writer = sweep_image ~write:true ~base ~n
      and reader = sweep_image ~write:false ~base ~n in
      List.iter
        (fun (core, run) ->
          let case = Printf.sprintf "%s, %d words from %d" core n base in
          let w, o =
            in_new_domain (fun () ->
                let w = run ~mem_words writer in
                (w, run ~mem_words reader))
          in
          Alcotest.(check bool) (case ^ ": writer halted") true w.Emulator.halted;
          Alcotest.(check int) (case ^ ": reader sees zeros") 0 o.Emulator.result)
        three_cores)
    [
      (0, 1_000);
      (mem_words - 2_000, 2_000);
      (0, 70_000);
      (mem_words - 70_000, 70_000);
    ]

(* A fresh state is sized by what the image initialises, not by
   [mem_words]: on an empty arena (a new domain), creating the state of
   any A program reaches fewer than 64K words. *)
let test_state_footprint () =
  let mem_words = 1 lsl 20 in
  List.iter
    (fun (e : Vp_workloads.Registry.t) ->
      if e.Vp_workloads.Registry.input = "A" then begin
        let img = Program.layout (e.Vp_workloads.Registry.program ()) in
        let words =
          in_new_domain (fun () ->
              Obj.reachable_words (Obj.repr (State.create ~mem_words img)))
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %d words" (Vp_workloads.Registry.name e) words)
          true (words < 65_536)
      end)
    Vp_workloads.Registry.all

(* Compiled code writes the register file in place, so a write to r0
   must compile to nothing: every backend must still read r0 as zero
   after an ALU op, an immediate load and a memory load target it. *)
let test_zero_register_writes () =
  let r n = Reg.of_int n in
  let img =
    {
      Image.code =
        [|
          Instr.Li { dst = Reg.zero; imm = 5 };
          Instr.Li { dst = r 8; imm = 7 };
          Instr.Alu
            {
              op = Vp_isa.Op.Add;
              dst = Reg.zero;
              src1 = r 8;
              src2 = Instr.Reg (r 8);
            };
          Instr.Alu
            {
              op = Vp_isa.Op.Or;
              dst = Reg.zero;
              src1 = r 8;
              src2 = Instr.Imm 1;
            };
          Instr.Store { src = r 8; base = Reg.zero; offset = 100 };
          Instr.Load { dst = Reg.zero; base = Reg.zero; offset = 100 };
          Instr.Alu
            {
              op = Vp_isa.Op.Add;
              dst = Reg.ret_value;
              src1 = Reg.zero;
              src2 = Instr.Imm 0;
            };
          Instr.Halt;
        |];
      syms = [ { Image.name = "main"; start = 0; len = 8 } ];
      entry = 0;
      orig_limit = 8;
      data_init = [];
      data_break = 0;
    }
  in
  List.iter
    (fun backend ->
      let o = Emulator.run_backend ~backend img in
      Alcotest.(check int)
        (Emulator.backend_name backend ^ ": r0 reads zero")
        0 o.Emulator.result)
    Emulator.all_backends;
  check_stream_parity "zero register" img

(* A not-taken branch to an unresolved label retires (and is observed)
   like any branch; a taken one faults before either channel fires. *)
let test_run_feed_unresolved_branch () =
  check_stream_parity "unresolved, not taken"
    (unresolved_branch_image ~taken:false);
  check_stream_parity "unresolved, taken" (unresolved_branch_image ~taken:true)

(* The hot loop must not allocate per retired instruction: minor-heap
   allocation for a 10x longer run stays flat (the compiled form is
   memoized, the memory regions come from the arena, and the loop's
   scratch is unboxed).  90k extra instructions would show up as ~90k
   words at even one boxed word each; the slack is generous. *)
let test_compiled_allocation_flat () =
  let img =
    Program.layout (Progs.two_phase ~iters_per_phase:100_000 ~repeats:2)
  in
  let run fuel = ignore (Emulator.run_backend ~backend:Emulator.Compiled ~fuel img) in
  (* Warm the compile memo and the state arena. *)
  run 1_000;
  let short = minor_words_during (fun () -> run 10_000) in
  let long = minor_words_during (fun () -> run 100_000) in
  Alcotest.(check bool)
    (Printf.sprintf "compiled allocation flat (short %.0f, long %.0f)" short
       long)
    true
    (long -. short < 10_000.)

(* Same flatness with observers attached: the run-observed compiled
   variant reports one run per block through plain labeled ints and a
   reused address buffer, and [Emulator]'s expansion of those runs into
   the per-instruction channels adds no boxing either. *)
let test_compiled_observed_allocation_flat () =
  let img =
    Program.layout (Progs.two_phase ~iters_per_phase:100_000 ~repeats:2)
  in
  let c = Vp_exec.Compile.of_image img in
  let branches = ref 0 in
  let runs = ref 0 in
  let retired = ref 0 in
  let on_branch ~pc:_ ~taken:_ = incr branches in
  let on_run ~addrs:_ ~start:_ ~len ~taken:_ ~next_pc:_ =
    incr runs;
    retired := !retired + len
  in
  let run_runs fuel =
    let st = State.create ~mem_words:(1 lsl 20) img in
    ignore (Vp_exec.Compile.exec c st ~fuel ~on_run ());
    State.release st
  in
  let on_retire ~pc:_ ~taken:_ ~next_pc:_ ~mem_addr:_ = incr retired in
  let run_expanded fuel =
    ignore
      (Emulator.run_backend ~backend:Emulator.Compiled ~fuel ~on_branch
         ~on_retire img)
  in
  List.iter
    (fun (what, run) ->
      run 1_000;
      let short = minor_words_during (fun () -> run 10_000) in
      let long = minor_words_during (fun () -> run 100_000) in
      Alcotest.(check bool)
        (Printf.sprintf "%s allocation flat (short %.0f, long %.0f)" what short
           long)
        true
        (long -. short < 10_000.))
    [ ("run-observed", run_runs); ("expanded", run_expanded) ];
  Alcotest.(check bool) "observers fired" true
    (!branches > 0 && !runs > 0 && !retired > !runs)

(* The compiled backend exists for speed: on a paper workload it must
   run faster than the reference interpreter.  The best of five
   CPU-time runs per backend keeps scheduling noise out; the first
   compiled run also pays for compilation.  The margin is several-fold,
   so the gate does not flake. *)
let test_compiled_faster_than_reference () =
  let w = Option.get (Vp_workloads.Registry.find ~bench:"134.perl" ~input:"A") in
  let img = Program.layout (w.Vp_workloads.Registry.program ()) in
  let best backend =
    List.fold_left min infinity
      (List.init 5 (fun _ ->
           let t0 = Sys.time () in
           ignore (Emulator.run_backend ~backend ~fuel:1_000_000 img : Emulator.outcome);
           Sys.time () -. t0))
  in
  let reference = best Emulator.Reference in
  let compiled = best Emulator.Compiled in
  Alcotest.(check bool)
    (Printf.sprintf "compiled %.1f ms < reference %.1f ms" (compiled *. 1e3)
       (reference *. 1e3))
    true (compiled < reference)

let () =
  Alcotest.run "vp_exec"
    [
      ( "semantics",
        [
          Alcotest.test_case "sum loop" `Quick test_sum_loop;
          Alcotest.test_case "zero iterations" `Quick test_sum_zero_iterations;
          Alcotest.test_case "factorial" `Quick test_factorial_recursion;
          Alcotest.test_case "factorial base" `Quick test_factorial_base_case;
          Alcotest.test_case "deep recursion" `Quick test_deep_recursion_stack;
          Alcotest.test_case "call chain" `Quick test_call_chain;
          Alcotest.test_case "spills" `Quick test_spill_correctness;
          Alcotest.test_case "globals" `Quick test_global_rw;
          Alcotest.test_case "two-phase runs" `Quick test_two_phase_runs;
        ] );
      ( "machine",
        [
          Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
          Alcotest.test_case "memory fault" `Quick test_memory_fault;
          Alcotest.test_case "jump outside image" `Quick
            test_jump_outside_image_faults;
          Alcotest.test_case "package accounting" `Quick test_package_instruction_accounting;
          Alcotest.test_case "checksum stability" `Quick test_checksum_stability;
          Alcotest.test_case "equivalence needs halting" `Quick
            test_equivalent_requires_halting;
        ] );
      ( "builder-control",
        [
          Alcotest.test_case "break/continue" `Quick test_builder_break_continue;
          Alcotest.test_case "raw labels" `Quick test_builder_raw_labels;
          Alcotest.test_case "frame locals" `Quick test_builder_frame_locals;
        ] );
      ( "decode",
        [
          Alcotest.test_case "tables match Instr" `Quick
            test_decode_tables_match_instr;
          Alcotest.test_case "unresolved branch not taken" `Quick
            test_unresolved_branch_not_taken_runs;
          Alcotest.test_case "unresolved branch taken" `Quick
            test_unresolved_branch_taken_faults;
          Alcotest.test_case "unresolved jmp" `Quick test_unresolved_jmp_faults;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "memoized by identity" `Quick
            test_compile_memoizes_on_identity;
          Alcotest.test_case "blocks partition the image" `Quick
            test_compile_blocks_partition_image;
          Alcotest.test_case "fuel boundary parity" `Quick
            test_compiled_fuel_boundary_parity;
          Alcotest.test_case "slice run feed parity" `Quick
            test_slice_run_feed_parity;
          Alcotest.test_case "run feed: mid-block fault" `Quick
            test_run_feed_mid_block_fault;
          Alcotest.test_case "run feed: unresolved branch" `Quick
            test_run_feed_unresolved_branch;
          Alcotest.test_case "zero register swallows writes" `Quick
            test_zero_register_writes;
          Alcotest.test_case "zero per-instruction allocation" `Quick
            test_compiled_allocation_flat;
          Alcotest.test_case "zero per-instruction allocation (observed)"
            `Quick test_compiled_observed_allocation_flat;
          Alcotest.test_case "faster than reference" `Quick
            test_compiled_faster_than_reference;
        ] );
      ( "memory",
        [
          Alcotest.test_case "unstored words read zero" `Quick
            test_unstored_words_read_zero;
          Alcotest.test_case "stack floor stores" `Quick test_stack_floor_stores;
          Alcotest.test_case "recycled memory reads zero" `Quick
            test_recycled_memory_reads_zero;
          Alcotest.test_case "state footprint" `Quick test_state_footprint;
        ] );
      ( "arena",
        [
          Alcotest.test_case "live states never share memory" `Quick
            test_arena_no_sharing;
          Alcotest.test_case "nested run in a callback" `Quick
            test_arena_nested_run;
        ] );
      ( "observation",
        [
          Alcotest.test_case "branch observer" `Quick test_branch_observation;
          Alcotest.test_case "aggregate profile" `Quick test_aggregate_profile_bias;
          Alcotest.test_case "event stream" `Quick test_event_stream_consistency;
          QCheck_alcotest.to_alcotest prop_random_programs_halt;
          QCheck_alcotest.to_alcotest prop_spill_sum_matches_closed_form;
        ] );
    ]
