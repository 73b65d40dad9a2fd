(* Tests for vp_opt: weight propagation, layout (branch flipping and
   hot chaining), the list scheduler's dependence preservation,
   superblock formation, exit sinking, and golden digests pinning the
   optimizer's output byte for byte. *)

module Instr = Vp_isa.Instr
module Op = Vp_isa.Op
module Reg = Vp_isa.Reg
module Pkg = Vp_package.Pkg
module Weights = Vp_opt.Weights
module Layout = Vp_opt.Layout_opt
module Schedule = Vp_opt.Schedule
module Opt = Vp_opt.Opt
module Program = Vp_prog.Program
module Emulator = Vp_exec.Emulator
module Progs = Vp_test_support.Progs

let t0 = Reg.of_int 8
let t1 = Reg.of_int 9
let t2 = Reg.of_int 10
let t3 = Reg.of_int 11

(* A small hand-built package: entry -> loop head -> body -> head,
   with a biased branch exiting to an exit block. *)
let block ?(orig = -1) ?(weight = 0) ?taken_prob ?(body = []) ?(exit_ = false)
    ?(live = []) label term =
  {
    Pkg.label;
    orig_addr = orig;
    context = [];
    body;
    term;
    weight;
    taken_prob;
    live_out = List.fold_left (fun m r -> m lor Reg.bit r) 0 live;
    is_exit = exit_;
  }

(* A package from blocks in position order, all live in that order. *)
let package ?(id = "pkg$test") ?(entries = []) ?(sites = []) blocks =
  let blocks = Array.of_list blocks in
  {
    Pkg.id;
    region_id = 0;
    root = "f";
    blocks;
    order = Array.init (Array.length blocks) Fun.id;
    entries;
    sites;
  }

(* The live blocks in order, and one of them by label. *)
let live_blocks (p : Pkg.t) = Array.to_list (Array.map (fun i -> p.Pkg.blocks.(i)) p.Pkg.order)

let named p label = List.find (fun (b : Pkg.block) -> b.Pkg.label = label) (live_blocks p)

let loop_package =
  let entry = 0 and head = 1 and body = 2 and exit0 = 3 in
  package ~entries:[ (entry, 0) ]
    ~sites:
      [
        {
          Pkg.orig_pc = 1;
          site_context = [];
          block = head;
          bias = Pkg.F;
          cold_exit = Some exit0;
          cold_target = Some 99;
        };
      ]
    [
      block "entry" ~orig:0 (Pkg.Fall head);
      block "head" ~orig:1 ~taken_prob:0.02
        (Pkg.Branch { cond = Op.Ge; src1 = t0; src2 = t1; taken = exit0; fall = body });
      block "body" ~orig:2
        ~body:[ Instr.Alu { op = Op.Add; dst = t2; src1 = t2; src2 = Instr.Reg t0 } ]
        (Pkg.Goto head);
      block "exit0" ~exit_:true ~live:[ t2 ] (Pkg.Exit_jump 99);
    ]

let test_weights_entry_injection () =
  let w = Weights.weights (Weights.estimate loop_package) in
  Alcotest.(check bool) "entry has weight" true (w.(0) >= 1.0);
  (* The loop amplifies: head weight far above entry. *)
  Alcotest.(check bool) "loop amplified" true (w.(1) > 10.0);
  Alcotest.(check bool) "body close to head" true (w.(2) > 0.9 *. w.(1) *. 0.9)

let test_weights_arc_split () =
  let w = Weights.estimate loop_package in
  let head = (Weights.weights w).(1) in
  let to_exit = Weights.arc_at w 1 3 in
  let to_body = Weights.arc_at w 1 2 in
  Alcotest.(check (float 1e-6)) "split sums to head" head (to_exit +. to_body);
  Alcotest.(check bool) "cold exit lighter" true (to_exit < to_body)

(* A block in no order — unknown to the package's flow — weighs
   nothing, and no arc reaches it. *)
let test_weights_unknown_label () =
  let p = { loop_package with Pkg.order = [| 0; 1; 3 |] } in
  let w = Weights.estimate p in
  Alcotest.(check (float 1e-9)) "unknown is zero" 0.0 (Weights.weights w).(2);
  Alcotest.(check (float 1e-9)) "no arc from it" 0.0 (Weights.arc_at w 2 1)

let test_flip_branches () =
  let blocks = Array.copy loop_package.Pkg.blocks in
  blocks.(1) <- { (blocks.(1)) with Pkg.taken_prob = Some 0.9 };
  let flipped = Layout.relayout { loop_package with Pkg.blocks } in
  let head = named flipped "head" in
  (match head.Pkg.term with
  | Pkg.Branch { cond; taken; fall; _ } ->
    Alcotest.(check string) "condition negated" "lt" (Op.cond_name cond);
    Alcotest.(check int) "taken now body" 2 taken;
    Alcotest.(check int) "fall now exit" 3 fall
  | _ -> Alcotest.fail "head lost its branch");
  match head.Pkg.taken_prob with
  | Some p -> Alcotest.(check (float 1e-9)) "probability flipped" 0.1 p
  | None -> Alcotest.fail "taken_prob dropped"

let test_flip_leaves_unbiased () =
  let flipped = Layout.relayout loop_package in
  match (named flipped "head").Pkg.term with
  | Pkg.Branch { taken; _ } -> Alcotest.(check int) "unchanged" 3 taken
  | _ -> Alcotest.fail "branch lost"

let test_layout_exits_sink () =
  let ordered = Layout.relayout loop_package in
  let last = ordered.Pkg.blocks.(ordered.Pkg.order.(Array.length ordered.Pkg.order - 1)) in
  Alcotest.(check bool) "exit block last" true last.Pkg.is_exit;
  (* Same blocks, just reordered. *)
  Alcotest.(check (list int)) "same blocks" [ 0; 1; 2; 3 ]
    (List.sort compare (Array.to_list ordered.Pkg.order))

let test_layout_hot_chain_adjacency () =
  let ordered = Layout.relayout loop_package in
  let labels = List.map (fun (b : Pkg.block) -> b.Pkg.label) (live_blocks ordered) in
  (* After flipping (head is ft-biased already), body should directly
     follow head so the hot arc falls through. *)
  let rec adjacent = function
    | "head" :: next :: _ -> next = "body"
    | _ :: rest -> adjacent rest
    | [] -> false
  in
  Alcotest.(check bool) "body follows head" true (adjacent labels)

(* --- scheduler --- *)

(* Reference evaluator for straight-line code over registers and a
   tiny memory. *)
let eval instrs =
  let regs = Array.make Reg.count 0 in
  Array.iteri (fun i _ -> regs.(i) <- i * 17) regs;
  regs.(0) <- 0;
  let mem = Array.make 64 5 in
  List.iter
    (fun i ->
      match i with
      | Instr.Alu { op; dst; src1; src2 } ->
        let b = match src2 with Instr.Reg r -> regs.(Reg.to_int r) | Instr.Imm n -> n in
        if Reg.to_int dst <> 0 then
          regs.(Reg.to_int dst) <- Op.eval_alu op regs.(Reg.to_int src1) b
      | Instr.Li { dst; imm } -> if Reg.to_int dst <> 0 then regs.(Reg.to_int dst) <- imm
      | Instr.Load { dst; base; offset } ->
        if Reg.to_int dst <> 0 then
          regs.(Reg.to_int dst) <- mem.((regs.(Reg.to_int base) + offset) land 63)
      | Instr.Store { src; base; offset } ->
        mem.((regs.(Reg.to_int base) + offset) land 63) <- regs.(Reg.to_int src)
      | _ -> invalid_arg "eval: control instruction")
    instrs;
  (Array.to_list regs, Array.to_list mem)

(* Random straight-line bodies over eight temporaries, with the zero
   register drawn now and then as a source and as a destination. *)
let random_straightline rng len =
  let module R = Vp_util.Rng in
  List.init len (fun _ ->
      let reg () = if R.int rng 10 = 0 then Reg.zero else Reg.of_int (8 + R.int rng 8) in
      match R.int rng 5 with
      | 0 -> Instr.Li { dst = reg (); imm = R.int_in rng (-50) 50 }
      | 1 | 2 ->
        let ops = [| Op.Add; Op.Sub; Op.Mul; Op.Xor; Op.And; Op.Or |] in
        Instr.Alu
          {
            op = ops.(R.int rng 6);
            dst = reg ();
            src1 = reg ();
            src2 = (if R.bool rng 0.5 then Instr.Reg (reg ()) else Instr.Imm (R.int rng 20));
          }
      | 3 -> Instr.Load { dst = reg (); base = Reg.zero; offset = R.int rng 60 }
      | _ -> Instr.Store { src = reg (); base = Reg.zero; offset = R.int rng 60 })

(* Real package bodies reach about a hundred instructions. *)
let max_body = 128

let prop_schedule_preserves_semantics =
  QCheck.Test.make ~name:"scheduling preserves straight-line semantics" ~count:200
    QCheck.(pair (int_range 0 100_000) (int_range 0 max_body))
    (fun (seed, len) ->
      let rng = Vp_util.Rng.create ~seed in
      let body = random_straightline rng len in
      let scheduled = Schedule.schedule_body body in
      List.length scheduled = List.length body && eval body = eval scheduled)

let prop_schedule_is_permutation =
  QCheck.Test.make ~name:"schedule is a permutation" ~count:100
    QCheck.(pair (int_range 0 100_000) (int_range 0 max_body))
    (fun (seed, len) ->
      let rng = Vp_util.Rng.create ~seed in
      let body = random_straightline rng len in
      let scheduled = Schedule.schedule_body body in
      List.sort compare (List.map Instr.to_string body)
      = List.sort compare (List.map Instr.to_string scheduled))

(* Position of each original instruction in the schedule.  Equal
   instructions are matched first-come first-served: equal instructions
   that depend on each other keep their order, and equal independent
   ones are interchangeable. *)
let schedule_positions body scheduled =
  let orig = Array.of_list body in
  let pos = Array.make (Array.length orig) (-1) in
  List.iteri
    (fun k instr ->
      let rec find i =
        if i >= Array.length orig then failwith "scheduled instruction not in body"
        else if pos.(i) < 0 && orig.(i) = instr then pos.(i) <- k
        else find (i + 1)
      in
      find 0)
    scheduled;
  pos

let prop_schedule_keeps_dependences =
  QCheck.Test.make ~name:"schedule keeps every dependent pair in order" ~count:200
    QCheck.(pair (int_range 0 100_000) (int_range 0 max_body))
    (fun (seed, len) ->
      let rng = Vp_util.Rng.create ~seed in
      let body = random_straightline rng len in
      let pos = schedule_positions body (Schedule.schedule_body body) in
      let orig = Array.of_list body in
      let regs f i = f orig.(i) land lnot (Reg.bit Reg.zero) in
      let meets a b = a land b <> 0 in
      let is_mem = function Instr.Load _ | Instr.Store _ -> true | _ -> false in
      let dependent i j =
        meets (regs Instr.def_mask i) (regs Instr.use_mask j) (* RAW *)
        || meets (regs Instr.def_mask i) (regs Instr.def_mask j) (* WAW *)
        || meets (regs Instr.use_mask i) (regs Instr.def_mask j) (* WAR *)
        || (Instr.is_store orig.(i) && is_mem orig.(j))
        || (is_mem orig.(i) && Instr.is_store orig.(j))
      in
      let ok = ref true in
      for j = 0 to len - 1 do
        for i = 0 to j - 1 do
          if dependent i j && pos.(i) > pos.(j) then ok := false
        done
      done;
      !ok)

let test_schedule_zero_register_free () =
  (* Only r0 links the first multiply to the chain after it: writing or
     reading r0 creates no dependence, so the taller chain issues
     first. *)
  let body =
    [
      Instr.Alu { op = Op.Mul; dst = Reg.zero; src1 = t0; src2 = Instr.Imm 3 };
      Instr.Alu { op = Op.Mul; dst = t1; src1 = Reg.zero; src2 = Instr.Imm 5 };
      Instr.Alu { op = Op.Mul; dst = t1; src1 = t1; src2 = Instr.Imm 5 };
    ]
  in
  match Schedule.schedule_body body with
  | first :: _ ->
    Alcotest.(check string) "chain head first" (Instr.to_string (List.nth body 1))
      (Instr.to_string first)
  | [] -> Alcotest.fail "empty schedule"

let test_estimate_cycles_empty () =
  Alcotest.(check int) "empty body" 0 (Schedule.estimate_cycles []);
  Alcotest.(check int) "one instruction" 1
    (Schedule.estimate_cycles [ Instr.Li { dst = t0; imm = 1 } ])

let test_schedule_hides_latency () =
  (* Two independent multiply chains interleave; in program order they
     are serialised one after the other. *)
  let chain dst =
    List.init 4 (fun _ ->
        Instr.Alu { op = Op.Mul; dst; src1 = dst; src2 = Instr.Imm 3 })
  in
  let body = chain t0 @ chain t1 in
  let before = Schedule.estimate_cycles body in
  let after = Schedule.estimate_cycles (Schedule.schedule_body body) in
  Alcotest.(check bool)
    (Printf.sprintf "compaction (%d -> %d)" before after)
    true (after <= before)

let test_schedule_store_load_order () =
  let body =
    [
      Instr.Li { dst = t0; imm = 42 };
      Instr.Store { src = t0; base = Reg.zero; offset = 7 };
      Instr.Load { dst = t1; base = Reg.zero; offset = 7 };
      Instr.Li { dst = t3; imm = 9 };
      Instr.Store { src = t3; base = Reg.zero; offset = 7 };
    ]
  in
  let scheduled = Schedule.schedule_body body in
  Alcotest.(check bool) "load result correct" true (eval body = eval scheduled)

(* The quadratic list scheduler the per-register one replaced, kept
   verbatim as the oracle: every pair of instructions is tested for a
   dependence, for heights, for release and for ready times. *)
module Reference = struct
  type machine = Schedule.machine = {
    issue_width : int;
    ialu : int;
    fp : int;
    mem : int;
    branch : int;
  }

  let epic_default = { issue_width = 8; ialu = 5; fp = 3; mem = 3; branch = 3 }

  let imax (a : int) b = if a >= b then a else b

  (* Functional-unit classes index the per-cycle slot table. *)
  let slot_class = function
    | Op.Ialu -> 0
    | Op.Fp | Op.Long_fp -> 1
    | Op.Mem -> 2
    | Op.Control -> 3

  let capacities m = [| m.ialu; m.fp; m.mem; m.branch |]

  (* Register masks without the zero register: it is neither really
     written nor meaningfully read, so it creates no dependence. *)
  let not_zero = lnot (Reg.bit Reg.zero)

  let no_mem = 0
  let load = 1
  let store = 2

  (* One body as flat per-instruction arrays. *)
  type body = {
    defs : int array;
    uses : int array;
    mem : int array;  (** [no_mem], [load] or [store] *)
    lat : int array;
    cls : int array;  (** [slot_class] of the functional unit *)
  }

  let summarise arr =
    {
      defs = Array.map (fun i -> Instr.def_mask i land not_zero) arr;
      uses = Array.map (fun i -> Instr.use_mask i land not_zero) arr;
      mem =
        Array.map
          (fun i -> if Instr.is_store i then store else if Instr.is_load i then load else no_mem)
          arr;
      lat = Array.map Instr.latency arr;
      cls = Array.map (fun i -> slot_class (Instr.fu i)) arr;
    }

  (* Minimum issue distance from [j] to a later [i], or -1 when [i] does
     not depend on [j].  RAW: [j]'s full latency.  WAW: the next cycle is
     enough on this machine.  WAR: registers are read at issue, so the
     same cycle is fine but the order must hold (0).  Memory: stores are
     barriers against every memory operation; loads may pass loads. *)
  let edge b j i =
    let e = if b.defs.(j) land b.uses.(i) <> 0 then b.lat.(j) else -1 in
    let e = if b.defs.(j) land b.defs.(i) <> 0 then imax e 1 else e in
    let e = if b.uses.(j) land b.defs.(i) <> 0 then imax e 0 else e in
    let mj = b.mem.(j) and mi = b.mem.(i) in
    if (mj = store && mi <> no_mem) || (mi = store && mj <> no_mem) then imax e 1 else e

  let schedule_body ?(machine = epic_default) instrs =
    match instrs with
    | [] | [ _ ] -> instrs
    | _ ->
      let arr = Array.of_list instrs in
      let n = Array.length arr in
      let b = summarise arr in
      let cap = capacities machine in
      (* Latency-weighted height (longest path to any sink) and the
         number of unissued predecessors of each instruction. *)
      let height = Array.make n 0 in
      let pending = Array.make n 0 in
      for j = n - 1 downto 0 do
        let h = ref b.lat.(j) in
        for i = j + 1 to n - 1 do
          let e = edge b j i in
          if e >= 0 then begin
            h := imax !h (height.(i) + imax 1 e);
            pending.(i) <- pending.(i) + 1
          end
        done;
        height.(j) <- !h
      done;
      (* List scheduling: each pick takes the ready instruction with a
         free slot of the highest height, lowest index first, and the
         scan repeats after every issue so a latency-0 successor can
         still issue in the same cycle.  Only released instructions (no
         unissued predecessor left) are scanned. *)
      let ready_at = Array.make n 0 in
      let released = Array.make n 0 in
      let nreleased = ref 0 in
      let release i =
        released.(!nreleased) <- i;
        incr nreleased
      in
      for i = 0 to n - 1 do
        if pending.(i) = 0 then release i
      done;
      let order = Array.make n 0 in
      let used = Array.make (Array.length cap) 0 in
      let count = ref 0 in
      let cycle = ref 0 in
      while !count < n do
        Array.fill used 0 (Array.length used) 0;
        let width = ref 0 in
        let progressed = ref true in
        while !progressed && !width < machine.issue_width do
          let best = ref (-1) in
          let slot = ref 0 in
          for k = 0 to !nreleased - 1 do
            let i = released.(k) in
            if
              ready_at.(i) <= !cycle
              && used.(b.cls.(i)) < cap.(b.cls.(i))
              && (!best < 0
                 || height.(i) > height.(!best)
                 || (height.(i) = height.(!best) && i < !best))
            then begin
              best := i;
              slot := k
            end
          done;
          let j = !best in
          if j < 0 then progressed := false
          else begin
            decr nreleased;
            released.(!slot) <- released.(!nreleased);
            order.(!count) <- j;
            incr count;
            incr width;
            used.(b.cls.(j)) <- used.(b.cls.(j)) + 1;
            for i = j + 1 to n - 1 do
              let e = edge b j i in
              if e >= 0 then begin
                pending.(i) <- pending.(i) - 1;
                ready_at.(i) <- imax ready_at.(i) (!cycle + e);
                if pending.(i) = 0 then release i
              end
            done
          end
        done;
        incr cycle
      done;
      let rec collect k acc = if k < 0 then acc else collect (k - 1) (arr.(order.(k)) :: acc) in
      collect (n - 1) []
end

(* Bodies over every instruction a package body holds: all ALU
   operations (latencies 1 to 12), load-immediate, load-address, nop,
   and loads and stores with register bases, the zero register drawn as
   a source and as a destination. *)
let random_body rng len =
  let module R = Vp_util.Rng in
  let ops =
    [| Op.Add; Op.Sub; Op.Mul; Op.Div; Op.Rem; Op.And; Op.Or; Op.Xor; Op.Shl; Op.Shr;
       Op.Slt; Op.Fadd; Op.Fmul; Op.Fdiv |]
  in
  let regs = 1 + R.int rng 12 in
  List.init len (fun _ ->
      let reg () = if R.int rng 8 = 0 then Reg.zero else Reg.of_int (8 + R.int rng regs) in
      match R.int rng 10 with
      | 0 -> Instr.Li { dst = reg (); imm = R.int_in rng (-50) 50 }
      | 1 -> Instr.La { dst = reg (); target = Instr.Addr (R.int rng 100) }
      | 2 -> Instr.Nop
      | 3 | 4 -> Instr.Load { dst = reg (); base = reg (); offset = R.int rng 60 }
      | 5 -> Instr.Store { src = reg (); base = reg (); offset = R.int rng 60 }
      | _ ->
        Instr.Alu
          {
            op = ops.(R.int rng (Array.length ops));
            dst = reg ();
            src1 = reg ();
            src2 = (if R.bool rng 0.5 then Instr.Reg (reg ()) else Instr.Imm (R.int rng 20));
          })

let prop_schedule_matches_reference =
  QCheck.Test.make ~name:"schedule equals the quadratic reference" ~count:600
    QCheck.(triple (int_range 0 1_000_000) (int_range 0 max_body) bool)
    (fun (seed, len, narrow) ->
      let rng = Vp_util.Rng.create ~seed in
      let body = random_body rng len in
      (* Half the cases also draw a narrow machine, where unit slots and
         the issue width bind. *)
      let machine =
        if narrow then
          let units () = 1 + Vp_util.Rng.int rng 3 in
          {
            Schedule.issue_width = 1 + Vp_util.Rng.int rng 4;
            ialu = units ();
            fp = units ();
            mem = units ();
            branch = units ();
          }
        else Reference.epic_default
      in
      Schedule.schedule_body ~machine body = Reference.schedule_body ~machine body)

(* A machine without a unit of some class, or without issue slots,
   could never issue what needs it: it is rejected, naming the field. *)
let rejects field f =
  match f () with
  | _ -> Alcotest.failf "machine with %s 0 accepted" field
  | exception Invalid_argument msg ->
    let needle = "machine." ^ field in
    let rec has k =
      k + String.length needle <= String.length msg
      && (String.sub msg k (String.length needle) = needle || has (k + 1))
    in
    if not (has 0) then Alcotest.failf "message %S does not name %s" msg field

let test_schedule_rejects_empty_units () =
  let m = Reference.epic_default in
  let body =
    [
      Instr.Alu { op = Op.Fadd; dst = t0; src1 = t1; src2 = Instr.Reg t2 };
      Instr.Li { dst = t3; imm = 1 };
    ]
  in
  rejects "fp" (fun () -> Schedule.schedule_body ~machine:{ m with fp = 0 } body);
  rejects "issue_width" (fun () ->
      Schedule.schedule_body ~machine:{ m with issue_width = 0 } body);
  rejects "ialu" (fun () -> Schedule.schedule_body ~machine:{ m with ialu = -1 } body);
  rejects "fp" (fun () -> Schedule.estimate_cycles ~machine:{ m with fp = 0 } body);
  rejects "issue_width" (fun () ->
      Schedule.estimate_cycles ~machine:{ m with issue_width = 0 } body);
  rejects "mem" (fun () -> Schedule.create ~machine:{ m with mem = 0 } ~share:false ());
  rejects "branch" (fun () -> Schedule.create ~machine:{ m with branch = 0 } ~share:false ())

(* --- exit sinking --- *)

module Sink = Vp_opt.Sink

(* A block computing two values: one feeds the branch (kept), one is
   live only across the exit (sunk). *)
let sink_package extra_body exit_live =
  let b = 0 and next = 1 and ex = 2 in
  package ~id:"pkg$sink" ~entries:[ (b, 0) ]
    [
      block "b" ~orig:0
        ~body:
          (extra_body @ [ Instr.Alu { op = Op.Add; dst = t3; src1 = t0; src2 = Instr.Imm 1 } ])
        (Pkg.Branch { cond = Op.Ge; src1 = t3; src2 = t0; taken = ex; fall = next });
      block "next" ~orig:5 Pkg.Return;
      block "ex" ~exit_:true ~live:exit_live (Pkg.Exit_jump 50);
    ]

let body_of p label = (named p label).Pkg.body

let test_sink_moves_exit_only_value () =
  let p = sink_package [ Instr.Li { dst = t2; imm = 42 } ] [ t2 ] in
  let p', stats = Sink.sink p in
  Alcotest.(check int) "one sunk" 1 stats.Sink.sunk;
  Alcotest.(check int) "none deleted" 0 stats.Sink.deleted;
  Alcotest.(check int) "hot body shrank" 1 (List.length (body_of p' "b"));
  (match body_of p' "ex" with
  | [ Instr.Li { imm = 42; _ } ] -> ()
  | _ -> Alcotest.fail "li not rematerialised at exit");
  (* The branch input stays. *)
  match body_of p' "b" with
  | [ Instr.Alu _ ] -> ()
  | _ -> Alcotest.fail "branch producer disturbed"

let test_sink_deletes_fully_dead () =
  let p = sink_package [ Instr.Li { dst = t2; imm = 7 } ] [] in
  let _, stats = Sink.sink p in
  Alcotest.(check int) "deleted" 1 stats.Sink.deleted;
  Alcotest.(check int) "not sunk" 0 stats.Sink.sunk

let test_sink_dependency_chain () =
  let p =
    sink_package
      [
        Instr.Li { dst = t2; imm = 5 };
        Instr.Alu { op = Op.Mul; dst = t1; src1 = t2; src2 = Instr.Imm 3 };
      ]
      [ t1 ]
  in
  let p', stats = Sink.sink p in
  Alcotest.(check int) "both sunk" 2 stats.Sink.sunk;
  match body_of p' "ex" with
  | [ Instr.Li _; Instr.Alu _ ] -> ()
  | _ -> Alcotest.fail "chain order lost at exit"

let test_sink_keeps_internally_live () =
  (* t2 is also consumed on the internal path (folded into the result
     register before a halt): it must not sink. *)
  let base = sink_package [ Instr.Li { dst = t2; imm = 9 } ] [ t2 ] in
  let blocks = Array.copy base.Pkg.blocks in
  blocks.(1) <-
    {
      (blocks.(1)) with
      Pkg.body = [ Instr.Alu { op = Op.Add; dst = Reg.ret_value; src1 = t2; src2 = Instr.Imm 0 } ];
      term = Pkg.Stop;
    };
  let _, stats = Sink.sink { base with Pkg.blocks } in
  Alcotest.(check int) "nothing sunk" 0 stats.Sink.sunk;
  Alcotest.(check int) "nothing deleted" 0 stats.Sink.deleted

let test_sink_end_to_end_equivalence () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:3) in
  let d = Vp_hsd.Detector.create ~config:Vp_hsd.Config.tiny () in
  let orig =
    Emulator.run_backend
      ~on_branch:(fun ~pc ~taken -> Vp_hsd.Detector.on_branch d ~pc ~taken)
      img
  in
  let log = Vp_phase.Phase_log.build (Vp_hsd.Detector.snapshots d) in
  let pkgs =
    List.concat_map
      (fun (p : Vp_phase.Phase_log.phase) ->
        let region =
          Vp_region.Identify.identify img p.Vp_phase.Phase_log.representative
        in
        Vp_package.Build.build region
          ~prefix:(Printf.sprintf "pkg$p%d" p.Vp_phase.Phase_log.id))
      (Vp_phase.Phase_log.phases log)
  in
  let transform ~protected p = Opt.transform ~config:Opt.with_sinking ~protected p in
  let result = Vp_package.Emit.of_groups ~transform img (Vp_package.Linking.group_packages pkgs) in
  let rewritten = Emulator.run_backend result.Vp_package.Emit.image in
  Alcotest.(check int) "result" orig.Emulator.result rewritten.Emulator.result;
  Alcotest.(check int) "checksum" orig.Emulator.checksum rewritten.Emulator.checksum

(* --- superblock formation --- *)

module Superblock = Vp_opt.Superblock

let chain_package =
  let a = 0 and b = 1 and c = 2 in
  package ~id:"pkg$chain" ~entries:[ (a, 0) ]
    [
      block "a" ~orig:0 ~body:[ Instr.Li { dst = t0; imm = 1 } ] (Pkg.Goto b);
      block "b" ~orig:2 ~body:[ Instr.Li { dst = t1; imm = 2 } ] (Pkg.Fall c);
      block "c" ~orig:4
        ~body:[ Instr.Alu { op = Op.Add; dst = t2; src1 = t0; src2 = Instr.Reg t1 } ]
        Pkg.Return;
    ]

let test_superblock_merges_chain () =
  let p, stats = Superblock.form chain_package in
  Alcotest.(check int) "two merges" 2 stats.Superblock.merged;
  Alcotest.(check int) "single block" 1 (Array.length p.Pkg.order);
  let b = List.hd (live_blocks p) in
  Alcotest.(check string) "entry label survives" "a" b.Pkg.label;
  Alcotest.(check int) "bodies concatenated" 3 (List.length b.Pkg.body);
  match b.Pkg.term with
  | Pkg.Return -> ()
  | _ -> Alcotest.fail "terminator not inherited"

let test_superblock_respects_protected () =
  let p, stats = Superblock.form ~protected:[ 1 ] chain_package in
  Alcotest.(check int) "only c merged" 1 stats.Superblock.merged;
  Alcotest.(check int) "two blocks" 2 (Array.length p.Pkg.order)

let test_superblock_no_merge_multiple_preds () =
  (* Two blocks jump to the same target: no merge. *)
  let p =
    package ~entries:[ (0, 0) ]
      [
        block "a" ~orig:0 (Pkg.Branch { cond = Op.Eq; src1 = t0; src2 = t1; taken = 2; fall = 1 });
        block "b" ~orig:2 (Pkg.Goto 2);
        block "c" ~orig:4 Pkg.Return;
      ]
  in
  let _, stats = Superblock.form p in
  Alcotest.(check int) "no merges" 0 stats.Superblock.merged

(* [a] branches to exit [ex] (live set configurable) or falls into [b],
   whose prefix computes into t2/t3; [src1] is the branch's first
   source. *)
let hoist_package ?(src1 = t0) ~taken_live () =
  let a = 0 and b = 1 and ex = 2 in
  package ~id:"pkg$hoist" ~entries:[ (a, 0) ]
    [
      block "a" ~orig:0
        ~body:[ Instr.Li { dst = t0; imm = 3 } ]
        (Pkg.Branch { cond = Op.Ge; src1; src2 = t1; taken = ex; fall = b });
      block "b" ~orig:3
        ~body:
          [
            Instr.Li { dst = t2; imm = 9 };
            Instr.Alu { op = Op.Mul; dst = t3; src1 = t2; src2 = Instr.Imm 7 };
            Instr.Store { src = t3; base = Reg.zero; offset = 5 };
          ]
        Pkg.Return;
      block "ex" ~exit_:true ~live:taken_live (Pkg.Exit_jump 50);
    ]

let test_superblock_hoists_speculatively () =
  let p, stats = Superblock.form (hoist_package ~taken_live:[ t1 ] ()) in
  Alcotest.(check int) "two hoisted" 2 stats.Superblock.hoisted;
  Alcotest.(check int) "a grew" 3 (List.length (named p "a").Pkg.body);
  (* The store stays put: not pure. *)
  Alcotest.(check int) "b keeps the store" 1 (List.length (named p "b").Pkg.body)

let test_superblock_hoist_blocked_by_taken_liveness () =
  (* t2 live on the taken path: the prefix must not be speculated. *)
  let p, stats = Superblock.form (hoist_package ~taken_live:[ t2 ] ()) in
  Alcotest.(check int) "nothing hoisted" 0 stats.Superblock.hoisted;
  Alcotest.(check int) "a unchanged" 1 (List.length (named p "a").Pkg.body)

let test_superblock_hoist_blocked_by_branch_sources () =
  (* The branch reads t2: a prefix defining t2 cannot move above it. *)
  let _, stats = Superblock.form (hoist_package ~src1:t2 ~taken_live:[] ()) in
  Alcotest.(check int) "t2 def not hoisted" 0 stats.Superblock.hoisted

let test_opt_transform_end_to_end_equivalence () =
  (* The whole pipeline with aggressive optimization must compute the
     same results as with no optimization at all. *)
  let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:3) in
  let with_config opt_config =
    let d = Vp_hsd.Detector.create ~config:Vp_hsd.Config.tiny () in
    let o = Emulator.run_backend ~on_branch:(fun ~pc ~taken -> Vp_hsd.Detector.on_branch d ~pc ~taken) img in
    let log = Vp_phase.Phase_log.build (Vp_hsd.Detector.snapshots d) in
    let pkgs =
      List.concat_map
        (fun (p : Vp_phase.Phase_log.phase) ->
          let region = Vp_region.Identify.identify img p.Vp_phase.Phase_log.representative in
          Vp_package.Build.build region
            ~prefix:(Printf.sprintf "pkg$p%d" p.Vp_phase.Phase_log.id))
        (Vp_phase.Phase_log.phases log)
    in
    let transform ~protected p = Opt.transform ~config:opt_config ~protected p in
    let result = Vp_package.Emit.of_groups ~transform img (Vp_package.Linking.group_packages pkgs) in
    (o, Emulator.run_backend result.Vp_package.Emit.image)
  in
  let orig, optimized = with_config Opt.default in
  let _, plain = with_config Opt.none in
  Alcotest.(check int) "optimized result" orig.Emulator.result optimized.Emulator.result;
  Alcotest.(check int) "optimized checksum" orig.Emulator.checksum optimized.Emulator.checksum;
  Alcotest.(check int) "plain checksum" orig.Emulator.checksum plain.Emulator.checksum

let site block pc =
  { Pkg.orig_pc = pc; site_context = []; block; bias = Pkg.U; cold_exit = None; cold_target = None }

(* Chain merging when the absorbed block precedes its absorber in
   package order: [b] first absorbs [c], then the entry [a] absorbs the
   merged [b].  Sites on either absorbed block move to [a]. *)
let test_superblock_absorbed_before_absorber () =
  let b = 0 and c = 1 and a = 2 in
  let p =
    package ~entries:[ (a, 0) ] ~sites:[ site c 4; site b 2 ]
      [
        block "b" ~orig:2 ~weight:7 ~body:[ Instr.Li { dst = t1; imm = 2 } ] (Pkg.Fall c);
        block "c" ~orig:4 ~weight:3 ~body:[ Instr.Li { dst = t2; imm = 3 } ] Pkg.Return;
        block "a" ~orig:0 ~weight:5 ~body:[ Instr.Li { dst = t0; imm = 1 } ] (Pkg.Goto b);
      ]
  in
  let p', stats = Superblock.form p in
  Alcotest.(check int) "two merges" 2 stats.Superblock.merged;
  (match live_blocks p' with
  | [ b ] ->
    Alcotest.(check string) "absorber survives" "a" b.Pkg.label;
    Alcotest.(check (list string)) "bodies in chain order"
      [ "li t0, #1"; "li t1, #2"; "li t2, #3" ]
      (List.map Instr.to_string b.Pkg.body);
    Alcotest.(check int) "max weight" 7 b.Pkg.weight;
    Alcotest.(check bool) "terminator inherited" true (b.Pkg.term = Pkg.Return)
  | bs -> Alcotest.failf "expected one block, got %d" (List.length bs));
  Alcotest.(check (list int)) "sites resolve to the absorber" [ a; a ]
    (List.map (fun (s : Pkg.site) -> s.Pkg.block) p'.Pkg.sites)

(* A 200-block fall-through chain collapses into its head: 199 merges,
   bodies in order, every site resolves to the surviving head. *)
let test_superblock_long_chain () =
  let n = 200 in
  let blocks =
    List.init n (fun i ->
        block (Printf.sprintf "c%d" i) ~orig:(4 * i)
          ~body:[ Instr.Li { dst = t0; imm = i } ]
          (if i = n - 1 then Pkg.Return else Pkg.Fall (i + 1)))
  in
  let sites = List.init n (fun i -> site i (4 * i)) in
  let p', stats = Superblock.form (package ~entries:[ (0, 0) ] ~sites blocks) in
  Alcotest.(check int) "199 merges" (n - 1) stats.Superblock.merged;
  (match live_blocks p' with
  | [ b ] ->
    Alcotest.(check string) "head survives" "c0" b.Pkg.label;
    Alcotest.(check (list int)) "bodies in chain order" (List.init n Fun.id)
      (List.map (function Instr.Li { imm; _ } -> imm | _ -> -1) b.Pkg.body)
  | bs -> Alcotest.failf "expected one block, got %d" (List.length bs));
  List.iter
    (fun (s : Pkg.site) -> Alcotest.(check int) "site resolves" 0 s.Pkg.block)
    p'.Pkg.sites

(* --- golden byte-identity --- *)

(* The optimizer's output is pinned byte for byte: every package of the
   first 200 campaign cases (root seed 0, the campaign's detector and
   configuration), transformed under each preset, rendered with
   [Pkg.pp] plus everything [pp] leaves out (bodies, branch conditions
   and operands, taken probabilities, weights, exit live sets, sites),
   and hashed.  A deliberate output change must update these digests. *)
module Campaign = Vp_gen.Campaign
module Driver = Vacuum.Driver

let rewrite config image = Driver.rewrite_of_profile ~config (Driver.profile ~config image)

let golden_rewrites =
  lazy
    (List.map
       (fun i ->
         let spec = Campaign.spec_of_index ~root_seed:0 i in
         let image =
           Program.layout (Vp_gen.Gen.program ~seed:spec.Campaign.seed spec.Campaign.params)
         in
         rewrite Campaign.default_config image)
       (List.init 200 Fun.id))

let golden_packages =
  lazy (List.concat_map (fun rw -> rw.Driver.packages) (Lazy.force golden_rewrites))

let render_package buf (p : Pkg.t) =
  Buffer.add_string buf (Format.asprintf "%a@." Pkg.pp p);
  let regs rs = String.concat "," (List.map Reg.name rs) in
  List.iter
    (fun (b : Pkg.block) ->
      Printf.bprintf buf "%s w=%d p=%s live=%s\n" b.Pkg.label b.Pkg.weight
        (match b.Pkg.taken_prob with Some p -> Printf.sprintf "%h" p | None -> "-")
        (regs (Reg.of_mask b.Pkg.live_out));
      (match b.Pkg.term with
      | Pkg.Branch { cond; src1; src2; _ } ->
        Printf.bprintf buf "  cond %s %s\n" (Op.cond_name cond) (regs [ src1; src2 ])
      | _ -> ());
      List.iter (fun i -> Printf.bprintf buf "  %s\n" (Instr.to_string i)) b.Pkg.body)
    (live_blocks p);
  List.iter
    (fun (s : Pkg.site) ->
      Printf.bprintf buf "site %x %s\n" s.Pkg.orig_pc p.Pkg.blocks.(s.Pkg.block).Pkg.label)
    p.Pkg.sites

let golden_digest config =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun p -> render_package buf (Opt.transform ~config p))
    (Lazy.force golden_packages);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_golden name config expected () =
  Alcotest.(check string) (name ^ " digest") expected (golden_digest config)

(* The production call: [Driver]'s transform inside [Emit.of_groups],
   with link-protected labels, over the packages it emitted — linked
   groups, inlined calls and original-code calls included. *)
let emitted_digest rewrites =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun rw -> List.iter (render_package buf) rw.Driver.emitted.Vp_package.Emit.packages)
    rewrites;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_golden_campaign_emitted () =
  Alcotest.(check string) "campaign emitted digest" "9402a1142bb039b3d9a9c9ed72e63eee"
    (emitted_digest (Lazy.force golden_rewrites))

let paper_rewrites =
  lazy
    (let module Registry = Vp_workloads.Registry in
     let config = Vacuum.Config.experiment ~inference:true ~linking:true in
     List.filter_map
       (fun (w : Registry.t) ->
         if w.Registry.input = "A" then
           Some (rewrite config (Program.layout (w.Registry.program ())))
         else None)
       Registry.all)

let test_golden_paper_emitted () =
  let rewrites = Lazy.force paper_rewrites in
  Alcotest.(check int) "twelve A programs" 12 (List.length rewrites);
  Alcotest.(check string) "paper-A emitted digest" "18dcb06d41f947f20121bdd9f211f52b" (emitted_digest rewrites)

(* What the emitter writes, not only the packages it was handed: the
   whole rewritten code array and symbol table, the launch patches,
   the branch map and the appended size. *)
let image_digest rewrites =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun rw ->
      let e = rw.Driver.emitted in
      let image = e.Vp_package.Emit.image in
      Array.iteri
        (fun a i -> Printf.bprintf buf "%x %s\n" a (Instr.to_string i))
        image.Vp_prog.Image.code;
      List.iter
        (fun (s : Vp_prog.Image.sym) ->
          Printf.bprintf buf "sym %s %x %d\n" s.Vp_prog.Image.name s.Vp_prog.Image.start
            s.Vp_prog.Image.len)
        image.Vp_prog.Image.syms;
      List.iter
        (fun (o, t) -> Printf.bprintf buf "patch %x %x\n" o t)
        e.Vp_package.Emit.launch_patches;
      List.iter
        (fun (a, pc) -> Printf.bprintf buf "br %x %x\n" a pc)
        e.Vp_package.Emit.branch_map;
      Printf.bprintf buf "size %d\n" e.Vp_package.Emit.package_instructions)
    rewrites;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_golden_campaign_image () =
  Alcotest.(check string) "campaign image digest" "0232510eeaca4309f931fe9582371aa1"
    (image_digest (Lazy.force golden_rewrites))

let test_golden_paper_image () =
  Alcotest.(check string) "paper-A image digest" "cafc9e159af02567a7d3a30a3fc2268c"
    (image_digest (Lazy.force paper_rewrites))

(* After a drop, [Driver.assemble] emits the surviving packages again,
   and a rewrite keeps its packages as they were before the transform:
   linking and the transform return new packages and leave their inputs
   as they were.  The inputs are built afresh from each rewrite's
   regions, so nothing but the calls below has touched them; a rewrite
   without demotions keeps exactly those packages. *)
let test_transform_leaves_input () =
  let render p =
    let buf = Buffer.create 4096 in
    render_package buf p;
    Buffer.contents buf
  in
  let config = Vacuum.Config.opt Campaign.default_config in
  List.iter
    (fun rw ->
      let pkgs =
        List.concat_map
          (fun (info : Driver.region_info) ->
            Vp_package.Build.build info.Driver.region
              ~prefix:(Printf.sprintf "pkg$p%d" info.Driver.phase.Vp_phase.Phase_log.id))
          rw.Driver.regions
      in
      let before = List.map render pkgs in
      if rw.Driver.demotions = [] then
        Alcotest.(check (list string)) "rewrite keeps its packages" before
          (List.map render rw.Driver.packages);
      let transform = Opt.transformer ~config () in
      List.iter
        (fun (g : Vp_package.Linking.group) ->
          let linked = Vp_package.Linking.apply [ g ] in
          let applied = List.map render linked in
          List.iteri
            (fun k p ->
              let protected =
                List.filter_map
                  (fun (l : Vp_package.Linking.link) ->
                    if l.Vp_package.Linking.to_pkg = k then Some l.Vp_package.Linking.to_block
                    else None)
                  g.Vp_package.Linking.links
              in
              ignore (transform ~protected p))
            linked;
          List.iter (fun p -> ignore (transform ~protected:[] p)) g.Vp_package.Linking.ordered;
          Alcotest.(check (list string)) "linked packages unchanged" applied (List.map render linked))
        (Vp_package.Linking.group_packages pkgs);
      Alcotest.(check (list string)) "input packages unchanged" before (List.map render pkgs))
    (Lazy.force golden_rewrites)

let () =
  Alcotest.run "vp_opt"
    [
      ( "weights",
        [
          Alcotest.test_case "entry injection" `Quick test_weights_entry_injection;
          Alcotest.test_case "arc split" `Quick test_weights_arc_split;
          Alcotest.test_case "unknown label" `Quick test_weights_unknown_label;
        ] );
      ( "layout",
        [
          Alcotest.test_case "flip branches" `Quick test_flip_branches;
          Alcotest.test_case "flip leaves unbiased" `Quick test_flip_leaves_unbiased;
          Alcotest.test_case "exits sink" `Quick test_layout_exits_sink;
          Alcotest.test_case "hot chain adjacency" `Quick test_layout_hot_chain_adjacency;
        ] );
      ( "schedule",
        [
          QCheck_alcotest.to_alcotest prop_schedule_preserves_semantics;
          QCheck_alcotest.to_alcotest prop_schedule_is_permutation;
          QCheck_alcotest.to_alcotest prop_schedule_keeps_dependences;
          Alcotest.test_case "zero register" `Quick test_schedule_zero_register_free;
          Alcotest.test_case "empty body cycles" `Quick test_estimate_cycles_empty;
          Alcotest.test_case "hides latency" `Quick test_schedule_hides_latency;
          Alcotest.test_case "store/load order" `Quick test_schedule_store_load_order;
          QCheck_alcotest.to_alcotest prop_schedule_matches_reference;
          Alcotest.test_case "rejects empty units" `Quick test_schedule_rejects_empty_units;
          Alcotest.test_case "end-to-end equivalence" `Quick
            test_opt_transform_end_to_end_equivalence;
        ] );
      ( "superblock",
        [
          Alcotest.test_case "merges chains" `Quick test_superblock_merges_chain;
          Alcotest.test_case "respects protected" `Quick test_superblock_respects_protected;
          Alcotest.test_case "multiple preds" `Quick test_superblock_no_merge_multiple_preds;
          Alcotest.test_case "speculative hoist" `Quick test_superblock_hoists_speculatively;
          Alcotest.test_case "hoist vs taken liveness" `Quick
            test_superblock_hoist_blocked_by_taken_liveness;
          Alcotest.test_case "hoist vs branch sources" `Quick
            test_superblock_hoist_blocked_by_branch_sources;
          Alcotest.test_case "absorbed before absorber" `Quick
            test_superblock_absorbed_before_absorber;
          Alcotest.test_case "200-block chain" `Quick test_superblock_long_chain;
        ] );
      ( "golden",
        [
          Alcotest.test_case "default" `Quick
            (test_golden "default" Opt.default "fd1fbb09b784fdcf62975d445831cd30");
          Alcotest.test_case "paper" `Quick
            (test_golden "paper" Opt.paper "ded3729a261da0304104a039266bb7e5");
          Alcotest.test_case "with_sinking" `Quick
            (test_golden "with_sinking" Opt.with_sinking
               "bafaa4fe435a4df1417e8f9d32b3f8d1");
          Alcotest.test_case "campaign emitted" `Quick test_golden_campaign_emitted;
          Alcotest.test_case "paper-A emitted" `Quick test_golden_paper_emitted;
          Alcotest.test_case "campaign image" `Quick test_golden_campaign_image;
          Alcotest.test_case "paper-A image" `Quick test_golden_paper_image;
          Alcotest.test_case "transform leaves its input unchanged" `Quick
            test_transform_leaves_input;
        ] );
      ( "sink",
        [
          Alcotest.test_case "moves exit-only value" `Quick test_sink_moves_exit_only_value;
          Alcotest.test_case "deletes dead" `Quick test_sink_deletes_fully_dead;
          Alcotest.test_case "dependency chain" `Quick test_sink_dependency_chain;
          Alcotest.test_case "keeps internally live" `Quick test_sink_keeps_internally_live;
          Alcotest.test_case "end-to-end equivalence" `Quick test_sink_end_to_end_equivalence;
        ] );
    ]
