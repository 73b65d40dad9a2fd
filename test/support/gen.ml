module B = Vp_prog.Builder
module Op = Vp_isa.Op
module R = Vp_util.Rng

let arith_ops = [| Op.Add; Op.Sub; Op.Mul; Op.And; Op.Or; Op.Xor; Op.Slt |]

(* A few statements of random arithmetic over the given registers. *)
let arith rng fb regs =
  let n = Array.length regs in
  for _ = 1 to 2 + R.int rng 4 do
    let op = arith_ops.(R.int rng (Array.length arith_ops)) in
    let dst = regs.(R.int rng n) in
    let src = regs.(R.int rng n) in
    let operand =
      if R.bool rng 0.5 then B.V regs.(R.int rng n)
      else B.K (R.int_in rng (-40) 40)
    in
    B.alu fb op dst src operand;
    (* Keep values bounded so multiplies cannot run away. *)
    if op = Op.Mul then B.alu fb Op.And dst dst (B.K 0xFFFFF)
  done

let global_traffic rng fb ~base ~len regs =
  let n = Array.length regs in
  let addr = B.vreg fb in
  let v = regs.(R.int rng n) in
  B.alu fb Op.And addr regs.(R.int rng n) (B.K (len - 1));
  B.alu fb Op.Add addr addr (B.K base);
  if R.bool rng 0.5 then B.store fb v ~base:addr ~off:0
  else B.load fb v ~base:addr ~off:0

(* One structured element of a function body (no calls: those are
   emitted separately, at most one per function, to bound the dynamic
   blow-up of call chains under nested loops). *)
let rec element rng fb ~depth ~base ~len regs =
  match R.int rng (if depth > 0 then 4 else 3) with
  | 0 -> arith rng fb regs
  | 1 -> global_traffic rng fb ~base ~len regs
  | 2 ->
    let n = Array.length regs in
    let a = regs.(R.int rng n) in
    B.if_ fb
      ((if R.bool rng 0.5 then Op.Lt else Op.Ge), a, B.K (R.int_in rng (-10) 10))
      (fun () -> arith rng fb regs)
      (fun () -> arith rng fb regs)
  | _ ->
    (* Counted loop with a small constant bound. *)
    let i = B.vreg fb in
    B.for_ fb i ~from:(B.K 0) ~below:(B.K (2 + R.int rng 6)) (fun () ->
        element rng fb ~depth:(depth - 1) ~base ~len regs)

let call_element rng fb ~callees regs =
  match callees with
  | [] -> ()
  | _ ->
    let callee = List.nth callees (R.int rng (List.length callees)) in
    let n = Array.length regs in
    let d = B.vreg fb in
    B.li fb d (1 + R.int rng 3);
    let r = B.call fb callee [ regs.(R.int rng n); d ] in
    B.alu fb Op.Add regs.(R.int rng n) regs.(R.int rng n) (B.V r)

module S = Vp_hsd.Snapshot

(* Adversarial snapshots: hardware-plausible but hostile BBB contents
   for robustness property tests.  Entries stay ascending by pc (the
   documented invariant the hardware guarantees); everything else —
   emptiness, saturation, branches the program does not contain — is
   fair game. *)

let real_branch_pcs image =
  let acc = ref [] in
  Array.iteri
    (fun pc i -> match i with Vp_isa.Instr.Br _ -> acc := pc :: !acc | _ -> ())
    image.Vp_prog.Image.code;
  List.rev !acc

let adversarial_snapshots ~seed image =
  let rng = R.create ~seed in
  let size = Vp_prog.Image.size image in
  let counter_max = 511 in
  let real = real_branch_pcs image in
  let snap id branches =
    let detected_at = 1000 * (id + 1) in
    { S.id; detected_at; ended_at = detected_at + 500 + R.int rng 5000; branches }
  in
  let entry pc =
    let executed = R.int rng (counter_max + 1) in
    { S.pc; executed; taken = (if executed = 0 then 0 else R.int rng (executed + 1)) }
  in
  let pick l = List.nth l (R.int rng (List.length l)) in
  let empty = snap 0 [] in
  let single =
    snap 1 (match real with [] -> [ entry 0 ] | _ -> [ entry (pick real) ])
  in
  let saturated =
    snap 2
      (List.map
         (fun pc -> { S.pc; executed = counter_max; taken = counter_max })
         (List.filteri (fun i _ -> i < 8) real))
  in
  (* Branches the program does not contain: past the image, and at
     addresses of non-branch instructions. *)
  let alien =
    snap 3
      (List.sort compare
         [
           entry (R.int rng (max 1 size));
           entry (size + 1 + R.int rng 64);
           entry (size + 100 + R.int rng 64);
         ]
      |> List.sort_uniq (fun (a : S.entry) b -> compare a.S.pc b.S.pc))
  in
  let mixed =
    let pcs =
      List.sort_uniq compare
        (List.filteri (fun i _ -> i mod 3 = R.int rng 3) real
        @ [ size + R.int rng 32 ])
    in
    snap 4
      (List.map
         (fun pc ->
           if R.bool rng 0.3 then { S.pc; executed = counter_max; taken = counter_max }
           else if R.bool rng 0.3 then { S.pc; executed = 0; taken = 0 }
           else entry pc)
         pcs)
  in
  [ empty; single; saturated; alien; mixed ]

let random_phased ~seed =
  let rng = R.create ~seed in
  let b = B.create () in
  let len = 64 in
  let base = B.global b ~words:len in
  let nfuncs = 2 + R.int rng 3 in
  let name i = Printf.sprintf "work%d" i in
  (* Define in reverse so callees exist textually; calls only go to
     higher indices (acyclic), plus optional self-recursion guarded by
     the depth argument. *)
  for i = nfuncs - 1 downto 0 do
    let self_recursive = R.bool rng 0.3 in
    let callees =
      List.filteri (fun j _ -> R.bool rng 0.5 && j > i)
        (List.init nfuncs (fun j -> j))
      |> List.map name
    in
    let rng_body = R.split rng in
    B.func b (name i) ~nargs:2 (fun fb args ->
        let x = args.(0) in
        let depth = args.(1) in
        let locals = Array.init 3 (fun _ -> B.vreg fb) in
        Array.iteri (fun k v -> B.li fb v ((k * 7) + 1)) locals;
        let regs = Array.append [| x |] locals in
        if self_recursive then
          B.when_ fb (Op.Gt, depth, B.K 0) (fun () ->
              let d' = B.vreg fb in
              B.alu fb Op.Sub d' depth (B.K 1);
              let r = B.call fb (name i) [ x; d' ] in
              B.alu fb Op.Xor x x (B.V r));
        for _ = 1 to 2 + R.int rng_body 3 do
          element rng_body fb ~depth:2 ~base ~len regs
        done;
        if R.bool rng_body 0.7 then call_element rng_body fb ~callees regs;
        B.ret fb (Some regs.(R.int rng_body (Array.length regs))));
    ignore rng_body
  done;
  let phase_a = name 0 in
  let phase_b = name (min 1 (nfuncs - 1)) in
  B.func b "main" ~nargs:0 (fun fb _ ->
      let acc = B.vreg fb in
      let rounds = B.vreg fb in
      B.li fb acc 1;
      let na = 100 + R.int rng 300 in
      let nb = 100 + R.int rng 300 in
      B.for_ fb rounds ~from:(B.K 0) ~below:(B.K (2 + R.int rng 2)) (fun () ->
          let i = B.vreg fb in
          let d = B.vreg fb in
          B.li fb d 3;
          B.for_ fb i ~from:(B.K 0) ~below:(B.K na) (fun () ->
              let r = B.call fb phase_a [ acc; d ] in
              B.alu fb Op.Add acc acc (B.V r);
              B.alu fb Op.And acc acc (B.K 0xFFFFFF));
          B.for_ fb i ~from:(B.K 0) ~below:(B.K nb) (fun () ->
              let r = B.call fb phase_b [ i; d ] in
              B.alu fb Op.Xor acc acc (B.V r);
              B.alu fb Op.And acc acc (B.K 0xFFFFFF)));
      B.ret fb (Some acc);
      B.halt fb);
  B.program b ~entry:"main"

(* Valid-by-construction snapshot streams for merge-algebra
   properties: entries strictly ascending by pc, counters within the
   9-bit hardware range with taken <= executed, a sprinkling of
   saturated and zero entries so censoring paths are exercised. *)
let random_snapshots ~seed ~count =
  let rng = R.create ~seed in
  let counter_max = 511 in
  List.init count (fun id ->
      let nbranches = R.int rng 12 in
      let pc = ref (-1) in
      let branches =
        List.init nbranches (fun _ ->
            pc := !pc + 1 + R.int rng 40;
            let executed =
              if R.bool rng 0.15 then counter_max
              else if R.bool rng 0.1 then 0
              else R.int rng (counter_max + 1)
            in
            let taken = if executed = 0 then 0 else R.int rng (executed + 1) in
            { S.pc = !pc; executed; taken })
      in
      let detected_at = 1000 * id in
      {
        S.id;
        detected_at;
        ended_at = detected_at + 1 + R.int rng 5000;
        branches;
      })
