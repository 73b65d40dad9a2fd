module Instr = Vp_isa.Instr
module Op = Vp_isa.Op
module Reg = Vp_isa.Reg
module Pkg = Vp_package.Pkg

type machine = {
  issue_width : int;
  ialu : int;
  fp : int;
  mem : int;
  branch : int;
}

let epic_default = { issue_width = 8; ialu = 5; fp = 3; mem = 3; branch = 3 }

(* A zero-width machine or a unit class without a unit never issues
   what needs it: refuse it rather than loop. *)
let check machine =
  List.iter
    (fun (field, v) ->
      if v < 1 then
        invalid_arg
          (Printf.sprintf "Schedule: machine.%s is %d; it must be at least 1" field v))
    [
      ("issue_width", machine.issue_width);
      ("ialu", machine.ialu);
      ("fp", machine.fp);
      ("mem", machine.mem);
      ("branch", machine.branch);
    ]

(* Positions into the per-register tables come from 5-bit fields, into
   the per-kind tables from [no_mem], [load] or [store], and into the
   per-instruction arrays from loops below the body's length: the hot
   loops below index them unchecked. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* Branch-free maximum of two ints well inside the int range.  The
   scheduler's maxima are over data-dependent values, where a
   mispredicted branch costs more than these few operations. *)
let imax (a : int) b =
  let d = a - b in
  a - (d land (d asr 62))

(* Functional-unit classes index the per-cycle slot table. *)
let classes = 4

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

(* Per memory kind, the slot of the per-kind tables an access of that
   kind updates: [any_access] is what a later store waits for (any
   access: the [store] slot), [stores_only] what a later load waits for
   (stores only: the [load] slot).  Slot [no_mem] takes the updates of
   non-accesses and is reset after each. *)
let any_access m = (m + 1) lsr 1 * store
let stores_only m = m lsr 1 * load

(* One instruction as one int: the registers it reads and writes, its
   latency, memory kind and unit class — everything its schedule
   depends on — read off its operands in one match ([Instr.use_mask],
   [Instr.def_mask], [Instr.latency] and [Instr.fu] each match once
   more; the reference scheduler in test_opt reads those).  A register field of 0 means
   none: the zero register makes no dependence, so slot 0 of every
   per-register table stands for "no register" and is kept at its
   initial value.  Control transfers never sit in a body. *)
let src1_of c = c land 31
let src2_of c = (c lsr 5) land 31
let dst_of c = (c lsr 10) land 31
let lat_of c = (c lsr 15) land 15
let kind_of c = (c lsr 19) land 3
let cls_of c = (c lsr 21) land 3

let code i =
  let r (x : Reg.t) = (x :> int) in
  let pack ~dst ~src1 ~src2 ~lat ~kind ~cls =
    src1 lor (src2 lsl 5) lor (dst lsl 10) lor (lat lsl 15) lor (kind lsl 19) lor (cls lsl 21)
  in
  let ialu = slot_class Op.Ialu and mem = slot_class Op.Mem in
  match i with
  | Instr.Alu { op; dst; src1; src2 } ->
    let s1 = r src1 in
    let s2 = match src2 with Instr.Reg s2 when r s2 <> s1 -> r s2 | _ -> 0 in
    pack ~dst:(r dst) ~src1:s1 ~src2:s2 ~lat:(Op.alu_latency op) ~kind:no_mem
      ~cls:(slot_class (Op.alu_fu op))
  | Instr.Li { dst; _ } | Instr.La { dst; _ } ->
    pack ~dst:(r dst) ~src1:0 ~src2:0 ~lat:1 ~kind:no_mem ~cls:ialu
  | Instr.Load { dst; base; _ } -> pack ~dst:(r dst) ~src1:(r base) ~src2:0 ~lat:2 ~kind:load ~cls:mem
  | Instr.Store { src; base; _ } ->
    let s1 = r src and s2 = r base in
    pack ~dst:0 ~src1:s1 ~src2:(if s2 = s1 then 0 else s2) ~lat:1 ~kind:store ~cls:mem
  | Instr.Nop -> pack ~dst:0 ~src1:0 ~src2:0 ~lat:1 ~kind:no_mem ~cls:ialu
  | Instr.Br _ | Instr.Jmp _ | Instr.Call _ | Instr.Ret | Instr.Halt ->
    invalid_arg
      (Printf.sprintf "Schedule: %s is not a straight-line instruction" (Instr.to_string i))

type key = { hash : int; len : int; codes : int array }

(* Bodies with equal codes get equal orders. *)
module Memo = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.hash = b.hash && a.len = b.len
    &&
    let k = ref 0 in
    while !k < a.len && a.codes.(!k) = b.codes.(!k) do
      incr k
    done;
    !k = a.len

  let hash k = k.hash
end)

let regs = Reg.count

(* Flat per-body scratch arrays, one set per domain, grown to the
   longest body seen and reused, so scheduling a body allocates only
   its result list.  Nothing in them outlives the body being scheduled:
   every pass resets what it reads. *)
type ws = {
  mutable size : int;
  mutable code : int array;
  mutable height : int array;
  mutable by_rank : int array;  (** instructions best first: highest height, lowest index *)
  mutable cycle : int array;  (** issue cycle by rank *)
  mutable order : int array;
  mutable counts : int array;  (** counting-sort buckets *)
  mutable next : int array;  (** per cycle, per class: the first cycle from it with a free slot *)
  mutable used : int array;  (** per cycle, per class and then in all: slots taken *)
  (* Per-register state, indexed by register number (0: none). *)
  reads_h : int array;  (** greatest height of a later reader *)
  writes_h : int array;  (** ... of a later writer *)
  value_at : int array;  (** cycle the written values are ready *)
  rewrite_at : int array;  (** earliest cycle of the next write *)
  read_at : int array;  (** cycle of the last read *)
  (* Per memory kind, what an access of that kind waits for. *)
  mem_h : int array;
  mem_at : int array;
}

let workspace =
  Domain.DLS.new_key (fun () ->
      let table () = Array.make regs 0 in
      {
        size = 0;
        code = [||];
        height = [||];
        by_rank = [||];
        cycle = [||];
        order = [||];
        counts = [||];
        next = [||];
        used = [||];
        reads_h = table ();
        writes_h = table ();
        value_at = table ();
        rewrite_at = table ();
        read_at = table ();
        mem_h = Array.make 3 0;
        mem_at = Array.make 3 0;
      })

(* Room for [n] instructions; the loaded codes are kept. *)
let grow ws n =
  if n > ws.size then begin
    let size = imax n (imax 64 (2 * ws.size)) in
    let keep a fill =
      let b = Array.make size fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    ws.size <- size;
    ws.code <- keep ws.code 0;
    ws.height <- Array.make size 0;
    ws.by_rank <- Array.make size 0;
    ws.cycle <- Array.make size 0;
    ws.order <- Array.make size 0
  end

(* At least [n] slots in [ws.counts], and [n] cycles in [ws.next] and
   [ws.used], each at its resting value: every cycle free. *)
let room ws n =
  if n > Array.length ws.counts then ws.counts <- Array.make (2 * n) 0;
  if classes * n > Array.length ws.next then begin
    ws.next <- Array.init (2 * classes * n) (fun k -> k / classes);
    ws.used <- Array.make (2 * (classes + 1) * n) 0
  end

(* Load a body into the workspace; returns its length and its memo
   key's hash. *)
let rec summarise ws k h = function
  | [] ->
    (* Fold the high bits down: the table indexes by the low ones. *)
    let h = (h lxor (h lsr 32)) * 0x5bd1e995 in
    (k, (h lxor (h lsr 29)) land max_int)
  | i :: rest ->
    let c = code i in
    if k = ws.size then grow ws (k + 1);
    ws.code.(k) <- c;
    summarise ws (k + 1) ((h * 31) + c) rest

(* Latency-weighted height (longest path to any sink) of every
   instruction, from per-register maxima over the later instructions:
   a later reader of what [j] writes waits [j]'s latency (RAW); a later
   writer of what [j] reads or writes (WAR, WAW), and a later memory
   access across a store, wait one cycle.  Then the priority order,
   best first, by a counting sort on height that keeps index order
   among equals.  Every dependence runs from a taller instruction to a
   shorter one, so the priority order is also a dependence order.
   Returns the greatest height. *)
let prioritise ws n =
  let reads_h = ws.reads_h and writes_h = ws.writes_h and mem_h = ws.mem_h in
  let code = ws.code and height = ws.height in
  for r = 0 to regs - 1 do
    reads_h.!(r) <- 0;
    writes_h.!(r) <- 0
  done;
  for m = 0 to 2 do
    mem_h.!(m) <- 0
  done;
  let top = ref 0 in
  for j = n - 1 downto 0 do
    let c = code.!(j) in
    let u1 = src1_of c and u2 = src2_of c and d = dst_of c and m = kind_of c in
    let other = imax (imax writes_h.!(d) writes_h.!(u1)) (imax writes_h.!(u2) mem_h.!(m)) in
    let h = imax (lat_of c + reads_h.!(d)) (1 + other) in
    height.!(j) <- h;
    top := imax !top h;
    reads_h.!(u1) <- imax reads_h.!(u1) h;
    reads_h.!(u2) <- imax reads_h.!(u2) h;
    writes_h.!(d) <- imax writes_h.!(d) h;
    reads_h.!(0) <- 0;
    writes_h.!(0) <- 0;
    (* A store waits for every later access, a load for later stores. *)
    let any = any_access m and st = stores_only m in
    mem_h.!(any) <- imax mem_h.!(any) h;
    mem_h.!(st) <- imax mem_h.!(st) h;
    mem_h.!(0) <- 0
  done;
  let top = !top in
  room ws (top + 2);
  let counts = ws.counts in
  for b = 0 to top + 1 do
    counts.!(b) <- 0
  done;
  for i = 0 to n - 1 do
    let b = top - height.!(i) + 1 in
    counts.!(b) <- counts.!(b) + 1
  done;
  for b = 1 to top + 1 do
    counts.!(b) <- counts.!(b) + counts.!(b - 1)
  done;
  for i = 0 to n - 1 do
    let b = top - height.!(i) in
    let r = counts.!(b) in
    counts.!(b) <- r + 1;
    ws.by_rank.!(r) <- i
  done;
  top

(* First cycle from [t] with a free slot of class [k]; full cycles
   point past themselves, and lookups shorten the chains. *)
let rec free next k t =
  let u = next.((t * classes) + k) in
  if u = t then t
  else begin
    let f = free next k u in
    next.((t * classes) + k) <- f;
    f
  end

(* List scheduling, cycle by cycle, picks the ready instruction with a
   free slot of the highest priority, and picks again after every issue
   so a latency-0 successor can still issue in the same cycle.  Because
   priority order is a dependence order, that schedule is the one built
   here in priority order: each instruction takes the first cycle from
   its ready cycle with a free slot of its class and of the issue
   width, after every instruction of higher priority has taken its
   own.  Its ready cycle is the maximum, over the registers and memory
   it touches, of the cycles its already placed predecessors allow —
   RAW: the value's latency, WAW: the next cycle, WAR: the same cycle,
   memory across a store: the next cycle.  No placed instruction of
   lower index touches them without being a predecessor, and none of
   higher index touches them at all.  A greedy schedule of [n]
   instructions ends within [n] cycles of its critical path, so
   [span] cycles cover it.  Returns the last cycle used. *)
let place ws machine cap n span =
  room ws span;
  let next = ws.next and used = ws.used in
  let value_at = ws.value_at and rewrite_at = ws.rewrite_at and read_at = ws.read_at in
  let mem_at = ws.mem_at and cycle = ws.cycle in
  for r = 0 to regs - 1 do
    value_at.!(r) <- 0;
    rewrite_at.!(r) <- 0;
    read_at.!(r) <- 0
  done;
  for m = 0 to 2 do
    mem_at.!(m) <- 0
  done;
  let last = ref 0 in
  for rank = 0 to n - 1 do
    let c = ws.code.!(ws.by_rank.!(rank)) in
    let u1 = src1_of c and u2 = src2_of c and d = dst_of c and m = kind_of c and k = cls_of c in
    let ready =
      imax
        (imax value_at.!(u1) value_at.!(u2))
        (imax (imax rewrite_at.!(d) read_at.!(d)) mem_at.!(m))
    in
    let t = free next k ready in
    cycle.!(rank) <- t;
    last := imax !last t;
    let slot = (t * (classes + 1)) + k and all = (t * (classes + 1)) + classes in
    used.(slot) <- used.(slot) + 1;
    if used.(slot) = cap.(k) then next.((t * classes) + k) <- t + 1;
    used.(all) <- used.(all) + 1;
    if used.(all) = machine.issue_width then
      for k = 0 to classes - 1 do
        next.((t * classes) + k) <- t + 1
      done;
    value_at.!(d) <- imax value_at.!(d) (t + lat_of c);
    rewrite_at.!(d) <- imax rewrite_at.!(d) (t + 1);
    read_at.!(u1) <- imax read_at.!(u1) t;
    read_at.!(u2) <- imax read_at.!(u2) t;
    value_at.!(0) <- 0;
    rewrite_at.!(0) <- 0;
    read_at.!(0) <- 0;
    (* After a store every access waits a cycle, after a load only a
       store does. *)
    let any = any_access m and st = stores_only m in
    mem_at.!(any) <- imax mem_at.!(any) (t + 1);
    mem_at.!(st) <- imax mem_at.!(st) (t + 1);
    mem_at.!(0) <- 0
  done;
  (* Only the cycles something took are touched: put them back. *)
  for rank = 0 to n - 1 do
    let t = cycle.!(rank) in
    for k = 0 to classes - 1 do
      next.((t * classes) + k) <- t;
      used.((t * (classes + 1)) + k) <- 0
    done;
    used.((t * (classes + 1)) + classes) <- 0
  done;
  !last

(* The issue order: by cycle, and by priority within a cycle — the
   order in which list scheduling picks them. *)
let issue_order ws n last =
  room ws (last + 2);
  let counts = ws.counts in
  for t = 0 to last + 1 do
    counts.(t) <- 0
  done;
  for r = 0 to n - 1 do
    let b = ws.cycle.(r) + 1 in
    counts.(b) <- counts.(b) + 1
  done;
  for t = 1 to last + 1 do
    counts.(t) <- counts.(t) + counts.(t - 1)
  done;
  for r = 0 to n - 1 do
    let t = ws.cycle.(r) in
    ws.order.(counts.(t)) <- ws.by_rank.(r);
    counts.(t) <- counts.(t) + 1
  done

(* A scheduler: the machine, and for one rewrite the memo of orders by
   body codes. *)
type t = { machine : machine; cap : int array; memo : int array Memo.t option }

let make ~share machine =
  check machine;
  { machine; cap = capacities machine; memo = (if share then Some (Memo.create 64) else None) }

let fresh ws t n =
  let top = prioritise ws n in
  let last = place ws t.machine t.cap n (n + top + 1) in
  issue_order ws n last;
  ws.order

(* The body in [order], sharing the input list when nothing moved.  The
   instructions are gathered through a fresh array: one kept in the
   workspace would be old, and storing young instructions into it would
   cost a write barrier each. *)
let reorder instrs order n =
  let rec identity k = k >= n || (order.(k) = k && identity (k + 1)) in
  if identity 0 then instrs
  else
    let body = Array.of_list instrs in
    let rec collect k acc = if k < 0 then acc else collect (k - 1) (body.(order.(k)) :: acc) in
    collect (n - 1) []

let schedule t instrs =
  match instrs with
  | [] | [ _ ] -> instrs
  | _ ->
    let ws = Domain.DLS.get workspace in
    let n, hash = summarise ws 0 0 instrs in
    let order =
      match t.memo with
      | None -> fresh ws t n
      | Some memo -> (
        let key = { hash; len = n; codes = ws.code } in
        match Memo.find_opt memo key with
        | Some order -> order
        | None ->
          let order = Array.sub (fresh ws t n) 0 n in
          Memo.add memo { key with codes = Array.sub ws.code 0 n } order;
          order)
    in
    reorder instrs order n

let schedule_body ?(machine = epic_default) instrs =
  match instrs with
  | [] | [ _ ] ->
    check machine;
    instrs
  | _ -> schedule (make ~share:false machine) instrs

let estimate_cycles ?(machine = epic_default) instrs =
  check machine;
  (* In-order issue of the body as given, tracking operand readiness
     and FU occupancy per cycle.  The zero register is never marked
     busy, so reading it never waits. *)
  let cap = capacities machine in
  let used = Array.make classes 0 in
  let ready = Array.make regs 0 in
  let cycle = ref 0 in
  let width = ref 0 in
  List.iter
    (fun i ->
      let operand_ready =
        List.fold_left
          (fun acc r -> imax acc ready.(Reg.to_int r))
          0
          (Reg.of_mask (Instr.use_mask i))
      in
      let c = slot_class (Instr.fu i) in
      while !cycle < operand_ready || !width >= machine.issue_width || used.(c) >= cap.(c) do
        incr cycle;
        width := 0;
        Array.fill used 0 classes 0
      done;
      used.(c) <- used.(c) + 1;
      incr width;
      List.iter
        (fun r -> ready.(Reg.to_int r) <- !cycle + Instr.latency i)
        (Reg.of_mask (Instr.def_mask i land not_zero)))
    instrs;
  match instrs with [] -> 0 | _ -> !cycle + 1

let create ?(machine = epic_default) ~share () = make ~share machine

let schedule_blocks t (p : Pkg.t) =
  let blocks = Array.copy p.Pkg.blocks in
  Array.iter
    (fun i ->
      let b = blocks.(i) in
      let body = schedule t b.Pkg.body in
      if body != b.Pkg.body then blocks.(i) <- { b with Pkg.body })
    p.Pkg.order;
  { p with Pkg.blocks }
