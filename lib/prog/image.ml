module Instr = Vp_isa.Instr

type sym = { name : string; start : int; len : int }

type t = {
  code : Instr.t array;
  syms : sym list;
  entry : int;
  orig_limit : int;
  data_init : (int * int) list;
  data_break : int;
}

let size t = Array.length t.code

let fetch t addr =
  if addr < 0 || addr >= size t then
    Vp_util.Error.failf ~stage:"image" ~pc:addr "fetch: address 0x%x out of range" addr
  else t.code.(addr)

let sym_at t addr =
  List.find_opt (fun s -> addr >= s.start && addr < s.start + s.len) t.syms

let find_sym t name = List.find_opt (fun s -> s.name = name) t.syms

let functions t = t.syms

let resolved i =
  match Instr.target i with
  | Some (Instr.Label _) -> false
  | Some (Instr.Addr _) | None -> true

let append t ~name code =
  Array.iter
    (fun i ->
      if not (resolved i) then
        Vp_util.Error.failf ~stage:"image" "append: unresolved label in appended code")
    code;
  let start = size t in
  let sym = { name; start; len = Array.length code } in
  ({ t with code = Array.append t.code code; syms = t.syms @ [ sym ] }, start)

let patch t patches =
  let code = Array.copy t.code in
  List.iter
    (fun (addr, i) ->
      if addr < 0 || addr >= Array.length code then
        Vp_util.Error.failf ~stage:"image" ~pc:addr "patch: address 0x%x out of range" addr;
      code.(addr) <- i)
    patches;
  { t with code }

let target_error t addr =
  match t.code.(addr) with
  | Instr.Br { target; _ } | Instr.Jmp { target } | Instr.Call { target } | Instr.La { target; _ } -> (
    match target with
    | Instr.Label l -> Some (Printf.sprintf "unresolved label %s at 0x%x" l addr)
    | Instr.Addr a when a < 0 || a >= size t ->
      Some (Printf.sprintf "target 0x%x out of range at 0x%x" a addr)
    | Instr.Addr _ -> None)
  | Instr.Alu _ | Instr.Li _ | Instr.Load _ | Instr.Store _ | Instr.Ret | Instr.Nop | Instr.Halt -> None

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let n = size t in
  if t.entry < 0 || t.entry >= n then err "entry 0x%x out of range" t.entry
  else
    let rec check_syms last = function
      | [] -> Ok ()
      | s :: rest ->
        if s.start < last then err "symbol %s overlaps previous" s.name
        else if s.start + s.len > n then err "symbol %s exceeds image" s.name
        else check_syms (s.start + s.len) rest
    in
    let rec check_code addr =
      if addr >= n then Ok ()
      else match target_error t addr with Some msg -> Error msg | None -> check_code (addr + 1)
    in
    match check_syms 0 t.syms with Error _ as e -> e | Ok () -> check_code 0

type sym_table = { starts : int array; found : sym option array }

let sym_table t =
  let syms = Array.of_list t.syms in
  Array.stable_sort (fun a b -> Int.compare a.start b.start) syms;
  { starts = Array.map (fun s -> s.start) syms; found = Array.map Option.some syms }

let sym_in table addr =
  (* The last symbol starting at or before [addr]. *)
  let lo = ref 0 and hi = ref (Array.length table.starts) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if table.starts.(mid) <= addr then lo := mid + 1 else hi := mid
  done;
  if !lo = 0 then None
  else
    match table.found.(!lo - 1) with
    | Some s as found when addr < s.start + s.len -> found
    | _ -> None

let static_instruction_count t =
  Array.fold_left (fun acc i -> if i = Instr.Nop then acc else acc + 1) 0 t.code

let pp_listing fmt t =
  List.iter
    (fun s ->
      Format.fprintf fmt "@[<v><%s>:@," s.name;
      for addr = s.start to s.start + s.len - 1 do
        Format.fprintf fmt "  %6x: %a@," addr Instr.pp t.code.(addr)
      done;
      Format.fprintf fmt "@]")
    t.syms
