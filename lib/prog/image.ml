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

let append_many t sections =
  List.iter
    (fun (_, code) ->
      Array.iter
        (fun i ->
          if not (resolved i) then
            Vp_util.Error.failf ~stage:"image" "append: unresolved label in appended code")
        code)
    sections;
  (* One concatenation and one symbol-list extension for the whole
     batch: appending n sections one by one is quadratic in both the
     code array and the symbol list. *)
  let starts_rev, syms_rev, _ =
    List.fold_left
      (fun (starts, syms, pos) (name, code) ->
        ( pos :: starts,
          { name; start = pos; len = Array.length code } :: syms,
          pos + Array.length code ))
      ([], [], size t) sections
  in
  let image =
    {
      t with
      code = Array.concat (t.code :: List.map snd sections);
      syms = t.syms @ List.rev syms_rev;
    }
  in
  (image, List.rev starts_rev)

let append t ~name code =
  match append_many t [ (name, code) ] with
  | image, [ start ] -> (image, start)
  | _ -> assert false

let patch t patches =
  let code = Array.copy t.code in
  List.iter
    (fun (addr, i) ->
      if addr < 0 || addr >= Array.length code then
        Vp_util.Error.failf ~stage:"image" ~pc:addr "patch: address 0x%x out of range" addr;
      code.(addr) <- i)
    patches;
  { t with code }

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
    match check_syms 0 t.syms with
    | Error _ as e -> e
    | Ok () ->
      let bad = ref None in
      Array.iteri
        (fun addr i ->
          if !bad = None then
            match Instr.target i with
            | Some (Instr.Label l) ->
              bad := Some (Printf.sprintf "unresolved label %s at 0x%x" l addr)
            | Some (Instr.Addr a) when a < 0 || a >= n ->
              bad := Some (Printf.sprintf "target 0x%x out of range at 0x%x" a addr)
            | Some (Instr.Addr _) | None -> ())
        t.code;
      (match !bad with Some msg -> Error msg | None -> Ok ())

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
