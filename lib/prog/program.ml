module Instr = Vp_isa.Instr

type t = {
  funcs : Func.t list;
  entry : string;
  data_init : (int * int) list;
  data_break : int;
}

let check_unique what names =
  let sorted = List.sort compare names in
  let rec dup = function
    | a :: (b :: _ as rest) -> if a = b then Some a else dup rest
    | _ -> None
  in
  match dup sorted with
  | Some n -> Vp_util.Error.failf ~stage:"program" "duplicate %s %s" what n
  | None -> ()

let v ?(data_init = []) ?(data_break = 16) ~entry funcs =
  check_unique "function" (List.map Func.name funcs);
  let labels =
    List.concat_map (fun f -> List.map Block.label (Func.blocks f)) funcs
  in
  check_unique "label" labels;
  check_unique "label/function name" (labels @ List.map Func.name funcs);
  if not (List.exists (fun f -> Func.name f = entry) funcs) then
    Vp_util.Error.failf ~stage:"program" ~label:entry "entry function %s undefined" entry;
  { funcs; entry; data_init; data_break }

let find_func t name = List.find_opt (fun f -> Func.name f = name) t.funcs

let static_size t = List.fold_left (fun acc f -> acc + Func.size f) 0 t.funcs

let layout t =
  (* First pass: assign addresses to every block label and function. *)
  let table = Hashtbl.create 256 in
  let addr = ref 0 in
  let syms =
    List.map
      (fun f ->
        let start = !addr in
        Hashtbl.replace table (Func.name f) start;
        List.iter
          (fun b ->
            Hashtbl.replace table (Block.label b) !addr;
            addr := !addr + Block.size b)
          (Func.blocks f);
        { Image.name = Func.name f; start; len = !addr - start })
      t.funcs
  in
  let lookup name =
    match Hashtbl.find_opt table name with
    | Some a -> a
    | None -> Vp_util.Error.failf ~stage:"program" ~label:name "layout: undefined label %s" name
  in
  (* Second pass: emit resolved instructions. *)
  let code = Array.make !addr Instr.Nop in
  let pos = ref 0 in
  List.iter
    (fun f ->
      List.iter
        (fun b ->
          List.iter
            (fun i ->
              code.(!pos) <- Instr.resolve lookup i;
              incr pos)
            (Block.body b))
        (Func.blocks f))
    t.funcs;
  {
    Image.code;
    syms;
    entry = lookup t.entry;
    orig_limit = !addr;
    data_init = t.data_init;
    data_break = t.data_break;
  }
