module Instr = Vp_isa.Instr

type t = { label : string; body : Instr.t list }

let check_body label body =
  let rec go = function
    | [] -> ()
    | [ _last ] -> ()
    | i :: rest ->
      if Instr.is_control i then
        invalid_arg
          (Printf.sprintf "Block %s: control instruction %s not last" label
             (Instr.to_string i))
      else go rest
  in
  go body

let v label body =
  check_body label body;
  { label; body }

let label t = t.label
let body t = t.body
let size t = List.length t.body
