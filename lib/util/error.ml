type t = {
  stage : string;
  what : string;
  pc : int option;
  label : string option;
}

exception Error of t

let v ?pc ?label ~stage fmt =
  Printf.ksprintf (fun what -> { stage; what; pc; label }) fmt

let failf ?pc ?label ~stage fmt =
  Printf.ksprintf (fun what -> raise (Error { stage; what; pc; label })) fmt

let pp ppf e =
  Format.fprintf ppf "%s: %s" e.stage e.what;
  let ctx =
    List.filter_map Fun.id
      [
        Option.map (Printf.sprintf "pc 0x%x") e.pc;
        Option.map (Printf.sprintf "label %s") e.label;
      ]
  in
  if ctx <> [] then Format.fprintf ppf " (%s)" (String.concat ", " ctx)
