type t = { name : string; blocks : Block.t list }

let v name blocks =
  if blocks = [] then invalid_arg (Printf.sprintf "Func %s: no blocks" name);
  let labels = List.map Block.label blocks in
  let sorted = List.sort compare labels in
  let rec dup = function
    | a :: (b :: _ as rest) -> if a = b then Some a else dup rest
    | _ -> None
  in
  (match dup sorted with
  | Some l -> invalid_arg (Printf.sprintf "Func %s: duplicate label %s" name l)
  | None -> ());
  { name; blocks }

let name t = t.name
let blocks t = t.blocks

let size t = List.fold_left (fun acc b -> acc + Block.size b) 0 t.blocks
