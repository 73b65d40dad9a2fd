let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let pct num den = 100.0 *. ratio num den
