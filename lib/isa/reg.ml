type t = int

let count = 32

let of_int i =
  if i < 0 || i >= count then invalid_arg "Reg.of_int"
  else i

let to_int r = r

let zero = 0
let sp = 1
let ra = 2

let arg i =
  if i < 0 || i > 4 then invalid_arg "Reg.arg"
  else 3 + i

let ret_value = arg 0

let first_temp = 8

let temps = List.init (count - first_temp) (fun i -> first_temp + i)

let name r =
  if r = zero then "zero"
  else if r = sp then "sp"
  else if r = ra then "ra"
  else if r >= 3 && r <= 7 then Printf.sprintf "a%d" (r - 3)
  else Printf.sprintf "t%d" (r - first_temp)

let pp fmt r = Format.pp_print_string fmt (name r)

let equal = Int.equal

let bit r = 1 lsl r

let of_mask mask =
  let rec go r acc =
    if r < 0 then acc
    else go (r - 1) (if mask land (1 lsl r) <> 0 then r :: acc else acc)
  in
  go (count - 1) []
