type t = Hot | Cold | Unknown

let is_hot = function Hot -> true | Cold | Unknown -> false
let is_cold = function Cold -> true | Hot | Unknown -> false

let name = function Hot -> "hot" | Cold -> "cold" | Unknown -> "unknown"

let equal a b =
  match (a, b) with
  | Hot, Hot | Cold, Cold | Unknown, Unknown -> true
  | (Hot | Cold | Unknown), _ -> false
