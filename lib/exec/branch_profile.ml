type t = {
  executed : int array;
  takens : int array;
  branches : int;
  total_executed : int;
}

let of_counts ~executed ~takens =
  if Array.length executed <> Array.length takens then
    invalid_arg "Branch_profile.of_counts: array length mismatch";
  let branches = ref 0 and total = ref 0 in
  Array.iter
    (fun e ->
      if e > 0 then begin
        incr branches;
        total := !total + e
      end)
    executed;
  { executed; takens; branches = !branches; total_executed = !total }

let branches t = t.branches
let total_executed t = t.total_executed

let find t pc =
  if pc < 0 || pc >= Array.length t.executed || t.executed.(pc) = 0 then None
  else Some (t.executed.(pc), t.takens.(pc))

let iter f t =
  Array.iteri
    (fun pc e -> if e > 0 then f ~pc ~executed:e ~taken:t.takens.(pc))
    t.executed

let fold f t init =
  let acc = ref init in
  iter (fun ~pc ~executed ~taken -> acc := f ~pc ~executed ~taken !acc) t;
  !acc

let bindings t =
  List.rev
    (fold (fun ~pc ~executed ~taken acc -> (pc, (executed, taken)) :: acc) t [])
