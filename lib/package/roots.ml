module Cfg = Vp_cfg.Cfg
module Image = Vp_prog.Image
module Region = Vp_region.Region

type reason = No_callers | Not_inlinable | Self_recursive

type t = {
  views : (string * Prune.view) list;
  root_list : (string * reason list) list;
}

(* Hot call sites of [mf] whose callee is a region function, with the
   call instruction's address. *)
let call_sites_of region mf =
  let cfg = Region.cfg mf in
  Array.fold_right
    (fun (b, (sym : Image.sym)) acc ->
      if
        Vp_region.Temperature.is_hot (Region.temp mf b)
        && Region.find_func region sym.Image.name <> None
      then (Cfg.start cfg b + Cfg.len cfg b - 1, sym.Image.name) :: acc
      else acc)
    (Cfg.callees cfg) []
  |> List.sort compare

(* DFS back edges over the region call graph, starting from functions
   with no in-region callers, then any unvisited ones. *)
let callgraph_back_edges funcs calls =
  let adj name =
    List.sort_uniq compare (List.map snd (List.assoc name calls))
  in
  let has_callers name =
    List.exists (fun (caller, sites) ->
        caller <> name && List.exists (fun (_, callee) -> callee = name) sites)
      calls
  in
  let state = Hashtbl.create 16 in
  let back = ref [] in
  let rec dfs name =
    Hashtbl.replace state name `Grey;
    List.iter
      (fun callee ->
        match Hashtbl.find_opt state callee with
        | Some `Grey -> back := (name, callee) :: !back
        | Some `Black -> ()
        | None -> dfs callee)
      (adj name);
    Hashtbl.replace state name `Black
  in
  List.iter (fun name -> if not (has_callers name) then dfs name) funcs;
  List.iter (fun name -> if not (Hashtbl.mem state name) then dfs name) funcs;
  List.sort_uniq compare !back

let compute region =
  let funcs = List.map fst (Region.funcs region) in
  let views =
    List.map (fun (name, mf) -> (name, Prune.view mf)) (Region.funcs region)
  in
  let calls =
    List.map
      (fun (name, mf) -> (name, call_sites_of region mf))
      (Region.funcs region)
  in
  let back = callgraph_back_edges funcs calls in
  let root_list =
    List.filter_map
      (fun name ->
        let self_recursive =
          List.exists (fun (_, callee) -> callee = name) (List.assoc name calls)
        in
        let callers =
          List.concat_map
            (fun (caller, sites) ->
              List.filter_map
                (fun (_, callee) ->
                  if
                    callee = name
                    && not (List.mem (caller, callee) back)
                    && caller <> name
                  then Some caller
                  else None)
                sites)
            calls
        in
        let reasons =
          (if callers = [] then [ No_callers ] else [])
          @ (if not (Prune.inlinable (List.assoc name views)) then [ Not_inlinable ]
             else [])
          @ if self_recursive then [ Self_recursive ] else []
        in
        if reasons = [] then None else Some (name, reasons))
      funcs
  in
  { views; root_list }

let roots t = t.root_list

let view t name = List.assoc name t.views

let inlinable t name = Prune.inlinable (view t name)
