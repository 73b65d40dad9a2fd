(* A declarative command-line spec: every subcommand is a row of one
   table (name, doc, positional, flags), every flag one record (names,
   docv, doc, kind, validator, default).  Parsing is a pure function
   over that table — the same tokenizer, the same unknown-flag rule and
   the same help renderer for every subcommand — so flags shared across
   subcommands cannot drift apart, and usage errors are enforced in
   exactly one place. *)

type kind = Bool | Value

type flag = {
  names : string list;  (* without dashes; short names are 1 char *)
  docv : string;
  doc : string;
  kind : kind;
  repeatable : bool;
  required : bool;
  default : string option;  (* shown in help; read when absent *)
  check : string -> string option;  (* value validator: Some = error *)
}

type pos = { pos_docv : string; pos_doc : string; pos_required : bool }

type matches = {
  present : (flag * string list ref) list;
      (* one slot per spec flag: (flag, values in parse order); a bare
         boolean occurrence pushes "" *)
  mutable positional : string list;  (* reverse order while parsing *)
}

type cmd = {
  name : string;
  cmd_doc : string;
  positional : pos option;
  flags : flag list;
  exits : (int * string) list;
  run : matches -> unit;
}

type tool = { tool_name : string; version : string; tool_doc : string; cmds : cmd list }

let no_check _ = None

let flag ?(docv = "VAL") ?(doc = "") ?default ?(check = no_check)
    ?(repeatable = false) ?(required = false) ~kind names =
  { names; docv; doc; kind; repeatable; required; default; check }

let check_int s =
  match int_of_string_opt s with
  | Some _ -> None
  | None -> Some (Printf.sprintf "expected an integer, got %S" s)

let check_float s =
  match float_of_string_opt s with
  | Some _ -> None
  | None -> Some (Printf.sprintf "expected a number, got %S" s)

let cmd ~name ~doc ?positional ?(exits = []) ~flags run =
  { name; cmd_doc = doc; positional; flags; exits; run }

(* The one flag every subcommand has. *)
let help_flag =
  flag ~kind:Bool ~doc:"Show this help." [ "help" ]

(* ---- match accessors ---- *)

let slot (m : matches) name =
  List.find_opt (fun (f, _) -> List.mem name f.names) m.present

let values m name = match slot m name with Some (_, r) -> List.rev !r | None -> []
let flag_set m name = values m name <> []
let value m name = match values m name with [] -> None | v :: _ -> Some v
let positional (m : matches) = List.rev m.positional

(* The given value, else the one declared default that help renders. *)
let value_or_default m name =
  match (value m name, slot m name) with
  | Some v, _ -> v
  | None, Some ({ default = Some d; _ }, _) -> d
  | None, _ -> invalid_arg ("Spec: flag --" ^ name ^ " has no default")

let int_value m name = int_of_string (value_or_default m name)
let float_value m name = float_of_string (value_or_default m name)

(* ---- parsing ---- *)

let find_flag cmd name =
  List.find_opt (fun f -> List.mem name f.names) (help_flag :: cmd.flags)

let parse cmd args =
  let m =
    {
      present =
        List.map (fun f -> (f, ref [])) (help_flag :: cmd.flags);
      positional = [];
    }
  in
  let record f v =
    match List.find_opt (fun (g, _) -> g == f) m.present with
    | Some (_, r) -> r := v :: !r
    | None -> ()
  in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec go = function
    | [] -> Ok ()
    | "--" :: rest ->
      m.positional <- List.rev_append rest m.positional;
      Ok ()
    | arg :: rest when String.length arg > 2 && String.sub arg 0 2 = "--" ->
      let body = String.sub arg 2 (String.length arg - 2) in
      let name, inline =
        match String.index_opt body '=' with
        | Some i ->
          ( String.sub body 0 i,
            Some (String.sub body (i + 1) (String.length body - i - 1)) )
        | None -> (body, None)
      in
      dispatch arg name inline rest
    | arg :: rest when String.length arg >= 2 && arg.[0] = '-' && arg.[1] <> '-'
      ->
      let name = String.make 1 arg.[1] in
      let inline =
        if String.length arg > 2 then
          Some (String.sub arg 2 (String.length arg - 2))
        else None
      in
      dispatch arg name inline rest
    | arg :: rest ->
      m.positional <- arg :: m.positional;
      go rest
  and dispatch arg name inline rest =
    match find_flag cmd name with
    | None -> err "unknown option '%s'" arg
    | Some f -> (
      match (f.kind, inline, rest) with
      | Bool, Some _, _ -> err "option '%s' takes no value" arg
      | Bool, None, _ ->
        record f "";
        go rest
      | Value, Some v, _ ->
        record f v;
        go rest
      | Value, None, v :: rest ->
        record f v;
        go rest
      | Value, None, [] -> err "option '%s' needs a %s value" arg f.docv)
  in
  match go args with
  | Error _ as e -> e
  | Ok () ->
    if flag_set m "help" then Ok m
    else
      (* Arity and validity, centrally. *)
      let problem =
        List.find_map
          (fun f ->
            let canon = List.nth f.names (List.length f.names - 1) in
            let vs = values m canon in
            if f.required && vs = [] then
              Some (Printf.sprintf "missing required option '--%s'" canon)
            else if (not f.repeatable) && List.length vs > 1 then
              Some (Printf.sprintf "option '--%s' given more than once" canon)
            else if f.kind = Value then
              List.find_map
                (fun v ->
                  Option.map
                    (fun e -> Printf.sprintf "option '--%s': %s" canon e)
                    (f.check v))
                vs
            else None)
          cmd.flags
      in
      let problem =
        match (problem, cmd.positional) with
        | Some _, _ -> problem
        | None, Some p when p.pos_required && positional m = [] ->
          Some (Printf.sprintf "missing %s argument" p.pos_docv)
        | None, None when positional m <> [] ->
          Some
            (Printf.sprintf "unexpected argument '%s'"
               (List.hd (positional m)))
        | None, _ -> None
      in
      (match problem with Some e -> Error e | None -> Ok m)

(* ---- help rendering ---- *)

let flag_lhs f =
  let dashed n = if String.length n = 1 then "-" ^ n else "--" ^ n in
  let names = String.concat ", " (List.map dashed f.names) in
  match f.kind with Bool -> names | Value -> names ^ " " ^ f.docv

let wrap_doc doc =
  (* help is golden-tested; keep rendering trivial and stable *)
  String.concat " " (String.split_on_char '\n' doc)

let usage_line tool cmd =
  Printf.sprintf "usage: %s [OPTION]...%s"
    (String.concat " " (List.filter (( <> ) "") [ tool.tool_name; cmd.name ]))
    (match cmd.positional with
    | Some p ->
      if p.pos_required then " " ^ p.pos_docv else " [" ^ p.pos_docv ^ "]"
    | None -> "")

let cmd_help tool cmd =
  let b = Buffer.create 512 in
  Buffer.add_string b (usage_line tool cmd ^ "\n");
  Buffer.add_string b (wrap_doc cmd.cmd_doc ^ "\n");
  (match cmd.positional with
  | Some p ->
    Buffer.add_string b "\narguments:\n";
    Buffer.add_string b (Printf.sprintf "  %-26s %s\n" p.pos_docv (wrap_doc p.pos_doc))
  | None -> ());
  Buffer.add_string b "\noptions:\n";
  List.iter
    (fun f ->
      let lhs = flag_lhs f in
      let doc =
        wrap_doc f.doc
        ^ (match f.default with
          | Some d -> Printf.sprintf " (default %s)" d
          | None -> "")
        ^ (if f.repeatable then " (repeatable)" else "")
      in
      if String.length lhs <= 26 then
        Buffer.add_string b (Printf.sprintf "  %-26s %s\n" lhs doc)
      else Buffer.add_string b (Printf.sprintf "  %s\n  %-26s %s\n" lhs "" doc))
    (cmd.flags @ [ help_flag ]);
  (match cmd.exits with
  | [] -> ()
  | exits ->
    Buffer.add_string b "\nexit codes:\n";
    List.iter
      (fun (code, doc) ->
        Buffer.add_string b (Printf.sprintf "  %-4d %s\n" code (wrap_doc doc)))
      exits);
  Buffer.contents b

let tool_help tool =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "usage: %s COMMAND [OPTION]...\n%s\n\ncommands:\n"
       tool.tool_name (wrap_doc tool.tool_doc));
  List.iter
    (fun c ->
      Buffer.add_string b (Printf.sprintf "  %-12s %s\n" c.name (wrap_doc c.cmd_doc)))
    tool.cmds;
  Buffer.add_string b
    (Printf.sprintf
       "\nSee '%s COMMAND --help' for command options.  '--version' prints \
        the version.\n"
       tool.tool_name);
  Buffer.contents b

(* ---- dispatch ---- *)

let find_cmd tool name = List.find_opt (fun c -> c.name = name) tool.cmds

let main tool argv =
  let args = Array.to_list argv |> List.tl in
  match args with
  | [] ->
    prerr_string (tool_help tool);
    2
  | [ "--help" ] | [ "help" ] ->
    print_string (tool_help tool);
    0
  | [ "--version" ] ->
    print_endline tool.version;
    0
  | name :: rest -> (
    match find_cmd tool name with
    | None ->
      Printf.eprintf "%s: unknown command '%s'\n\n" tool.tool_name name;
      prerr_string (tool_help tool);
      2
    | Some cmd -> (
      match parse cmd rest with
      | Error e ->
        Printf.eprintf "%s %s: %s\n\n" tool.tool_name cmd.name e;
        prerr_string (cmd_help tool cmd);
        2
      | Ok m when flag_set m "help" ->
        print_string (cmd_help tool cmd);
        0
      | Ok m ->
        cmd.run m;
        0))
