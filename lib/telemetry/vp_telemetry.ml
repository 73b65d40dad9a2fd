(* Timeline internals.  Everything behind [on]: the disabled timeline
   has empty storage and every entry point tests [on] first.  A
   timeline is single-writer (one per run) so there is no locking;
   determinism across engine schedules follows from per-run ownership,
   not synchronisation. *)

type config = { enabled : bool; interval : int }

let default_interval = 10_000
let off = { enabled = false; interval = default_interval }
let on ?(interval = default_interval) () = { enabled = true; interval }

type series = { sname : string; mutable data : int array; mutable len : int }

type t = {
  on : bool;
  interval : int;
  name : string option;
  mutable series : series array;
  mutable scount : int;
  sindex : (string, int) Hashtbl.t;
  (* Events in parallel growable arrays: (kind, at, value). *)
  mutable ekind : string array;
  mutable eat : int array;
  mutable evalue : int array;
  mutable ecount : int;
}

let make ?name ~on ~interval () =
  {
    on;
    interval;
    name;
    series = [||];
    scount = 0;
    sindex = Hashtbl.create 16;
    ekind = [||];
    eat = [||];
    evalue = [||];
    ecount = 0;
  }

let disabled = make ~on:false ~interval:default_interval ()

let create ?name (c : config) =
  if not c.enabled then disabled
  else begin
    if c.interval <= 0 then
      Vp_util.Error.failf ~stage:"telemetry"
        "Telemetry.create: interval must be positive, got %d" c.interval;
    make ?name ~on:true ~interval:c.interval ()
  end

let enabled t = t.on
let interval_length t = t.interval
let name t = t.name

let intervals t =
  let n = ref 0 in
  for i = 0 to t.scount - 1 do
    if t.series.(i).len > !n then n := t.series.(i).len
  done;
  !n

module Series = struct
  type id = int

  let register t name =
    if not t.on then 0
    else
      match Hashtbl.find_opt t.sindex name with
      | Some id -> id
      | None ->
        if t.scount = Array.length t.series then begin
          let cap = Stdlib.max 8 (2 * t.scount) in
          let series =
            Array.init cap (fun i ->
                if i < t.scount then t.series.(i)
                else { sname = ""; data = [||]; len = 0 })
          in
          t.series <- series
        end;
        let id = t.scount in
        t.series.(id) <- { sname = name; data = Array.make 512 0; len = 0 };
        t.scount <- id + 1;
        Hashtbl.replace t.sindex name id;
        id

  let push t id v =
    if t.on then begin
      let s = t.series.(id) in
      if s.len = Array.length s.data then begin
        let data = Array.make (2 * s.len) 0 in
        Array.blit s.data 0 data 0 s.len;
        s.data <- data
      end;
      s.data.(s.len) <- v;
      s.len <- s.len + 1
    end

  let length t id = if t.on then t.series.(id).len else 0

  let values t id =
    if not t.on then [||]
    else
      let s = t.series.(id) in
      Array.sub s.data 0 s.len

  let names t =
    if not t.on then []
    else
      List.init t.scount (fun i -> t.series.(i).sname)
      |> List.sort String.compare

  let find t name =
    if not t.on then None
    else Option.map (values t) (Hashtbl.find_opt t.sindex name)
end

module Event = struct
  let emit t ~kind ~at ~value =
    if t.on then begin
      if t.ecount = Array.length t.ekind then begin
        let cap = Stdlib.max 64 (2 * t.ecount) in
        let grow a fill =
          let b = Array.make cap fill in
          Array.blit a 0 b 0 t.ecount;
          b
        in
        t.ekind <- grow t.ekind "";
        t.eat <- grow t.eat 0;
        t.evalue <- grow t.evalue 0
      end;
      t.ekind.(t.ecount) <- kind;
      t.eat.(t.ecount) <- at;
      t.evalue.(t.ecount) <- value;
      t.ecount <- t.ecount + 1
    end

  let all t =
    List.init t.ecount (fun i -> (t.ekind.(i), t.eat.(i), t.evalue.(i)))

  let count t ~kind =
    let n = ref 0 in
    for i = 0 to t.ecount - 1 do
      if String.equal t.ekind.(i) kind then incr n
    done;
    !n
end

module Sink = struct
  let summary t =
    if not t.on then []
    else
      List.init t.scount (fun i ->
          let s = t.series.(i) in
          let mn = ref max_int and mx = ref min_int and total = ref 0 in
          for j = 0 to s.len - 1 do
            let v = s.data.(j) in
            if v < !mn then mn := v;
            if v > !mx then mx := v;
            total := !total + v
          done;
          if s.len = 0 then (s.sname, 0, 0, 0, 0)
          else (s.sname, s.len, !mn, !mx, !total))
      |> List.sort compare

  let event_counts t =
    let tbl = Hashtbl.create 8 in
    for i = 0 to t.ecount - 1 do
      let k = t.ekind.(i) in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
    done;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

  let json_escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let write_trace ~path ts =
    let live = List.filter (fun t -> t.on) ts in
    let interval =
      match live with t :: _ -> t.interval | [] -> default_interval
    in
    let total_intervals =
      List.fold_left (fun acc t -> Stdlib.max acc (intervals t)) 0 live
    in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Printf.fprintf oc
          "{\"type\": \"meta\", \"schema\": \"vp-timeline-trace/1\", \
           \"interval\": %d, \"intervals\": %d}\n"
          interval total_intervals;
        (* A named timeline (one session epoch, say) stamps every one
           of its records with an extra ["run"] key; the validator only
           checks required keys, so stamped and unstamped traces share
           the vp-timeline-trace/1 schema. *)
        let run_field t =
          match t.name with
          | None -> ""
          | Some n -> Printf.sprintf "\"run\": \"%s\", " (json_escape n)
        in
        List.iter
          (fun t ->
            for i = 0 to t.scount - 1 do
              let s = t.series.(i) in
              Printf.fprintf oc "{\"type\": \"series\", %s\"name\": \"%s\", \"values\": ["
                (run_field t) (json_escape s.sname);
              for j = 0 to s.len - 1 do
                if j > 0 then output_string oc ", ";
                output_string oc (string_of_int s.data.(j))
              done;
              output_string oc "]}\n"
            done)
          live;
        List.iter
          (fun t ->
            for i = 0 to t.ecount - 1 do
              Printf.fprintf oc
                "{\"type\": \"event\", %s\"kind\": \"%s\", \"at\": %d, \
                 \"value\": %d}\n"
                (run_field t) (json_escape t.ekind.(i))
                t.eat.(i) t.evalue.(i)
            done)
          live)

  (* ---- validation ---- *)

  (* Pragmatic line checker matched to our own writer: one object per
     line, a [type] tag, the schema's required keys present.  Not a
     general JSON parser — the format is fully under this module's
     control. *)

  let required_keys = function
    | "meta" -> Some [ "schema"; "interval"; "intervals" ]
    | "series" -> Some [ "name"; "values" ]
    | "event" -> Some [ "kind"; "at"; "value" ]
    | _ -> None

  let contains ~needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0

  let type_of_line line =
    let tag = "\"type\": \"" in
    let tl = String.length tag in
    let rec find i =
      if i + tl > String.length line then None
      else if String.sub line i tl = tag then
        let rest = i + tl in
        match String.index_from_opt line rest '"' with
        | Some j -> Some (String.sub line rest (j - rest))
        | None -> None
      else find (i + 1)
    in
    find 0

  let validate_line line =
    let line = String.trim line in
    let n = String.length line in
    if n < 2 || line.[0] <> '{' || line.[n - 1] <> '}' then
      Error "not a single-line JSON object"
    else
      match type_of_line line with
      | None -> Error "missing \"type\" tag"
      | Some ty -> (
        match required_keys ty with
        | None -> Error (Printf.sprintf "unknown record type %S" ty)
        | Some keys -> (
          match
            List.find_opt
              (fun k -> not (contains ~needle:(Printf.sprintf "\"%s\":" k) line))
              keys
          with
          | Some missing ->
            Error (Printf.sprintf "%s record lacks key %S" ty missing)
          | None -> Ok ()))

  let validate_file ~path =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go n =
          match input_line ic with
          | exception End_of_file -> Ok n
          | line -> (
            match validate_line line with
            | Error e -> Error (Printf.sprintf "line %d: %s" (n + 1) e)
            | Ok () ->
              if n = 0 then
                let l = String.trim line in
                if type_of_line l <> Some "meta" then
                  Error "line 1: expected the meta record first"
                else if
                  not (contains ~needle:"\"vp-timeline-trace/1\"" l)
                then Error "line 1: not a vp-timeline-trace/1 meta record"
                else go 1
              else go (n + 1))
        in
        match go 0 with
        | Ok 0 -> Error "empty trace"
        | r -> r)
end

module Render = struct
  let glyphs = " .:-=+*#"

  (* Map [0, n) columns onto [0, len) source intervals: column c
     covers [lo c, lo (c+1)). *)
  let bucket ~len ~width c = c * len / width

  let sparkline ?(width = 72) values =
    let len = Array.length values in
    if len = 0 then ""
    else begin
      let width = Stdlib.min width len in
      let mx = Array.fold_left Stdlib.max 1 values in
      String.init width (fun c ->
          let lo = bucket ~len ~width c in
          let hi = Stdlib.max (lo + 1) (bucket ~len ~width (c + 1)) in
          let m = ref 0 in
          for i = lo to Stdlib.min (hi - 1) (len - 1) do
            if values.(i) > !m then m := values.(i)
          done;
          (* 0 maps to ' '; any non-zero value renders at least '.'. *)
          if !m = 0 then glyphs.[0]
          else
            let level = 1 + (!m * (String.length glyphs - 2) / mx) in
            glyphs.[Stdlib.min level (String.length glyphs - 1)])
    end

  let lane_glyphs = " .:oO#"

  let lane ?(width = 72) ~total part =
    let len = Stdlib.min (Array.length total) (Array.length part) in
    if len = 0 then ""
    else begin
      let width = Stdlib.min width len in
      String.init width (fun c ->
          let lo = bucket ~len ~width c in
          let hi = Stdlib.max (lo + 1) (bucket ~len ~width (c + 1)) in
          let p = ref 0 and t = ref 0 in
          for i = lo to Stdlib.min (hi - 1) (len - 1) do
            p := !p + part.(i);
            t := !t + total.(i)
          done;
          if !t = 0 || !p = 0 then lane_glyphs.[0]
          else
            let f = float_of_int !p /. float_of_int !t in
            if f >= 0.9 then lane_glyphs.[5]
            else if f >= 0.5 then lane_glyphs.[4]
            else if f >= 0.25 then lane_glyphs.[3]
            else if f >= 0.05 then lane_glyphs.[2]
            else lane_glyphs.[1])
    end

  let extent_rows ?(width = 72) ~cum timeline =
    let len = Array.length cum in
    let ids =
      List.sort_uniq compare (List.map (fun (_, _, p) -> p) timeline)
    in
    if len = 0 then List.map (fun id -> (id, "")) ids
    else begin
      let width = Stdlib.min width len in
      (* Branch span of column c: [lo_branch, hi_branch). *)
      let col_span c =
        let lo = bucket ~len ~width c in
        let hi = Stdlib.max (lo + 1) (bucket ~len ~width (c + 1)) in
        let lo_branch = if lo = 0 then 0 else cum.(lo - 1) in
        let hi_branch = cum.(Stdlib.min (hi - 1) (len - 1)) in
        (lo_branch, hi_branch)
      in
      List.map
        (fun id ->
          let extents =
            List.filter_map
              (fun (s, e, p) -> if p = id then Some (s, e) else None)
              timeline
          in
          let row =
            String.init width (fun c ->
                let lo, hi = col_span c in
                if List.exists (fun (s, e) -> s < hi && e > lo) extents then '='
                else ' ')
          in
          (id, row))
        ids
    end
end
