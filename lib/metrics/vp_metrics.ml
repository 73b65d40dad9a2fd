(* Continuous-profiling metrics plane (see vp_metrics.mli).

   One mutex guards the whole registry: every update is a cold
   once-per-stage or once-per-epoch event (the hot execution loops are
   never instrumented directly), so contention is irrelevant and the
   single lock buys the deterministic-merge discipline for free —
   counters are plain additions and histogram observations commute,
   so any interleaving of writers yields the same stable readings.

   Volatility: each metric is tagged at first registration.  Stable
   metrics (schedule-independent values) form the default snapshot;
   volatile metrics (wall-clock readings) render only on request,
   after a `# volatile` marker.

   The span clock below is the only wall-clock reading in the
   library: every other layer that wants a duration records a span. *)

module Io = Vp_util.Io

(* ------------------------------------------------------------------ *)
(* Histogram: 64 log2 buckets, exact count and sum.                    *)

module Hist = struct
  type h = { counts : int array; mutable count : int; mutable sum : int }

  let buckets = 64

  let create () = { counts = Array.make buckets 0; count = 0; sum = 0 }

  (* floor (log2 v) for v >= 1, by shifting. *)
  let floor_log2 v =
    let l = ref 0 and v = ref v in
    while !v > 1 do
      incr l;
      v := !v lsr 1
    done;
    !l

  let index v =
    if v <= 0 then 0
    else begin
      let f = floor_log2 v in
      let ceil_log2 = if v land (v - 1) = 0 then f else f + 1 in
      Stdlib.min (buckets - 1) (1 + ceil_log2)
    end

  (* OCaml ints are 63-bit, so [1 lsl 62] would wrap negative; the
     last bucket absorbs everything larger anyway, so its bound is
     max_int. *)
  let bound i =
    if i <= 0 then 0 else if i >= buckets - 1 then max_int else 1 lsl (i - 1)

  let observe h v =
    h.counts.(index v) <- h.counts.(index v) + 1;
    h.count <- h.count + 1;
    h.sum <- h.sum + v

  let count h = h.count
  let sum h = h.sum
  let bucket_count h i = h.counts.(i)

  let quantile h q =
    if h.count = 0 then 0
    else begin
      let rank = Stdlib.max 1 (int_of_float (ceil (q *. float_of_int h.count))) in
      let cum = ref 0 and result = ref (bound (buckets - 1)) in
      (try
         for i = 0 to buckets - 1 do
           cum := !cum + h.counts.(i);
           if !cum >= rank then begin
             result := bound i;
             raise Exit
           end
         done
       with Exit -> ());
      !result
    end

  let copy h = { counts = Array.copy h.counts; count = h.count; sum = h.sum }
end

(* ------------------------------------------------------------------ *)
(* Registry.                                                           *)

type metric = M_counter of int ref | M_hist of Hist.h
type entry = { volatile : bool; metric : metric }

let span_capacity = 4096

type span = {
  name : string;
  depth : int;
  domain : int;
  start_s : float;
  wall_s : float;
  work : int;
  minor_words : float;
  major_words : float;
}

type reg = {
  mutex : Mutex.t;
  table : (string, entry) Hashtbl.t;
  (* Per-domain stack of open spans, innermost first, holding their
     start readings: spans nest within one domain; tasks on other
     domains get their own stack, so concurrent stages never see each
     other's nesting. *)
  stack : span list ref Domain.DLS.key;
  ring : span option array;  (* completed; slot = index mod capacity *)
  mutable completed : int;
  flight_cap : int;
  flight_dir : string option;
  fl_kind : string array;
  fl_label : string array;
  fl_seq : int array;
  mutable fl_total : int;
  fl_dumps : (string, int) Hashtbl.t;  (* per-label dump sequence *)
  mutable dump_total : int;
  interval : int option;  (* timeline sampling, retired instructions *)
}

type t = Disabled | Enabled of reg

let disabled = Disabled

let create ?(flight_capacity = 64) ?flight_dir ?interval () =
  (match interval with
  | Some n when n <= 0 ->
    Vp_util.Error.failf ~stage:"metrics"
      "Vp_metrics.create: interval must be positive, got %d" n
  | _ -> ());
  let cap = Stdlib.max 1 flight_capacity in
  Enabled
    {
      mutex = Mutex.create ();
      table = Hashtbl.create 64;
      stack = Domain.DLS.new_key (fun () -> ref []);
      ring = Array.make span_capacity None;
      completed = 0;
      flight_cap = cap;
      flight_dir;
      fl_kind = Array.make cap "";
      fl_label = Array.make cap "";
      fl_seq = Array.make cap 0;
      fl_total = 0;
      fl_dumps = Hashtbl.create 8;
      dump_total = 0;
      interval;
    }

let enabled = function Disabled -> false | Enabled _ -> true
let interval = function Disabled -> None | Enabled r -> r.interval

let locked r f =
  Mutex.lock r.mutex;
  match f () with
  | v ->
    Mutex.unlock r.mutex;
    v
  | exception e ->
    Mutex.unlock r.mutex;
    raise e

(* First registration fixes a name's kind and volatility; a later use
   under a different kind is dropped rather than raising — metrics
   must never take the pipeline down. *)
let counter_cell r ~volatile name =
  match Hashtbl.find_opt r.table name with
  | Some { metric = M_counter c; _ } -> Some c
  | Some _ -> None
  | None ->
    let c = ref 0 in
    Hashtbl.replace r.table name { volatile; metric = M_counter c };
    Some c

let hist_cell r ~volatile name =
  match Hashtbl.find_opt r.table name with
  | Some { metric = M_hist h; _ } -> Some h
  | Some _ -> None
  | None ->
    let h = Hist.create () in
    Hashtbl.replace r.table name { volatile; metric = M_hist h };
    Some h

module Counter = struct
  let bump ?(volatile = false) t name n =
    match t with
    | Disabled -> ()
    | Enabled r ->
      locked r (fun () ->
          match counter_cell r ~volatile name with
          | Some c -> c := !c + n
          | None -> ())

  let value t name =
    match t with
    | Disabled -> 0
    | Enabled r ->
      locked r (fun () ->
          match Hashtbl.find_opt r.table name with
          | Some { metric = M_counter c; _ } -> !c
          | _ -> 0)
end

module Histogram = struct
  let observe ?(volatile = false) t name v =
    match t with
    | Disabled -> ()
    | Enabled r ->
      locked r (fun () ->
          match hist_cell r ~volatile name with
          | Some h -> Hist.observe h v
          | None -> ())

  let get t name =
    match t with
    | Disabled -> None
    | Enabled r ->
      locked r (fun () ->
          match Hashtbl.find_opt r.table name with
          | Some { metric = M_hist h; _ } -> Some (Hist.copy h)
          | _ -> None)
end

(* ------------------------------------------------------------------ *)
(* Spans: per-name aggregates in the registry, raw spans in a ring.    *)

module Span = struct
  type token = int
  (* 0 on a disabled registry; otherwise the span's depth + 1 on the
     entering domain. *)

  let capacity = span_capacity

  (* The ring append and the per-name counters and wall histogram, in
     one critical section. *)
  let complete r ({ name; work; wall_s; _ } as s) =
    locked r (fun () ->
        r.ring.(r.completed mod span_capacity) <- Some s;
        r.completed <- r.completed + 1;
        let key = "span." ^ name in
        (match counter_cell r ~volatile:false (key ^ ".count") with
        | Some c -> incr c
        | None -> ());
        (match counter_cell r ~volatile:false (key ^ ".work") with
        | Some c -> c := !c + work
        | None -> ());
        match hist_cell r ~volatile:true (key ^ ".wall_us") with
        | Some h -> Hist.observe h (int_of_float (wall_s *. 1e6))
        | None -> ())

  let enter t name =
    match t with
    | Disabled -> 0
    | Enabled r ->
      let st = Domain.DLS.get r.stack in
      let depth = List.length !st in
      let minor_words = Gc.minor_words () in
      let major_words = (Gc.quick_stat ()).Gc.major_words in
      let start_s = Unix.gettimeofday () in
      st :=
        {
          name;
          depth;
          domain = (Domain.self () :> int);
          start_s;
          wall_s = 0.0;
          work = 0;
          minor_words;
          major_words;
        }
        :: !st;
      depth + 1

  let exit ?(work = 0) t token =
    match t with
    | Disabled -> ()
    | Enabled r -> (
      let stop = Unix.gettimeofday () in
      let minor = Gc.minor_words () in
      let major = (Gc.quick_stat ()).Gc.major_words in
      let st = Domain.DLS.get r.stack in
      (* Pop down to this span; unclosed children (a raise skipped
         their exit) are discarded with their parent's extent. *)
      let rec pop = function
        | o :: rest when o.depth >= token -> pop rest
        | o :: rest when o.depth = token - 1 -> Some (o, rest)
        | _ -> None
      in
      match pop !st with
      | None -> ()
      | Some (o, rest) ->
        st := rest;
        complete r
          {
            o with
            wall_s = stop -. o.start_s;
            work;
            minor_words = minor -. o.minor_words;
            major_words = major -. o.major_words;
          })

  let record ?work t name f =
    match t with
    | Disabled -> f ()
    | Enabled _ -> (
      let token = enter t name in
      match f () with
      | v ->
        exit ~work:(match work with Some w -> w v | None -> 0) t token;
        v
      | exception e ->
        exit ~work:(-1) t token;
        raise e)

  let ring t =
    match t with
    | Disabled -> []
    | Enabled r ->
      locked r (fun () ->
          let kept = Stdlib.min r.completed span_capacity in
          List.init kept (fun i ->
              Option.get r.ring.((r.completed - kept + i) mod span_capacity)))

  let dropped t =
    match t with
    | Disabled -> 0
    | Enabled r ->
      locked r (fun () -> Stdlib.max 0 (r.completed - span_capacity))

  (* Chronological (start) order, indented by nesting depth; the
     stable sort keeps completion order among equal starts. *)
  let table t =
    let module Tab = Vp_util.Tabular in
    let tab =
      Tab.create
        ~header:
          [
            ("span", Tab.Left);
            ("wall", Tab.Right);
            ("work", Tab.Right);
            ("minor words", Tab.Right);
            ("major words", Tab.Right);
          ]
    in
    List.iter
      (fun s ->
        Tab.add_row tab
          [
            String.make (2 * s.depth) ' ' ^ s.name;
            Printf.sprintf "%.3f ms" (1e3 *. s.wall_s);
            (if s.work = 0 then "-" else string_of_int s.work);
            Printf.sprintf "%.0f" s.minor_words;
            Printf.sprintf "%.0f" s.major_words;
          ])
      (List.stable_sort (fun a b -> compare a.start_s b.start_s) (ring t));
    tab
end

(* ------------------------------------------------------------------ *)
(* OpenMetrics-style text exposition: vp-metrics-snapshot/1.           *)

module Snapshot = struct
  type sample = Counter of int | Hist of Hist.h

  let schema = "# vp-metrics-snapshot/1"

  let sanitize name =
    String.map
      (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c | _ -> '_')
      name

  (* A frozen copy of the registry, split by volatility, each half
     sorted by name. *)
  let sections t =
    match t with
    | Disabled -> ([], [])
    | Enabled r ->
      let stable, vol =
        locked r (fun () ->
            Hashtbl.fold
              (fun name e (s, v) ->
                let sample =
                  match e.metric with
                  | M_counter c -> Counter !c
                  | M_hist h -> Hist (Hist.copy h)
                in
                if e.volatile then (s, (name, sample) :: v)
                else ((name, sample) :: s, v))
              r.table ([], []))
      in
      let by_name (a, _) (b, _) = compare (a : string) b in
      (List.sort by_name stable, List.sort by_name vol)

  let samples ?(volatile = false) t =
    let stable, vol = sections t in
    if volatile then stable @ vol else stable

  let render_sample buf (name, sample) =
    let n = sanitize name in
    match sample with
    | Counter v ->
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" n);
      Buffer.add_string buf (Printf.sprintf "%s_total %d\n" n v)
    | Hist h ->
      Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" n);
      let cum = ref 0 in
      for i = 0 to Hist.buckets - 1 do
        let c = Hist.bucket_count h i in
        if c > 0 then begin
          cum := !cum + c;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" n (Hist.bound i) !cum)
        end
      done;
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n (Hist.count h));
      Buffer.add_string buf (Printf.sprintf "%s_sum %d\n" n (Hist.sum h));
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n (Hist.count h));
      Buffer.add_string buf (Printf.sprintf "%s_p50 %d\n" n (Hist.quantile h 0.50));
      Buffer.add_string buf (Printf.sprintf "%s_p90 %d\n" n (Hist.quantile h 0.90));
      Buffer.add_string buf (Printf.sprintf "%s_p99 %d\n" n (Hist.quantile h 0.99))

  let render ?(volatile = false) t =
    let stable, vol = sections t in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (schema ^ "\n");
    List.iter (render_sample buf) stable;
    if volatile && vol <> [] then begin
      Buffer.add_string buf "# volatile\n";
      List.iter (render_sample buf) vol
    end;
    Buffer.add_string buf "# EOF\n";
    Buffer.contents buf

  (* Through a sibling temp file and a rename, so a reader never sees a
     half-written snapshot.  A failure names [path], the file the
     caller asked for, and leaves no temp file behind. *)
  let write_file ~path content =
    let tmp = path ^ ".tmp" in
    match
      Io.write_file tmp content;
      Sys.rename tmp path
    with
    | () -> ()
    | exception Sys_error e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise (Sys_error (path ^ ": " ^ Io.error_reason ~path:tmp e))

  let write ?volatile t ~path = write_file ~path (render ?volatile t)

  let read_lines path =
    let lines = String.split_on_char '\n' (Io.read_file path) in
    match List.rev lines with "" :: rest -> List.rev rest | _ -> lines

  (* One walk over an exposition file checks every line and collects
     the samples as it goes, reconstructing histograms from their
     cumulative bucket lines.  Names come back in sanitized (rendered)
     form, in file order; [Ok (n, samples)] also counts the lines. *)
  let parse_lines lines =
    let n = List.length lines in
    if n = 0 then Error "empty snapshot"
    else if List.nth lines 0 <> schema then
      Error (Printf.sprintf "line 1: expected %S meta line" schema)
    else if List.nth lines (n - 1) <> "# EOF" then
      Error (Printf.sprintf "line %d: missing \"# EOF\" trailer" n)
    else begin
      let order = ref [] in
      let vals : (string, int) Hashtbl.t = Hashtbl.create 64 in
      let bucks : (string, (int * int) list ref) Hashtbl.t = Hashtbl.create 16 in
      let collect name v =
        match Io.find_sub name "_bucket{le=\"" with
        | Some i -> (
          let base = String.sub name 0 i in
          let j = i + String.length "_bucket{le=\"" in
          match String.index_from_opt name j '"' with
          | None -> ()
          | Some k ->
            let le = String.sub name j (k - j) in
            if le <> "+Inf" then begin
              let cell =
                match Hashtbl.find_opt bucks base with
                | Some l -> l
                | None ->
                  let l = ref [] in
                  Hashtbl.replace bucks base l;
                  l
              in
              match int_of_string_opt le with
              | Some b -> cell := (b, v) :: !cell
              | None -> ()
            end)
        | None -> Hashtbl.replace vals name v
      in
      let check i line =
        if i = 0 || i = n - 1 then Ok ()
        else if line = "" then Error (Printf.sprintf "line %d: empty line" (i + 1))
        else if line = "# EOF" then
          Error (Printf.sprintf "line %d: unexpected \"# EOF\"" (i + 1))
        else if String.starts_with ~prefix:"# TYPE " line then begin
          match String.split_on_char ' ' line with
          | [ _; _; name; (("counter" | "histogram") as kind) ] ->
            order := (name, kind) :: !order;
            Ok ()
          | [ _; _; _; kind ] ->
            Error
              (Printf.sprintf
                 "line %d: unknown metric kind %S (want counter|histogram)"
                 (i + 1) kind)
          | _ ->
            Error
              (Printf.sprintf
                 "line %d: malformed TYPE line (want \"# TYPE name \
                  counter|histogram\")"
                 (i + 1))
        end
        else if line.[0] = '#' then Ok () (* comment: # volatile, # mark, ... *)
        else begin
          match String.rindex_opt line ' ' with
          | None ->
            Error (Printf.sprintf "line %d: expected \"name value\"" (i + 1))
          | Some sp ->
            let name = String.sub line 0 sp in
            let v = String.sub line (sp + 1) (String.length line - sp - 1) in
            if name = "" then
              Error (Printf.sprintf "line %d: empty metric name" (i + 1))
            else if
              not
                (match name.[0] with
                | 'a' .. 'z' | 'A' .. 'Z' | '_' -> true
                | _ -> false)
            then Error (Printf.sprintf "line %d: bad metric name %S" (i + 1) name)
            else begin
              match int_of_string_opt v with
              | Some v ->
                collect name v;
                Ok ()
              | None ->
                Error (Printf.sprintf "line %d: malformed value %S" (i + 1) v)
            end
        end
      in
      let rec walk i = function
        | [] -> Ok ()
        | line :: rest -> (
          match check i line with Ok () -> walk (i + 1) rest | Error e -> Error e)
      in
      match walk 0 lines with
      | Error e -> Error e
      | Ok () ->
        let lookup name = Stdlib.Option.value ~default:0 (Hashtbl.find_opt vals name) in
        let sample_of (name, kind) =
          match kind with
          | "counter" -> Some (name, Counter (lookup (name ^ "_total")))
          | "histogram" ->
            let h = Hist.create () in
            let cum =
              match Hashtbl.find_opt bucks name with
              | Some l -> List.sort compare !l
              | None -> []
            in
            let prev = ref 0 in
            List.iter
              (fun (le, c) ->
                let inc = c - !prev in
                prev := c;
                let i = Hist.index le in
                h.Hist.counts.(i) <- h.Hist.counts.(i) + inc)
              cum;
            h.Hist.count <- lookup (name ^ "_count");
            h.Hist.sum <- lookup (name ^ "_sum");
            Some (name, Hist h)
          | _ -> None
        in
        Ok (n, List.filter_map sample_of (List.rev !order))
    end

  let parse_file ~path =
    match read_lines path with
    | exception Sys_error e -> Error (Io.error_reason ~path e)
    | lines -> parse_lines lines

  let validate_file ~path = Result.map fst (parse_file ~path)
  let read ~path = Result.map snd (parse_file ~path)
end

(* ------------------------------------------------------------------ *)
(* Chrome trace-event / Perfetto JSON export: vp-perfetto-trace/1.     *)

module Perfetto = struct
  type event = {
    name : string;
    cat : string;
    pid : int;
    tid : int;
    ts_us : float;
    dur_us : float;
  }

  type point =
    | Counter of { pid : int; name : string; ts : int; value : int }
    | Instant of { pid : int; name : string; ts : int; value : int }

  let schema = "vp-perfetto-trace/1"

  (* A complete event, [ts] taken relative to [t0]; [work], when
     given, goes to its [args]. *)
  let x_line ~t0 ?work e =
    Printf.sprintf
      "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f%s}"
      (Io.json_escape e.name) (Io.json_escape e.cat) e.pid e.tid
      (e.ts_us -. t0) e.dur_us
      (match work with
      | None -> ""
      | Some w -> Printf.sprintf ",\"args\":{\"work\":%d}" w)

  let write_lines ~processes ~points ~path evs =
    let meta =
      List.map
        (fun (pid, label) ->
          Printf.sprintf
            "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"%s\"}}"
            pid (Io.json_escape label))
        processes
    in
    let pts =
      List.map
        (function
          | Counter { pid; name; ts; value } ->
            Printf.sprintf
              "{\"ph\":\"C\",\"name\":\"%s\",\"pid\":%d,\"ts\":%d,\"args\":{\"value\":%d}}"
              (Io.json_escape name) pid ts value
          | Instant { pid; name; ts; value } ->
            Printf.sprintf
              "{\"ph\":\"i\",\"name\":\"%s\",\"pid\":%d,\"tid\":0,\"ts\":%d,\"args\":{\"value\":%d}}"
              (Io.json_escape name) pid ts value)
        points
    in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf
      (Printf.sprintf "{\"schema\":\"%s\",\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
         schema);
    let rec emit = function
      | [] -> ()
      | [ last ] ->
        Buffer.add_string buf last;
        Buffer.add_char buf '\n'
      | x :: rest ->
        Buffer.add_string buf x;
        Buffer.add_string buf ",\n";
        emit rest
    in
    emit (meta @ evs @ pts);
    Buffer.add_string buf "]}\n";
    Snapshot.write_file ~path (Buffer.contents buf)

  let write ?(processes = []) ?(points = []) ~path events =
    let t0 =
      List.fold_left (fun acc e -> Float.min acc e.ts_us) infinity events
    in
    let t0 = if events = [] then 0.0 else t0 in
    write_lines ~processes ~points ~path (List.map (x_line ~t0) events)

  (* One track per domain: spans on one domain nest by construction,
     so every track nests.  Starts are taken relative to the earliest
     span in seconds before scaling, which keeps a child's end from
     rounding past its parent's (an absolute microsecond timestamp
     carries a quarter-microsecond of float error).  Each span's work
     goes to its event's [args.work]. *)
  let write_spans t ~path =
    let spans = Span.ring t in
    let t0 =
      List.fold_left (fun acc (s : span) -> Float.min acc s.start_s) infinity
        spans
    in
    write_lines ~processes:[ (1, "driver") ] ~points:[] ~path
      (List.map
         (fun (s : span) ->
           x_line ~t0:0.0 ~work:s.work
             {
               name = s.name;
               cat = "driver";
               pid = 1;
               tid = s.domain;
               ts_us = (s.start_s -. t0) *. 1e6;
               dur_us = s.wall_s *. 1e6;
             })
         spans);
    List.length spans

  let contains hay needle = Stdlib.Option.is_some (Io.find_sub hay needle)

  let validate_file ~path =
    match Snapshot.read_lines path with
    | exception Sys_error e -> Error (Io.error_reason ~path e)
    | [] -> Error "empty trace"
    | first :: rest ->
      if not (contains first ("\"" ^ schema ^ "\"")) then
        Error (Printf.sprintf "line 1: missing %S schema tag" schema)
      else if not (contains first "\"traceEvents\":[") then
        Error "line 1: missing \"traceEvents\" array opener"
      else begin
        let n = List.length rest in
        if n = 0 || List.nth rest (n - 1) <> "]}" then
          Error
            (Printf.sprintf "line %d: missing \"]}\" array closer" (n + 1))
        else begin
          let body = List.filteri (fun i _ -> i < n - 1) rest in
          (* JSON array syntax: a comma after every event but the last. *)
          let last = n - 2 in
          let check i line =
            let fail what = Error (Printf.sprintf "line %d: %s" (i + 2) what) in
            let has key = contains line ("\"" ^ key ^ "\":") in
            let len = String.length line in
            let comma = len > 0 && line.[len - 1] = ',' in
            let len = if comma then len - 1 else len in
            if comma && i = last then fail "trailing comma after the last event"
            else if (not comma) && i < last then
              fail "missing comma before the next event"
            else if len < 2 || line.[0] <> '{' || line.[len - 1] <> '}' then
              fail "not a JSON object"
            else if contains line "\"ph\":\"M\"" then
              if has "name" && has "pid" then Ok ()
              else fail "metadata event missing name/pid"
            else if contains line "\"ph\":\"X\"" then
              if List.for_all has [ "name"; "pid"; "tid"; "ts"; "dur" ] then
                Ok ()
              else fail "complete event missing name/pid/tid/ts/dur"
            else if contains line "\"ph\":\"C\"" then
              if List.for_all has [ "name"; "pid"; "ts"; "args"; "value" ] then
                Ok ()
              else fail "counter event missing name/pid/ts/args.value"
            else if contains line "\"ph\":\"i\"" then
              if List.for_all has [ "name"; "pid"; "ts" ] then Ok ()
              else fail "instant event missing name/pid/ts"
            else fail "unknown event phase"
          in
          let rec walk i = function
            | [] -> Ok (List.length body)
            | line :: more -> (
              match check i line with
              | Ok () -> walk (i + 1) more
              | Error e -> Error e)
          in
          walk 0 body
        end
      end
end

(* ------------------------------------------------------------------ *)
(* Flight recorder.                                                    *)

module Flight = struct
  let note t ~kind ~label =
    match t with
    | Disabled -> ()
    | Enabled r ->
      locked r (fun () ->
          let i = r.fl_total mod r.flight_cap in
          r.fl_kind.(i) <- kind;
          r.fl_label.(i) <- label;
          r.fl_seq.(i) <- r.fl_total;
          r.fl_total <- r.fl_total + 1)

  (* Oldest-first surviving marks. *)
  let marks r =
    locked r (fun () ->
        let n = Stdlib.min r.fl_total r.flight_cap in
        List.init n (fun j ->
            let i = (r.fl_total - n + j) mod r.flight_cap in
            (r.fl_seq.(i), r.fl_kind.(i), r.fl_label.(i))))

  let file_label label =
    String.map
      (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_') as c -> c | _ -> '-')
      label

  let dump t ~reason ~label () =
    match t with
    | Disabled -> ()
    | Enabled r -> (
      match r.flight_dir with
      | None -> ()
      | Some dir ->
        let seq =
          locked r (fun () ->
              let n =
                Stdlib.Option.value ~default:0 (Hashtbl.find_opt r.fl_dumps label)
              in
              Hashtbl.replace r.fl_dumps label (n + 1);
              r.dump_total <- r.dump_total + 1;
              n)
        in
        Io.mkdir_p dir;
        let base = Printf.sprintf "flight-%s-%d" (file_label label) seq in
        (* Splice the reason and the mark ring in as comment lines
           right after the schema line, so the dump stays a valid
           vp-metrics-snapshot/1 file. *)
        let rendered = Snapshot.render ~volatile:true t in
        let cut = String.index rendered '\n' + 1 in
        let buf = Buffer.create (String.length rendered + 256) in
        Buffer.add_string buf (String.sub rendered 0 cut);
        Buffer.add_string buf (Printf.sprintf "# reason %s\n" reason);
        List.iter
          (fun (seq, kind, lbl) ->
            Buffer.add_string buf (Printf.sprintf "# mark %d %s %s\n" seq kind lbl))
          (marks r);
        Buffer.add_string buf
          (String.sub rendered cut (String.length rendered - cut));
        Snapshot.write_file
          ~path:(Filename.concat dir (base ^ ".metrics"))
          (Buffer.contents buf);
        ignore
          (Perfetto.write_spans t
             ~path:(Filename.concat dir (base ^ ".perfetto.json"))
            : int))

  let dumps t =
    match t with Disabled -> 0 | Enabled r -> locked r (fun () -> r.dump_total)
end
