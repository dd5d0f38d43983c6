type value = Int of int | Float of float | Bool of bool | Str of string

type span = {
  name : string;
  attrs : (string * value) list;
  start_ms : float;
  dur_ms : float;
  self_ms : float;
  ticks : int;
  self_ticks : int;
  children : span list;
}

type histogram = Aggregate.hist = private {
  mutable count : int;
  mutable sum : float;
  mutable min : float;
  mutable max : float;
  mutable first : int;
  mutable buckets : int array;
}

type report = {
  roots : span list;
  counters : (string * int) list;
  histograms : (string * histogram) list;
  dropped_spans : int;
  evicted_histograms : int;
  trace_id : string option;
}

(* An open span under construction.  [f_t0] is absolute wall-clock ms;
   children accumulate reversed. *)
type frame = {
  f_name : string;
  mutable f_attrs : (string * value) list; (* reversed *)
  f_t0 : float;
  f_ticks0 : int;
  mutable f_kids : span list; (* reversed *)
  mutable f_kid_ticks : int;
  mutable f_kid_ms : float;
}

(* The histogram key space is an LRU: an adversarial query stream
   minting fresh per-fingerprint names ([relalg.node_card.<fp>]) cannot
   grow it without bound — past [max_histos] the coldest key is evicted
   and tallied.  A collector is thread-local single-threaded state, so
   unlike the decide cache no lock is needed. *)
module Histos = Lru.Make (String)

(* A recording keeps at most this many spans and histogram keys. *)
let max_spans = 20_000
let max_histos = 1024

(* The no-op sink keeps [enabled] true while skipping all bookkeeping: the
   cost of observation itself (the branches in the engines' inner loops)
   can be measured against the fully-disabled build. *)
type mode = Noop | Record

type collector = {
  mode : mode;
  t_start : float;
  mutable stack : frame list;
  mutable roots : span list; (* reversed *)
  mutable nspans : int;
  mutable dropped : int;
  mutable trace : string option;
  counters : (string, int ref) Hashtbl.t;
  histos : Aggregate.hist Histos.t;
}

(* Exactly one collector is ambient at a time per thread; [record] and
   [with_noop] nest by save/restore, like the ambient budget.  The slot is
   thread-local: a collector is single-threaded mutable state, so each
   concurrent worker (a domain of a parallel batch, a worker seat of
   [fq serve]) records (or stays silent) independently instead of racing
   on one frame stack. *)
let active_key : collector option Thread_local.key = Thread_local.new_key None

let active () = Thread_local.get active_key

let enabled () = Option.is_some (active ())

let now_ms () = Unix.gettimeofday () *. 1000.

let close c fr =
  (match c.stack with
  | top :: rest when top == fr -> c.stack <- rest
  | _ -> () (* unbalanced close (collector swapped mid-span); drop silently *));
  let t1 = now_ms () in
  let ticks = Budget.global_ticks () - fr.f_ticks0 in
  let dur = t1 -. fr.f_t0 in
  let sp =
    { name = fr.f_name;
      attrs = List.rev fr.f_attrs;
      start_ms = fr.f_t0 -. c.t_start;
      dur_ms = dur;
      self_ms = Float.max 0. (dur -. fr.f_kid_ms);
      ticks;
      self_ticks = max 0 (ticks - fr.f_kid_ticks);
      children = List.rev fr.f_kids }
  in
  match c.stack with
  | parent :: _ ->
    parent.f_kids <- sp :: parent.f_kids;
    parent.f_kid_ticks <- parent.f_kid_ticks + ticks;
    parent.f_kid_ms <- parent.f_kid_ms +. dur
  | [] -> c.roots <- sp :: c.roots

let with_span ?(attrs = []) name f =
  match active () with
  | None -> f ()
  | Some c -> (
    match c.mode with
    | Noop -> f ()
    | Record ->
      if c.nspans >= max_spans then begin
        c.dropped <- c.dropped + 1;
        f ()
      end
      else begin
        c.nspans <- c.nspans + 1;
        let fr =
          { f_name = name;
            f_attrs = List.rev attrs;
            f_t0 = now_ms ();
            f_ticks0 = Budget.global_ticks ();
            f_kids = [];
            f_kid_ticks = 0;
            f_kid_ms = 0. }
        in
        c.stack <- fr :: c.stack;
        Fun.protect ~finally:(fun () -> close c fr) f
      end)

let set_attr k v =
  match active () with
  | Some { mode = Record; stack = fr :: _; _ } -> fr.f_attrs <- (k, v) :: fr.f_attrs
  | _ -> ()

let count ?(n = 1) name =
  match active () with
  | Some ({ mode = Record; _ } as c) -> (
    match Hashtbl.find_opt c.counters name with
    | Some r -> r := !r + n
    | None -> Hashtbl.add c.counters name (ref n))
  | _ -> ()

let observe name v =
  match active () with
  | Some ({ mode = Record; _ } as c) -> (
    match Histos.find c.histos name with
    | Some h -> Aggregate.observe h v
    | None ->
      let h = Aggregate.create () in
      Aggregate.observe h v;
      ignore (Histos.replace c.histos name h))
  | _ -> ()

let set_trace_id id =
  match active () with
  | Some ({ mode = Record; _ } as c) -> c.trace <- Some id
  | _ -> ()

let trace_id () =
  match active () with Some c -> c.trace | None -> None

(* ---------------------------- recording ---------------------------- *)

let make_collector mode =
  { mode;
    t_start = now_ms ();
    stack = [];
    roots = [];
    nspans = 0;
    dropped = 0;
    trace = None;
    counters = Hashtbl.create 16;
    histos = Histos.create max_histos }

let run_with c f = Thread_local.with_value active_key (Some c) f

let snapshot c =
  let sorted_assoc fold project tbl =
    fold (fun k v acc -> (k, project v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  { roots = List.rev c.roots;
    counters = sorted_assoc Hashtbl.fold (fun r -> !r) c.counters;
    histograms = sorted_assoc Histos.fold Fun.id c.histos;
    dropped_spans = c.dropped;
    evicted_histograms = Histos.evictions c.histos;
    trace_id = c.trace }

let record f =
  let c = make_collector Record in
  let v = Budget.with_tick_clock (fun () -> run_with c f) in
  (v, snapshot c)

let with_noop f = run_with (make_collector Noop) f

(* ----------------------------- analysis ----------------------------- *)

let total_ticks (r : report) = List.fold_left (fun acc sp -> acc + sp.ticks) 0 r.roots

let attribution (r : report) =
  let tbl = Hashtbl.create 16 in
  let rec go sp =
    (match Hashtbl.find_opt tbl sp.name with
    | Some acc -> acc := !acc + sp.self_ticks
    | None -> Hashtbl.add tbl sp.name (ref sp.self_ticks));
    List.iter go sp.children
  in
  List.iter go r.roots;
  Hashtbl.fold (fun k v acc -> (k, !v) :: acc) tbl []
  |> List.sort (fun (na, a) (nb, b) -> if a <> b then compare b a else compare na nb)

(* Sibling spans of the same name collapse into one line; pretty output of
   an enumeration that decided 500 candidates stays 500x shorter than the
   machine sinks. *)
type rollup = {
  r_name : string;
  r_count : int;
  r_ticks : int;
  r_self_ticks : int;
  r_dur_ms : float;
  r_attrs : (string * value) list;
  r_children : rollup list;
}

let rec rollup spans =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun sp ->
      match Hashtbl.find_opt tbl sp.name with
      | Some l -> l := sp :: !l
      | None ->
        Hashtbl.add tbl sp.name (ref [ sp ]);
        order := sp.name :: !order)
    spans;
  List.rev_map
    (fun name ->
      let group = List.rev !(Hashtbl.find tbl name) in
      { r_name = name;
        r_count = List.length group;
        r_ticks = List.fold_left (fun a sp -> a + sp.ticks) 0 group;
        r_self_ticks = List.fold_left (fun a sp -> a + sp.self_ticks) 0 group;
        r_dur_ms = List.fold_left (fun a sp -> a +. sp.dur_ms) 0. group;
        r_attrs = (match group with [ sp ] -> sp.attrs | _ -> []);
        r_children = rollup (List.concat_map (fun sp -> sp.children) group) })
    !order

(* ------------------------------ sinks ------------------------------- *)

let pp_value ppf = function
  | Int n -> Format.pp_print_int ppf n
  | Float f -> Format.fprintf ppf "%g" f
  | Bool b -> Format.pp_print_bool ppf b
  | Str s -> Format.pp_print_string ppf s

let pp_attrs ppf = function
  | [] -> ()
  | attrs ->
    Format.fprintf ppf " [%a]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
         (fun ppf (k, v) -> Format.fprintf ppf "%s=%a" k pp_value v))
      attrs

let pp_pretty ppf (r : report) =
  Format.fprintf ppf "spans (ticks total/self):@\n";
  let rec go indent ru =
    Format.fprintf ppf "%s%s%s%a  ticks=%d/%d  %.1fms@\n" indent ru.r_name
      (if ru.r_count > 1 then Printf.sprintf " x%d" ru.r_count else "")
      pp_attrs ru.r_attrs ru.r_ticks ru.r_self_ticks ru.r_dur_ms;
    List.iter (go (indent ^ "  ")) ru.r_children
  in
  List.iter (go "  ") (rollup r.roots);
  if r.dropped_spans > 0 then
    Format.fprintf ppf "  (%d spans over the recording cap, not shown)@\n" r.dropped_spans

let pp_metrics ppf (r : report) =
  if r.counters <> [] then begin
    Format.fprintf ppf "counters:@\n";
    List.iter (fun (k, v) -> Format.fprintf ppf "  %-40s %d@\n" k v) r.counters
  end;
  if r.histograms <> [] then begin
    Format.fprintf ppf "histograms (count/sum/min/max):@\n";
    List.iter
      (fun (k, h) ->
        Format.fprintf ppf "  %-40s n=%d sum=%g min=%g max=%g@\n" k h.count h.sum h.min h.max)
      r.histograms
  end;
  if r.evicted_histograms > 0 then
    Format.fprintf ppf "  (%d cold histogram keys evicted over the cap)@\n" r.evicted_histograms

(* minimal JSON encoding; attribute strings are escaped by hand so the
   sinks stay dependency-free *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 32 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_value = function
  | Int n -> string_of_int n
  | Float f -> Printf.sprintf "%g" f
  | Bool b -> string_of_bool b
  | Str s -> Printf.sprintf "\"%s\"" (json_escape s)

let json_attrs attrs =
  String.concat ", "
    (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" (json_escape k) (json_value v)) attrs)

let pp_jsonl ppf (r : report) =
  let rec span depth sp =
    Format.fprintf ppf
      "{\"type\": \"span\", \"name\": \"%s\", \"depth\": %d, \"start_ms\": %.3f, \"dur_ms\": \
       %.3f, \"self_ms\": %.3f, \"ticks\": %d, \"self_ticks\": %d, \"attrs\": {%s}}@\n"
      (json_escape sp.name) depth sp.start_ms sp.dur_ms sp.self_ms sp.ticks sp.self_ticks
      (json_attrs sp.attrs);
    List.iter (span (depth + 1)) sp.children
  in
  List.iter (span 0) r.roots;
  List.iter
    (fun (k, v) ->
      Format.fprintf ppf "{\"type\": \"counter\", \"name\": \"%s\", \"value\": %d}@\n"
        (json_escape k) v)
    r.counters;
  List.iter
    (fun (k, h) ->
      Format.fprintf ppf
        "{\"type\": \"histogram\", \"name\": \"%s\", \"count\": %d, \"sum\": %g, \"min\": %g, \
         \"max\": %g}@\n"
        (json_escape k) h.count h.sum h.min h.max)
    r.histograms;
  if r.dropped_spans > 0 then
    Format.fprintf ppf "{\"type\": \"dropped_spans\", \"value\": %d}@\n" r.dropped_spans;
  if r.evicted_histograms > 0 then
    Format.fprintf ppf "{\"type\": \"evicted_histograms\", \"value\": %d}@\n" r.evicted_histograms

let pp_chrome ppf (r : report) =
  (* the Chrome trace_event "JSON Array Format": ts/dur in microseconds *)
  Format.fprintf ppf "[@\n";
  let first = ref true in
  let sep () =
    if !first then first := false else Format.fprintf ppf ",@\n"
  in
  let rec span sp =
    sep ();
    let args =
      json_attrs ((("ticks", Int sp.ticks) :: ("self_ticks", Int sp.self_ticks) :: sp.attrs))
    in
    Format.fprintf ppf
      "{\"name\": \"%s\", \"cat\": \"fq\", \"ph\": \"X\", \"ts\": %.1f, \"dur\": %.1f, \
       \"pid\": 1, \"tid\": 1, \"args\": {%s}}"
      (json_escape sp.name) (sp.start_ms *. 1000.) (sp.dur_ms *. 1000.) args;
    List.iter span sp.children
  in
  List.iter span r.roots;
  if r.counters <> [] then begin
    sep ();
    Format.fprintf ppf
      "{\"name\": \"metrics\", \"cat\": \"fq\", \"ph\": \"i\", \"ts\": 0, \"pid\": 1, \"tid\": \
       1, \"s\": \"g\", \"args\": {%s}}"
      (json_attrs (List.map (fun (k, v) -> (k, Int v)) r.counters))
  end;
  Format.fprintf ppf "@\n]@\n"
