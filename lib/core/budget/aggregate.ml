(* Always-on aggregation primitives for the serving plane: fixed
   log-bucketed (HDR-style) histograms, monotonic counters with label
   dimensions, and a versioned Prometheus text exposition.

   Telemetry (telemetry.ml) is request-scoped: a collector lives for one
   evaluation, and it records into these same histograms.  The serve
   daemon merges them into metrics that accumulate for the process
   lifetime, answer quantile queries, and render to a scrape format — at
   a cost low enough to leave on permanently.  A fixed bucket layout
   makes observation O(1) (a log2 and an array increment; it allocates
   only when a value lands outside the span of buckets seen so far) and
   makes merged histograms associative: two hists observed on different
   worker domains merge bucket-wise with no loss beyond the bucket width
   that was already accepted at observe time. *)

(* ---- bucket layout ------------------------------------------------ *)

(* Bucket upper bounds follow a quarter-octave geometric ladder:
   le(i) = 2 ^ ((i - zero_bucket) / 4), i.e. consecutive bounds differ
   by 2^(1/4) ~ 19%.  With 128 buckets the ladder spans ~2.4e-5 .. 6.2e4
   relative to the unit, which covers microsecond-to-minute latencies in
   milliseconds and 1..60k-tick fuel budgets alike; the last bucket is a
   +Inf catch-all so totals are always conserved. *)

let bucket_count = 128
let zero_bucket = 62 (* le(zero_bucket) = 1.0 *)
let subdiv = 4.0 (* buckets per octave *)

let bucket_le i =
  if i >= bucket_count - 1 then infinity
  else Float.pow 2.0 (float_of_int (i - zero_bucket) /. subdiv)

let bucket_index v =
  if not (Float.is_finite v) || v <= 0.0 then
    if v > 0.0 then bucket_count - 1 else 0
  else
    (* smallest i with v <= le(i) *)
    let raw = ceil (subdiv *. (Float.log2 v)) in
    let i = int_of_float raw + zero_bucket in
    if i < 0 then 0 else if i > bucket_count - 1 then bucket_count - 1 else i

(* ---- histograms --------------------------------------------------- *)

(* A histogram stores only the span of ladder buckets it has observed:
   [buckets.(k)] counts bucket [first + k].  Most histograms see a
   handful of neighbouring buckets (a plan node's output cardinality
   rarely moves), and the serve registry keeps one per fingerprint, so a
   full 128-slot ladder per key would dominate its memory. *)
type hist = {
  mutable count : int;
  mutable sum : float;
  mutable min : float;
  mutable max : float;
  mutable first : int;
  mutable buckets : int array;
}

let create () =
  { count = 0; sum = 0.0; min = infinity; max = neg_infinity; first = 0; buckets = [||] }

let copy h = { h with buckets = Array.copy h.buckets }

(* Widen [h]'s span to cover buckets [lo..hi]; new slots count 0. *)
let cover h lo hi =
  let len = Array.length h.buckets in
  let first = if len = 0 then lo else Int.min lo h.first in
  let last = if len = 0 then hi else Int.max hi (h.first + len - 1) in
  if last - first + 1 > len then begin
    let b = Array.make (last - first + 1) 0 in
    if len > 0 then Array.blit h.buckets 0 b (h.first - first) len;
    h.first <- first;
    h.buckets <- b
  end

let observe h v =
  h.count <- h.count + 1;
  h.sum <- h.sum +. v;
  if v < h.min then h.min <- v;
  if v > h.max then h.max <- v;
  let i = bucket_index v in
  cover h i i;
  let k = i - h.first in
  h.buckets.(k) <- h.buckets.(k) + 1

let mean h = if h.count = 0 then None else Some (h.sum /. float_of_int h.count)

let merge ~into src =
  into.count <- into.count + src.count;
  into.sum <- into.sum +. src.sum;
  if src.min < into.min then into.min <- src.min;
  if src.max > into.max then into.max <- src.max;
  let len = Array.length src.buckets in
  if len > 0 then begin
    cover into src.first (src.first + len - 1);
    let off = src.first - into.first in
    Array.iteri (fun k n -> into.buckets.(off + k) <- into.buckets.(off + k) + n) src.buckets
  end

(* Quantile estimate: the upper bound of the first bucket whose
   cumulative count reaches q * count.  The estimate is exact up to one
   bucket width (~19% relative), which is the resolution contract the
   QCheck conservation property pins. *)
let quantile h q =
  if h.count = 0 then nan
  else begin
    let rank = Float.min 1.0 (Float.max 0.0 q) *. float_of_int h.count in
    (* the last bucket qualifies for any [q] in [0..1]: its cumulative
       count is [count] *)
    let last = Array.length h.buckets - 1 in
    let rec go k acc =
      let acc = acc + h.buckets.(k) in
      if k = last || (float_of_int acc >= rank && acc > 0) then bucket_le (h.first + k)
      else go (k + 1) acc
    in
    (* clamp to the observed range so p100 of a +Inf bucket stays honest *)
    Float.min h.max (Float.max h.min (go 0 0))
  end

(* ---- Prometheus text exposition ----------------------------------- *)

(* The exposition is versioned by its first line; bumping the grammar
   means bumping this constant and the cram pins with it. *)
let exposition_version = 1

type value = Counter of int | Gauge of float
type family = {
  f_name : string;
  f_help : string;
  f_kind : [ `Counter | `Gauge | `Histogram ];
  f_counters : ((string * string) list * value) list;
  f_hists : ((string * string) list * hist) list;
}

let counter_family ~name ~help samples =
  { f_name = name; f_help = help; f_kind = `Counter;
    f_counters = List.map (fun (l, n) -> (l, Counter n)) samples;
    f_hists = [] }

let gauge_family ~name ~help samples =
  { f_name = name; f_help = help; f_kind = `Gauge;
    f_counters = List.map (fun (l, v) -> (l, Gauge v)) samples;
    f_hists = [] }

let histogram_family ~name ~help samples =
  { f_name = name; f_help = help; f_kind = `Histogram;
    f_counters = []; f_hists = samples }

(* Label values escape backslash, double-quote and newline, per the
   Prometheus text-format spec. *)
let escape_label_value s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Labels render sorted by label name so a sample's identity is a
   canonical string: deterministic across Domain interleavings and
   Hashtbl orders. *)
let render_labels = function
  | [] -> ""
  | labels ->
      let labels =
        List.sort (fun (a, _) (b, _) -> compare a b) labels
      in
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
             labels)
      ^ "}"

let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else Printf.sprintf "%g" v

let exposition families =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "# fq-metrics-exposition %d\n" exposition_version);
  let families =
    List.sort (fun a b -> compare a.f_name b.f_name) families
  in
  List.iter
    (fun f ->
      let kind =
        match f.f_kind with
        | `Counter -> "counter"
        | `Gauge -> "gauge"
        | `Histogram -> "histogram"
      in
      Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" f.f_name f.f_help);
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" f.f_name kind);
      let scalar_lines =
        List.map
          (fun (labels, v) ->
            let v =
              match v with Counter n -> float_of_int n | Gauge g -> g
            in
            Printf.sprintf "%s%s %s\n" f.f_name (render_labels labels)
              (float_str v))
          f.f_counters
      in
      List.iter (Buffer.add_string b) (List.sort compare scalar_lines);
      let hist_blocks =
        List.map
          (fun (labels, h) ->
            let hb = Buffer.create 256 in
            let cum = ref 0 in
            let bucket_line le =
              Buffer.add_string hb
                (Printf.sprintf "%s_bucket%s %d\n" f.f_name
                   (render_labels (labels @ [ ("le", le) ]))
                   !cum)
            in
            (* render only buckets that advance the cumulative count,
               plus the mandatory +Inf terminal — the full 128-rung
               ladder would bloat every scrape 100x for no information *)
            Array.iteri
              (fun k n ->
                cum := !cum + n;
                if n > 0 && h.first + k < bucket_count - 1 then
                  bucket_line (float_str (bucket_le (h.first + k))))
              h.buckets;
            bucket_line "+Inf";
            Buffer.add_string hb
              (Printf.sprintf "%s_sum%s %s\n" f.f_name (render_labels labels)
                 (float_str h.sum));
            Buffer.add_string hb
              (Printf.sprintf "%s_count%s %d\n" f.f_name (render_labels labels)
                 h.count);
            Buffer.contents hb)
          f.f_hists
      in
      List.iter (Buffer.add_string b) (List.sort compare hist_blocks))
    families;
  Buffer.contents b

(* ---- exposition parsing ------------------------------------------- *)

(* The inverse, used by [fq top] and the CI smoke job ("the exposition
   parses").  Returns each sample line as (metric, labels, value);
   comment lines are validated for shape and dropped.  Raises
   [Failure] on grammar violations — including a missing or wrong
   version header, so scraping a future incompatible server fails
   loudly instead of mis-rendering. *)

let parse_labels s =
  (* s = contents between '{' and '}' *)
  let n = String.length s in
  let labels = ref [] in
  let i = ref 0 in
  while !i < n do
    let eq =
      match String.index_from_opt s !i '=' with
      | Some e -> e
      | None -> failwith "exposition: label without '='"
    in
    let name = String.sub s !i (eq - !i) in
    if eq + 1 >= n || s.[eq + 1] <> '"' then
      failwith "exposition: unquoted label value";
    let b = Buffer.create 16 in
    let j = ref (eq + 2) in
    let closed = ref false in
    while not !closed do
      if !j >= n then failwith "exposition: unterminated label value";
      (match s.[!j] with
      | '\\' ->
          if !j + 1 >= n then failwith "exposition: dangling escape";
          (match s.[!j + 1] with
          | 'n' -> Buffer.add_char b '\n'
          | '\\' -> Buffer.add_char b '\\'
          | '"' -> Buffer.add_char b '"'
          | c -> Buffer.add_char b c);
          j := !j + 2
      | '"' ->
          closed := true;
          incr j
      | c ->
          Buffer.add_char b c;
          incr j);
    done;
    labels := (name, Buffer.contents b) :: !labels;
    if !j < n && s.[!j] = ',' then incr j;
    i := !j
  done;
  List.rev !labels

let parse_value s =
  match s with
  | "+Inf" -> infinity
  | "-Inf" -> neg_infinity
  | s -> (
      match float_of_string_opt s with
      | Some v -> v
      | None -> failwith ("exposition: bad sample value " ^ s))

(* A rendered [le] bound back to its rung: the nearest quarter octave,
   since [float_str] keeps six significant digits, far finer than the
   ladder's 19% steps. *)
let rung_of_le = function
  | "+Inf" -> bucket_count - 1
  | le ->
    let i = zero_bucket + int_of_float (Float.round (subdiv *. Float.log2 (parse_value le))) in
    Int.max 0 (Int.min (bucket_count - 1) i)

let histogram_of_samples ~name samples =
  let h = create () in
  let bucket = name ^ "_bucket" and sum = name ^ "_sum" in
  (* each label set's cumulative count so far: its rungs render in
     ascending order, so each sample adds its increment to one rung *)
  let cums = Hashtbl.create 8 in
  List.iter
    (fun (m, labels, v) ->
      if m = sum then h.sum <- h.sum +. v
      else if m = bucket then
        match List.assoc_opt "le" labels with
        | None -> ()
        | Some le ->
          let key = List.remove_assoc "le" labels and cum = int_of_float v in
          let n = cum - Option.value ~default:0 (Hashtbl.find_opt cums key) in
          Hashtbl.replace cums key cum;
          if n > 0 then begin
            let rung = rung_of_le le in
            cover h rung rung;
            h.buckets.(rung - h.first) <- h.buckets.(rung - h.first) + n;
            h.count <- h.count + n
          end)
    samples;
  if h.count > 0 then begin
    h.min <- (if h.first = 0 then neg_infinity else bucket_le (h.first - 1));
    h.max <- bucket_le (h.first + Array.length h.buckets - 1)
  end;
  h

let parse_exposition text =
  let lines = String.split_on_char '\n' text in
  (match lines with
  | first :: _
    when first = Printf.sprintf "# fq-metrics-exposition %d" exposition_version
    ->
      ()
  | _ -> failwith "exposition: missing or unsupported version header");
  List.filter_map
    (fun line ->
      if line = "" then None
      else if String.length line > 0 && line.[0] = '#' then None
      else
        match String.rindex_opt line ' ' with
        | None -> failwith ("exposition: malformed sample line: " ^ line)
        | Some sp ->
            let series = String.sub line 0 sp in
            let value =
              parse_value (String.sub line (sp + 1) (String.length line - sp - 1))
            in
            let metric, labels =
              match String.index_opt series '{' with
              | None -> (series, [])
              | Some ob ->
                  if series.[String.length series - 1] <> '}' then
                    failwith ("exposition: unterminated labels: " ^ line);
                  ( String.sub series 0 ob,
                    parse_labels
                      (String.sub series (ob + 1)
                         (String.length series - ob - 2)) )
            in
            Some (metric, labels, value))
    lines
