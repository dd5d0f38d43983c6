(* The observability plane's core invariants: the log-bucketed Aggregate
   histogram (bucket ladder, conservation, quantile error bound, merge,
   the span-sized footprint), the versioned Prometheus text exposition
   (grammar pins, escaping, a parse round-trip), the Lru against a list
   model, the Telemetry histogram key-space LRU, and trace-id stamping. *)

module Aggregate = Fq_core.Aggregate
module Telemetry = Fq_core.Telemetry
module Lru = Fq_core.Lru

(* ------------------------- bucket ladder --------------------------- *)

let test_bucket_ladder () =
  (* the ladder is anchored: bucket 62's upper bound is exactly 1.0 *)
  Alcotest.(check (float 1e-9)) "le(62) = 1" 1.0 (Aggregate.bucket_le 62);
  (* consecutive bounds differ by 2^(1/4) *)
  Alcotest.(check (float 1e-9)) "quarter-octave ratio" (Float.pow 2. 0.25)
    (Aggregate.bucket_le 63 /. Aggregate.bucket_le 62);
  (* the last bucket is the +Inf catch-all *)
  Alcotest.(check bool) "last bucket +Inf" true
    (Aggregate.bucket_le (Aggregate.bucket_count - 1) = infinity);
  (* degenerate inputs land somewhere valid *)
  List.iter
    (fun v ->
      let i = Aggregate.bucket_index v in
      Alcotest.(check bool) "index in range" true (i >= 0 && i < Aggregate.bucket_count))
    [ 0.; -1.; nan; infinity; neg_infinity; 1e-30; 1e30 ];
  Alcotest.(check int) "nonpositive to bucket 0" 0 (Aggregate.bucket_index (-5.));
  Alcotest.(check int) "infinity to the catch-all" (Aggregate.bucket_count - 1)
    (Aggregate.bucket_index infinity)

let prop_bucket_bounds =
  QCheck.Test.make ~name:"bucket_index inverts bucket_le within one step" ~count:500
    QCheck.(float_bound_exclusive 1e9)
    (fun v ->
      let v = Float.abs v +. 1e-12 in
      let i = Aggregate.bucket_index v in
      (* v is within the chosen bucket: above the previous bound, at or
         below its own *)
      v <= Aggregate.bucket_le i && (i = 0 || v > Aggregate.bucket_le (i - 1)))

(* ------------------ histogram conservation + error ------------------ *)

let prop_hist_conservation =
  QCheck.Test.make ~name:"observations are conserved across the buckets" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 200) (float_bound_exclusive 1e6))
    (fun vs ->
      let vs = List.map Float.abs vs in
      let h = Aggregate.create () in
      List.iter (Aggregate.observe h) vs;
      let bucket_total = Array.fold_left ( + ) 0 h.Aggregate.buckets in
      bucket_total = List.length vs
      && h.count = List.length vs
      && Float.abs (h.sum -. List.fold_left ( +. ) 0. vs) < 1e-6)

let prop_hist_quantile_bound =
  (* the quantile estimate is exact up to one bucket width: at most one
     quarter-octave (~19%) above some true observation, and clamped to
     the observed min/max *)
  QCheck.Test.make ~name:"quantile lands within one bucket width" ~count:200
    QCheck.(pair (float_bound_exclusive 0.999) (list_of_size Gen.(int_range 1 100) (float_bound_exclusive 1e6)))
    (fun (q, vs) ->
      let q = Float.abs q in
      let vs = List.map (fun v -> Float.abs v +. 1e-9) vs in
      let h = Aggregate.create () in
      List.iter (Aggregate.observe h) vs;
      let est = Aggregate.quantile h q in
      let lo = List.fold_left Float.min infinity vs in
      let hi = List.fold_left Float.max neg_infinity vs in
      (* clamped to the observed range... *)
      est >= lo && est <= hi
      (* ...and within one bucket ratio of some real observation *)
      && List.exists (fun v -> est <= v *. Float.pow 2. 0.25 +. 1e-9 && est >= v /. (Float.pow 2. 0.25) -. 1e-9) vs
      || (* or exactly an observed extreme after clamping *)
      est = lo || est = hi)

let prop_hist_merge =
  QCheck.Test.make ~name:"merge is bucket-wise addition" ~count:200
    QCheck.(pair (list (float_bound_exclusive 1e6)) (list (float_bound_exclusive 1e6)))
    (fun (xs, ys) ->
      let xs = List.map Float.abs xs and ys = List.map Float.abs ys in
      let a = Aggregate.create () and b = Aggregate.create () and all = Aggregate.create () in
      List.iter (Aggregate.observe a) xs;
      List.iter (Aggregate.observe b) ys;
      List.iter (Aggregate.observe all) (xs @ ys);
      Aggregate.merge ~into:a b;
      a.Aggregate.first = all.Aggregate.first
      && a.Aggregate.buckets = all.Aggregate.buckets
      && a.count = all.count
      && Float.abs (a.sum -. all.sum) <= 1e-9 *. (1. +. Float.abs all.sum))

let hist_of vs =
  let h = Aggregate.create () in
  List.iter (Aggregate.observe h) vs;
  h

let prop_hist_merge_disjoint =
  (* sub-unit and kilo-scale observations occupy disjoint bucket spans;
     merging either into the other fills the gap with zeros and equals
     observing both *)
  QCheck.Test.make ~name:"merge of disjoint bucket spans" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 50) (float_range 1e-3 1.))
        (list_of_size Gen.(int_range 1 50) (float_range 1e3 1e6)))
    (fun (lows, highs) ->
      let all = hist_of (lows @ highs) in
      let merged into src =
        let h = hist_of into in
        Aggregate.merge ~into:h (hist_of src);
        h
      in
      let same (h : Aggregate.hist) =
        h.first = all.first && h.buckets = all.buckets && h.count = all.count
        && h.min = all.min && h.max = all.max
        && Float.abs (h.sum -. all.sum) <= 1e-9 *. all.sum
      in
      Aggregate.bucket_index (List.fold_left Float.max 0. lows)
      < Aggregate.bucket_index (List.fold_left Float.min infinity highs)
      && same (merged lows highs) && same (merged highs lows))

let test_hist_footprint () =
  (* a histogram costs the buckets it has seen, not the 128-rung ladder *)
  let one = hist_of [ 42. ] in
  let merged = Aggregate.create () in
  for _ = 1 to 100 do
    Aggregate.merge ~into:merged (hist_of [ 42. ])
  done;
  Alcotest.(check int) "merged count" 100 merged.count;
  List.iter
    (fun (what, h) ->
      let words = Obj.reachable_words (Obj.repr h) in
      if words >= 24 then Alcotest.failf "%s costs %d words" what words)
    [ ("one observation", one); ("100 merged equal observations", merged);
      ("100 equal observations", hist_of (List.init 100 (fun _ -> 42.))) ]

(* --------------------- exposition grammar pins ---------------------- *)

let sample_exposition () =
  let h = Aggregate.create () in
  List.iter (Aggregate.observe h) [ 0.5; 0.5; 3.0 ];
  Aggregate.exposition
    [ Aggregate.counter_family ~name:"fq_requests_total" ~help:"Requests."
        [ ([ ("op", "eval") ], 7); ([ ("op", "ping") ], 2) ];
      Aggregate.gauge_family ~name:"fq_inflight" ~help:"In flight." [ ([], 3.) ];
      Aggregate.histogram_family ~name:"fq_latency_ms" ~help:"Latency."
        [ ([ ("domain", "equality") ], h) ] ]

let test_exposition_grammar () =
  let text = sample_exposition () in
  let lines = String.split_on_char '\n' text in
  (* versioned header first *)
  Alcotest.(check string) "version header"
    (Printf.sprintf "# fq-metrics-exposition %d" Aggregate.exposition_version)
    (List.hd lines);
  (* families sorted by name, each with HELP and TYPE *)
  let is_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  let help_lines = List.filter (is_prefix "# HELP ") lines in
  Alcotest.(check (list string)) "families sorted by name"
    [ "# HELP fq_inflight In flight.";
      "# HELP fq_latency_ms Latency.";
      "# HELP fq_requests_total Requests." ]
    help_lines;
  Alcotest.(check bool) "counter TYPE line" true
    (List.mem "# TYPE fq_requests_total counter" lines);
  Alcotest.(check bool) "histogram TYPE line" true
    (List.mem "# TYPE fq_latency_ms histogram" lines);
  (* labeled samples render sorted labels and escaped values *)
  Alcotest.(check bool) "counter sample" true
    (List.mem "fq_requests_total{op=\"eval\"} 7" lines);
  (* the histogram renders cumulative buckets ending in +Inf, then sum/count *)
  Alcotest.(check bool) "+Inf bucket" true
    (List.mem "fq_latency_ms_bucket{domain=\"equality\",le=\"+Inf\"} 3" lines);
  Alcotest.(check bool) "histogram count" true
    (List.mem "fq_latency_ms_count{domain=\"equality\"} 3" lines);
  (* only buckets that advance the cumulative count are rendered: three
     observations need at most 3 advancing buckets + the +Inf terminal *)
  let bucket_lines = List.filter (is_prefix "fq_latency_ms_bucket") lines in
  Alcotest.(check bool) "sparse buckets" true (List.length bucket_lines <= 3)

let test_label_escaping () =
  Alcotest.(check string) "backslash, quote, newline escaped" "a\\\\b\\\"c\\nd"
    (Aggregate.escape_label_value "a\\b\"c\nd");
  let text =
    Aggregate.exposition
      [ Aggregate.counter_family ~name:"fq_x_total" ~help:"X."
          [ ([ ("q", "say \"hi\"\n") ], 1) ] ]
  in
  match Aggregate.parse_exposition text with
  | [ ("fq_x_total", [ ("q", v) ], 1.) ] ->
    Alcotest.(check string) "escaped label value round-trips" "say \"hi\"\n" v
  | _ -> Alcotest.fail "unexpected parse of the escaped exposition"

let test_exposition_roundtrip () =
  let text = sample_exposition () in
  let samples = Aggregate.parse_exposition text in
  let find name labels =
    List.find_map
      (fun (m, ls, v) -> if m = name && ls = labels then Some v else None)
      samples
  in
  Alcotest.(check (option (float 1e-9))) "counter value" (Some 7.)
    (find "fq_requests_total" [ ("op", "eval") ]);
  Alcotest.(check (option (float 1e-9))) "gauge value" (Some 3.) (find "fq_inflight" []);
  Alcotest.(check (option (float 1e-9))) "histogram count" (Some 3.)
    (find "fq_latency_ms_count" [ ("domain", "equality") ]);
  Alcotest.(check (option (float 1e-9))) "histogram sum" (Some 4.)
    (find "fq_latency_ms_sum" [ ("domain", "equality") ]);
  (* the +Inf bucket carries the full cumulative count *)
  Alcotest.(check (option (float 1e-9))) "+Inf cumulative" (Some 3.)
    (find "fq_latency_ms_bucket" [ ("domain", "equality"); ("le", "+Inf") ])

let test_exposition_version_check () =
  (match Aggregate.parse_exposition "fq_x_total 1\n" with
  | _ -> Alcotest.fail "parse accepted an exposition with no version header"
  | exception Failure _ -> ());
  match Aggregate.parse_exposition "# fq-metrics-exposition 999\nfq_x_total 1\n" with
  | _ -> Alcotest.fail "parse accepted a future exposition version"
  | exception Failure _ -> ()

(* ------------------------ Lru vs a list model ----------------------- *)

module Int_lru = Lru.Make (Int)

type lru_op = Find of int | Replace of int * int

(* The model: bindings most recently used first.  A hit or a rebind
   moves the key to the front; a fresh bind past the capacity drops the
   last binding. *)
let prop_lru_model =
  let op =
    QCheck.Gen.(
      frequency
        [ (4, map (fun k -> Find k) (int_bound 7));
          (6, map2 (fun k v -> Replace (k, v)) (int_bound 7) (int_bound 99)) ])
  in
  let print = function
    | Find k -> Printf.sprintf "find %d" k
    | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  in
  QCheck.Test.make ~name:"agrees with a recency-list model" ~count:300
    QCheck.(
      pair (int_range (-1) 5)
        (make ~print:Print.(list print) Gen.(list_size (int_bound 60) op)))
    (fun (capacity, ops) ->
      let evicted = ref [] in
      let t = Int_lru.create ~on_evict:(fun k v -> evicted := (k, v) :: !evicted) capacity in
      let model = ref [] and model_evicted = ref [] and evictions = ref 0 in
      let step op =
        match op with
        | Find k ->
          let expect = List.assoc_opt k !model in
          Option.iter (fun v -> model := (k, v) :: List.remove_assoc k !model) expect;
          Int_lru.find t k = expect
        | Replace (k, v) ->
          let fresh = not (List.mem_assoc k !model) in
          model := (k, v) :: List.remove_assoc k !model;
          if capacity > 0 && List.length !model > capacity then begin
            let victim = List.nth !model capacity in
            model := List.filteri (fun i _ -> i < capacity) !model;
            model_evicted := victim :: !model_evicted;
            incr evictions
          end;
          Int_lru.replace t k v = fresh
      in
      List.for_all
        (fun op ->
          step op
          && List.rev (Int_lru.fold (fun k v acc -> (k, v) :: acc) t []) = !model
          && Int_lru.length t = List.length !model
          && Int_lru.evictions t = !evictions
          && !evicted = !model_evicted)
        ops
      && (capacity > 0 || !evicted = []))

(* ------------------- telemetry key-space LRU ------------------------ *)

let test_telemetry_histo_lru () =
  let (), report =
    Telemetry.record ~max_histos:4 (fun () ->
        (* 8 distinct keys at cap 4: the 4 coldest evict *)
        for i = 1 to 8 do
          Telemetry.observe (Printf.sprintf "key.%d" i) (float_of_int i)
        done;
        (* touching key.5 makes key.6 the LRU victim of the next miss *)
        Telemetry.observe "key.5" 50.;
        Telemetry.observe "key.9" 9.)
  in
  let names = List.map fst report.Telemetry.histograms in
  Alcotest.(check int) "key space stays at the cap" 4 (List.length names);
  Alcotest.(check bool) "recently touched key survives" true (List.mem "key.5" names);
  Alcotest.(check bool) "LRU victim evicted" false (List.mem "key.6" names);
  Alcotest.(check int) "evictions tallied" 5 report.Telemetry.evicted_histograms

let test_telemetry_histo_unbounded () =
  let (), report =
    Telemetry.record ~max_histos:0 (fun () ->
        for i = 1 to 64 do
          Telemetry.observe (Printf.sprintf "key.%d" i) 1.
        done)
  in
  Alcotest.(check int) "cap <= 0 means unbounded" 64
    (List.length report.Telemetry.histograms);
  Alcotest.(check int) "no evictions" 0 report.Telemetry.evicted_histograms

let test_trace_id_stamping () =
  (* no collector: stamping is a no-op, reading yields None *)
  Telemetry.set_trace_id "lost";
  Alcotest.(check (option string)) "no ambient collector" None (Telemetry.trace_id ());
  let (), report =
    Telemetry.record (fun () ->
        Alcotest.(check (option string)) "unstamped" None (Telemetry.trace_id ());
        Telemetry.set_trace_id "first";
        Telemetry.set_trace_id "req-42";
        Alcotest.(check (option string)) "last write wins" (Some "req-42")
          (Telemetry.trace_id ()))
  in
  Alcotest.(check (option string)) "stamp surfaces in the report" (Some "req-42")
    report.Telemetry.trace_id;
  (* the no-op sink discards the stamp *)
  Telemetry.with_noop (fun () ->
      Telemetry.set_trace_id "dropped";
      Alcotest.(check (option string)) "no-op sink keeps nothing" None
        (Telemetry.trace_id ()))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "observability"
    [ ( "aggregate",
        [ Alcotest.test_case "bucket ladder anchors" `Quick test_bucket_ladder;
          qt prop_bucket_bounds;
          qt prop_hist_conservation;
          qt prop_hist_quantile_bound;
          qt prop_hist_merge;
          qt prop_hist_merge_disjoint;
          Alcotest.test_case "footprint follows the observed span" `Quick
            test_hist_footprint ] );
      ( "exposition",
        [ Alcotest.test_case "versioned grammar pins" `Quick test_exposition_grammar;
          Alcotest.test_case "label escaping round-trips" `Quick test_label_escaping;
          Alcotest.test_case "parse inverts render" `Quick test_exposition_roundtrip;
          Alcotest.test_case "version header enforced" `Quick
            test_exposition_version_check ] );
      ("lru", [ qt prop_lru_model ]);
      ( "telemetry",
        [ Alcotest.test_case "histogram key-space LRU" `Quick test_telemetry_histo_lru;
          Alcotest.test_case "cap <= 0 is unbounded" `Quick test_telemetry_histo_unbounded;
          Alcotest.test_case "trace id stamping" `Quick test_trace_id_stamping ] ) ]
