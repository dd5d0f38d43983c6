(* In-process replay of a workload's seeded op stream, the source of the
   per-layer numbers.

   A replayed op calls each layer's public entry point in the order a
   served request reaches it — Protocol.parse_request, Parser.formula,
   Safe_range.check, Query.eval_resilient, then the reply encoding — each
   inside a span opened here, around the call.  The spans the engine
   already opens inside eval_resilient (tiers, ranf.compile, relalg.eval,
   the enumerate and qe spans) nest below them.  An untraced pass runs exactly the
   same code with no collector installed; a traced pass records every op
   with Telemetry.record, so the two differ only by the recording. *)

open Finite_queries

type op = {
  index : int;
  query : Oracle.query;
  line : string option;  (* the NDJSON request, for ops of a served workload *)
}

type env = {
  state : State.t;
  stats : Optimizer.Stats.t;
  domain : Domain.t;
  fuel : int option;
}

let span = Telemetry.with_span

let ok_or_fail what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* One op; returns its outcome and the encoded reply's size in bytes. *)
let run_op env op =
  let schema = Schema.relations (State.schema env.state) in
  let f, fuel, bytes =
    match op.line with
    | None -> (Lazy.force op.query.Oracle.formula, env.fuel, fun _ -> 0)
    | Some line -> (
      match span "protocol.decode" (fun () -> Protocol.parse_request line) with
      | Ok (Protocol.Eval { id; formula; fuel; _ }) ->
        let f = span "parser.formula" (fun () -> ok_or_fail "parse" (Parser.formula formula)) in
        let encode o =
          span "outcome.encode" (fun () ->
              String.length (Json.to_string (Protocol.outcome_response ~id o)))
        in
        (f, fuel, encode)
      | _ -> failwith "replayed request does not decode to an eval")
  in
  ignore (span "safe_range.check" (fun () -> Safe_range.check ~schema f));
  let budget = match fuel with Some fuel -> Budget.make ~fuel () | None -> Budget.make () in
  let o = Query.eval_resilient ~budget ~stats:env.stats ~domain:env.domain ~state:env.state f in
  (o, bytes o)

(* The Presburger domain as fq serve wires it — behind a shared decide
   cache whose fresh fills are journaled — with spans around the cache
   lookup, the decision procedure and the journal append. *)
let decide_domain ~cache ~journal =
  let (module P : Domain.S) = (module Presburger : Domain.S) in
  let timed = Domain.with_decide (module Presburger) (fun g -> span "presburger.decide" (fun () -> P.decide g)) in
  let cached = Decide_cache.domain cache timed in
  let (module C : Domain.S) = cached in
  Decide_cache.set_on_insert cache
    (Some
       (fun key v ->
         span "journal.append" (fun () ->
             ok_or_fail "journal" (Journal.append journal (Decide_cache.entry_to_line key v)))));
  Domain.with_decide cached (fun g ->
      span "decide_cache.decide" (fun () ->
          let hits = (Decide_cache.stats cache).Decide_cache.hits in
          let r = C.decide g in
          Telemetry.set_attr "hit" (Telemetry.Bool ((Decide_cache.stats cache).Decide_cache.hits > hits));
          r))

(* ----------------------------- passes ------------------------------- *)

type pass = {
  ops : int;  (* ops replayed *)
  busy_us : float;  (* sum of per-op wall time *)
  minor_words : float;
  major_collections : int;
  tally : Load.tally;
}

(* Replay [ops] in order until they run out or [until] passes. *)
let untraced env ops ~until =
  let tally = Load.tally () in
  let g0 = Gc.quick_stat () in
  let busy = ref 0. and n = ref 0 in
  while !n < Array.length ops && Unix.gettimeofday () < until do
    let op = ops.(!n) in
    let t0 = Unix.gettimeofday () in
    let o, _ = run_op env op in
    let t1 = Unix.gettimeofday () in
    Load.record tally ~t0 ~t1;
    busy := !busy +. ((t1 -. t0) *. 1e6);
    Load.check tally op.query o;
    incr n
  done;
  let g1 = Gc.quick_stat () in
  { ops = !n; busy_us = !busy; tally;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections }

(* A recorded span, flattened: times in microseconds from the start of
   the traced pass. *)
type rec_span = {
  id : int;
  parent : int;  (* -1 for an op's root span *)
  name : string;
  op_id : int;
  start_us : float;
  end_us : float;
  self_us : float;
  hit : bool option;  (* decide_cache.decide: was it a hit *)
}

type traced = {
  pass : pass;
  spans : rec_span list;  (* newest first *)
  per_op : (string, float list) Hashtbl.t;  (* metric -> one value per op that reached it *)
  self_by_layer : (string, float) Hashtbl.t;  (* microseconds *)
  ticks : int;
  bytes : int;
  plan_nodes : float;
  node_rows : float;
  answer_rows : int;
}

let layer_of name =
  let pre p = String.starts_with ~prefix:p name in
  match name with
  | "op" -> "benchmark"
  | "protocol.decode" -> "protocol"
  | "outcome.encode" -> "outcome"
  | "parser.formula" -> "parser"
  | "safe_range.check" -> "safe_range"
  | "ranf.compile" | "adom.compile" -> "ranf"
  | "relalg.eval" -> "relalg"
  | "decide_cache.decide" -> "decide_cache"
  | "presburger.decide" -> "presburger"
  | "journal.append" -> "journal"
  | "tier:enumerate" -> "enumerate"
  | _ when pre "enumerate." -> "enumerate"
  | _ when pre "qe.cooper" -> "presburger"
  | _ when pre "qe." -> "domain"
  | _ -> "query" (* query.eval_resilient, the compiled tiers' wrappers *)

(* Per-op value of a timing metric, from the op's spans. *)
let metric_of_span (s : rec_span) =
  match s.name with
  | "protocol.decode" -> Some "protocol.decode_us"
  | "parser.formula" -> Some "parser.formula_us"
  | "safe_range.check" -> Some "safe_range.check_us"
  | "outcome.encode" -> Some "outcome.encode_us"
  | "ranf.compile" -> Some "ranf.compile_us"
  | "relalg.eval" -> Some "relalg.eval_us"
  | "tier:enumerate" -> Some "enumerate.run_budgeted_us"
  | "presburger.decide" -> Some "presburger.decide_us"
  | "journal.append" -> Some "journal.append_us"
  | "decide_cache.decide" ->
    Some (if s.hit = Some true then "decide_cache.hit_us" else "decide_cache.miss_us")
  | _ -> None

let timing_metrics =
  [ "protocol.decode_us"; "parser.formula_us"; "safe_range.check_us"; "outcome.encode_us";
    "ranf.compile_us"; "relalg.eval_us"; "query.self_us"; "enumerate.run_budgeted_us";
    "decide_cache.hit_us"; "decide_cache.miss_us"; "presburger.decide_us"; "journal.append_us" ]

let traced env ops =
  let tally = Load.tally () in
  let per_op = Hashtbl.create 16 and self_by_layer = Hashtbl.create 16 in
  let add_layer l v =
    Hashtbl.replace self_by_layer l (v +. Option.value (Hashtbl.find_opt self_by_layer l) ~default:0.)
  in
  let spans = ref [] and next_id = ref 0 in
  let ticks = ref 0 and bytes = ref 0 and plan_nodes = ref 0. and node_rows = ref 0. in
  let answer_rows = ref 0 and busy = ref 0. in
  let g0 = Gc.quick_stat () in
  let base = Unix.gettimeofday () in
  Array.iter
    (fun op ->
      let t0 = Unix.gettimeofday () in
      let (o, nbytes), rep = Telemetry.record (fun () -> span "op" (fun () -> run_op env op)) in
      let t1 = Unix.gettimeofday () in
      Load.record tally ~t0 ~t1;
      busy := !busy +. ((t1 -. t0) *. 1e6);
      Load.check tally op.query o;
      (* flatten this op's span tree; sum each metric over the op *)
      let sums = Hashtbl.create 8 in
      let bump k v = Hashtbl.replace sums k (v +. Option.value (Hashtbl.find_opt sums k) ~default:0.) in
      let origin = (t0 -. base) *. 1e6 in
      let rec walk parent (s : Telemetry.span) =
        let id = !next_id in
        incr next_id;
        let hit =
          match List.assoc_opt "hit" s.Telemetry.attrs with
          | Some (Telemetry.Bool b) -> Some b
          | _ -> None
        in
        let r =
          { id; parent; name = s.Telemetry.name; op_id = op.index;
            start_us = origin +. (s.Telemetry.start_ms *. 1000.);
            end_us = origin +. ((s.Telemetry.start_ms +. s.Telemetry.dur_ms) *. 1000.);
            self_us = s.Telemetry.self_ms *. 1000.; hit }
        in
        spans := r :: !spans;
        let layer = layer_of r.name in
        add_layer layer r.self_us;
        if layer = "query" then bump "query.self_us" r.self_us;
        (match metric_of_span r with
        | Some "decide_cache.miss_us" ->
          (* a miss journals its fill inside the lookup; that cost is
             journal.append's, not the cache's *)
          let journal_us =
            List.fold_left
              (fun acc (c : Telemetry.span) ->
                if c.Telemetry.name = "journal.append" then acc +. (c.Telemetry.dur_ms *. 1000.)
                else acc)
              0. s.Telemetry.children
          in
          bump "decide_cache.miss_us" (r.end_us -. r.start_us -. journal_us)
        | Some k -> bump k (r.end_us -. r.start_us)
        | None -> ());
        List.iter (walk id) s.Telemetry.children
      in
      List.iter (walk (-1)) rep.Telemetry.roots;
      (* eval_resilient re-runs the safe-range check inside its own self
         time; the separately measured check stands in for it *)
      (match (Hashtbl.find_opt sums "query.self_us", Hashtbl.find_opt sums "safe_range.check_us") with
      | Some q, Some c ->
        Hashtbl.replace sums "query.self_us" (Float.max 0. (q -. c));
        add_layer "query" (-.Float.min q c)
      | _ -> ());
      Hashtbl.iter
        (fun k v -> Hashtbl.replace per_op k (v :: Option.value (Hashtbl.find_opt per_op k) ~default:[]))
        sums;
      ticks := !ticks + o.Outcome.usage.Budget.ticks;
      bytes := !bytes + nbytes;
      (match List.assoc_opt Relalg.card_metric rep.Telemetry.histograms with
      | Some h ->
        plan_nodes := !plan_nodes +. float_of_int h.Telemetry.count;
        node_rows := !node_rows +. h.Telemetry.sum
      | None -> ());
      match o.Outcome.verdict with
      | Outcome.Complete { answer; _ } -> answer_rows := !answer_rows + max 1 (Relation.cardinal answer)
      | _ -> ())
    ops;
  let g1 = Gc.quick_stat () in
  { pass =
      { ops = Array.length ops; busy_us = !busy; tally;
        minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        major_collections = g1.Gc.major_collections - g0.Gc.major_collections };
    spans = !spans; per_op; self_by_layer; ticks = !ticks; bytes = !bytes;
    plan_nodes = !plan_nodes; node_rows = !node_rows; answer_rows = !answer_rows }

(* ----------------------------- reporting ---------------------------- *)

let per_layer_metrics ~(untraced : pass) (t : traced) =
  let open Sample in
  let n = float_of_int (max 1 t.pass.ops) in
  let timing name =
    let vs = Array.of_list (Option.value (Hashtbl.find_opt t.per_op name) ~default:[]) in
    let base = String.sub name 0 (String.length name - 3) in
    [ m name "us" (if vs = [||] then 0. else median vs); m (base ^ "_total_ms") "ms" (sum vs /. 1000.) ]
  in
  List.concat_map timing timing_metrics
  @ [ m "outcome.bytes" "bytes" (float_of_int t.bytes /. n);
      m "relalg.plan_nodes" "count" (t.plan_nodes /. n);
      m "relalg.rows_per_result" "ratio"
        (if t.answer_rows = 0 then 0. else t.node_rows /. float_of_int t.answer_rows);
      m "budget.ticks_per_op" "count" (float_of_int t.ticks /. n);
      m "gc.minor_words_per_op" "words" (untraced.minor_words /. float_of_int (max 1 untraced.ops));
      m "gc.major_collections_per_kop" "count"
        (float_of_int untraced.major_collections /. (float_of_int (max 1 untraced.ops) /. 1000.));
      m "trace.overhead_pct" "%" (100. *. ((t.pass.busy_us /. untraced.busy_us) -. 1.)) ]

(* Self time per layer, largest first, in milliseconds. *)
let rollup t =
  Hashtbl.fold (fun l us acc -> (l, us /. 1000.) :: acc) t.self_by_layer []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

let rollup_lines t =
  let roll = rollup t in
  let total = List.fold_left (fun acc (_, ms) -> acc +. ms) 0. roll in
  (match List.filter (fun (l, _) -> l <> "benchmark") roll with
  | (l, ms) :: _ ->
    Printf.sprintf "largest self time: %s (%.1f ms, %.1f%% of traced time)" l ms
      (100. *. ms /. total)
  | [] -> "largest self time: none recorded")
  :: List.map (fun (l, ms) -> Printf.sprintf "  self %-13s %12.3f ms" l ms) roll

let write_spans path t =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"op\":%d,\"span\":%d,\"parent\":%s,\"name\":%S,\"layer\":%S,\"start_us\":%.3f,\"end_us\":%.3f,\"self_us\":%.3f}\n"
            s.op_id s.id
            (if s.parent < 0 then "null" else string_of_int s.parent)
            s.name (layer_of s.name) s.start_us s.end_us s.self_us)
        (List.rev t.spans);
      List.iter
        (fun (l, ms) -> Printf.fprintf oc "{\"rollup\":%S,\"self_ms\":%.3f}\n" l ms)
        (rollup t))
