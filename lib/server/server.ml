(* The fq serve daemon.

   Thread/domain layout: the main thread owns the listening socket and
   accepts connections; each connection gets a reader thread (cheap,
   blocking I/O) that parses request lines, answers control ops inline,
   and admits eval/explain work into a bounded queue; a fixed pool of
   worker seats drains the queue, evaluates under per-request budgets,
   and writes each response back under the connection's write
   lock (pipelined responses interleave in completion order, correlated
   by id).  Admission over the global or per-connection cap is answered
   immediately with a structured reject carrying resume evidence — the
   queue is the only buffer and it is bounded by [max_inflight].

   Crash safety and hot reload (PR 8): every fresh decide-cache verdict
   is appended to a CRC-framed journal before the response leaves the
   building, so a kill -9 loses at most the record being written; the
   accept loop periodically compacts the journal into the snapshot.  The
   served database lives behind an epoch pointer — [reload]/SIGHUP build
   a new epoch (state + optimizer stats + fresh breakers) and swap it in
   one pointer write; a job is pinned to the epoch current at admission,
   so in-flight work finishes on the old state while new admissions see
   the new one, and no connection drops.  Overload is met at admission
   (deadline-aware shedding against an EMA queue-wait estimate, brownout
   fuel reduction under sustained queue pressure) and behind it (a
   watchdog that cancels and, past a grace period, recycles a worker
   seat wedged beyond its request deadline).  A seat is a domain on
   several CPUs and a thread of the main domain on one ([spawn_seat]). *)

module Budget = Fq_core.Budget
module Telemetry = Fq_core.Telemetry
module Supervisor = Fq_core.Supervisor
module Json = Fq_core.Json
module Formula = Fq_logic.Formula
module Parser = Fq_logic.Parser
module Relation = Fq_db.Relation
module State = Fq_db.State
module Schema = Fq_db.Schema
module Relalg = Fq_db.Relalg
module Optimizer = Fq_db.Optimizer
module Decide_cache = Fq_domain.Decide_cache
module Journal = Fq_domain.Journal
module Query = Fq_eval.Query
module Outcome = Fq_eval.Outcome

type addr = Unix_path of string | Tcp of int

let pp_addr fmt = function
  | Unix_path p -> Format.fprintf fmt "unix:%s" p
  | Tcp port -> Format.fprintf fmt "tcp:127.0.0.1:%d" port

let addr_to_string = Format.asprintf "%a" pp_addr

(* unix:PATH, tcp:PORT (optionally tcp:127.0.0.1:PORT, the pp form), a
   bare PORT, or a bare PATH — one parser shared by the CLI and the
   fleet-status discovery path, so printed addresses round-trip. *)
let addr_of_string s =
  let prefixed p =
    String.length s > String.length p && String.sub s 0 (String.length p) = p
  in
  let after p = String.sub s (String.length p) (String.length s - String.length p) in
  if prefixed "unix:" then Ok (Unix_path (after "unix:"))
  else if prefixed "tcp:" then
    let rest = after "tcp:" in
    let port_str =
      match String.rindex_opt rest ':' with
      | Some i -> String.sub rest (i + 1) (String.length rest - i - 1)
      | None -> rest
    in
    match int_of_string_opt port_str with
    | Some port -> Ok (Tcp port)
    | None -> Error (Printf.sprintf "bad port in %S" s)
  else
    match int_of_string_opt s with
    | Some port -> Ok (Tcp port)
    | None -> Ok (Unix_path s)

type config = {
  addr : addr;
  jobs : int;
  max_inflight : int;
  client_share : int;
  default_fuel : int;
  max_fuel : int;
  default_timeout_ms : int option;
  snapshot : string option;
  snapshot_read_only : bool;
  journal : string option;
  state_file : string option;
  worker_id : string option;
  max_line_bytes : int;
  watchdog_grace_ms : int;
  trace_sample : int;
  slow_ms : float option;
  slow_log : string option;
  metrics_file : string option;
  extra_domains : (string * Fq_domain.Domain.t) list;
  default_domain : string;
  state : State.t;
  log : string -> unit;
}

let default_config ~state addr =
  { addr;
    jobs = 4;
    max_inflight = 256;
    client_share = 64;
    default_fuel = 10_000;
    max_fuel = 1_000_000;
    default_timeout_ms = None;
    snapshot = None;
    snapshot_read_only = false;
    journal = None;
    state_file = None;
    worker_id = None;
    max_line_bytes = 1 lsl 20;
    watchdog_grace_ms = 1000;
    trace_sample = 0;
    slow_ms = None;
    slow_log = None;
    metrics_file = None;
    extra_domains = [];
    default_domain = "presburger";
    state;
    log = (fun line -> Printf.eprintf "%s\n%!" line) }

(* Fixed serving constants: appends between journal compactions, the
   queue depth that browns admissions out and their fuel shrink factor,
   and how many sampled traces the ring keeps. *)
let journal_compact_every = 512
let brownout_queue = 32
let brownout_fuel_divisor = 4
let trace_ring_size = 64

let logf cfg fmt = Printf.ksprintf cfg.log ("fq serve: " ^^ fmt)

(* The journal rides with the snapshot unless given its own path: both
   files describe the same cache, and compaction folds one into the
   other. *)
let journal_path cfg =
  match cfg.journal with
  | Some p -> Some p
  | None -> Option.map (fun s -> s ^ ".journal") cfg.snapshot

(* -------------------------- metrics registry ------------------------ *)

(* Server-wide, always-on aggregation.  Two planes share one lock:

   - the {e engine} plane: dotted-name counters and histograms merged
     bucket-wise from each request's Telemetry report — the names
     the engines emit ([decide_cache.hits], [relalg.node_card.<fp>], ...);
   - the {e service} plane: label-dimensioned monotonic counters and
     fixed log-bucketed {!Aggregate} histograms keyed by
     (family, sorted labels) — per-client / per-domain / per-epoch /
     per-tier request metrics, rendered to the versioned Prometheus text
     exposition.

   The per-request Telemetry.record collectors are thread-local; this
   registry is the cross-worker rendezvous behind the metrics op.  Every
   key space is bounded: engine names past [reg_key_cap] are dropped and
   tallied, labeled families past the cap fold into an
   [{overflow="true"}] sample, so adversarial label streams degrade to a
   coarser aggregate instead of growing the scrape without limit. *)

module Aggregate = Fq_core.Aggregate

type lkey = string * (string * string) list (* family, labels sorted by name *)

type registry = {
  r_lock : Mutex.t;
  r_counters : (string, int ref) Hashtbl.t;
  r_hists : (string, Aggregate.hist) Hashtbl.t;
  r_lab_counters : (lkey, int ref) Hashtbl.t;
  r_lab_hists : (lkey, Aggregate.hist) Hashtbl.t;
  r_clients : (int, string) Hashtbl.t; (* connection id -> client label *)
}

let reg_key_cap = 4096
let client_label_cap = 64

let registry_create () =
  { r_lock = Mutex.create ();
    r_counters = Hashtbl.create 32;
    r_hists = Hashtbl.create 16;
    r_lab_counters = Hashtbl.create 32;
    r_lab_hists = Hashtbl.create 16;
    r_clients = Hashtbl.create 16 }

let reg_locked reg f =
  Mutex.lock reg.r_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg.r_lock) f

let reg_count_unlocked reg name n =
  match Hashtbl.find_opt reg.r_counters name with
  | Some r -> r := !r + n
  | None -> Hashtbl.add reg.r_counters name (ref n)

let reg_count reg ?(n = 1) name = reg_locked reg (fun () -> reg_count_unlocked reg name n)

(* labeled service metrics; labels are canonicalized (sorted) so the key
   is independent of call-site argument order *)

let lkey name labels : lkey = (name, List.sort (fun (a, _) (b, _) -> compare a b) labels)

let bounded_lkey tbl_len mem key =
  if mem key then key
  else if tbl_len () >= reg_key_cap then (fst key, [ ("overflow", "true") ])
  else key

let reg_lcount reg ?(n = 1) name labels =
  reg_locked reg (fun () ->
      let key =
        bounded_lkey
          (fun () -> Hashtbl.length reg.r_lab_counters)
          (Hashtbl.mem reg.r_lab_counters) (lkey name labels)
      in
      match Hashtbl.find_opt reg.r_lab_counters key with
      | Some r -> r := !r + n
      | None -> Hashtbl.add reg.r_lab_counters key (ref n))

let reg_lobserve reg name labels v =
  reg_locked reg (fun () ->
      let key =
        bounded_lkey
          (fun () -> Hashtbl.length reg.r_lab_hists)
          (Hashtbl.mem reg.r_lab_hists) (lkey name labels)
      in
      match Hashtbl.find_opt reg.r_lab_hists key with
      | Some h -> Aggregate.observe h v
      | None ->
        let h = Aggregate.create () in
        Aggregate.observe h v;
        Hashtbl.add reg.r_lab_hists key h)

(* The per-client label dimension is the only one a peer controls (by
   opening connections), so it gets its own cardinality cap: the first
   [client_label_cap] connections keep distinct labels, the rest share
   ["other"]. *)
let client_label reg conn_id =
  reg_locked reg (fun () ->
      match Hashtbl.find_opt reg.r_clients conn_id with
      | Some l -> l
      | None ->
        let l =
          if Hashtbl.length reg.r_clients >= client_label_cap then "other"
          else "c" ^ string_of_int conn_id
        in
        Hashtbl.add reg.r_clients conn_id l;
        l)

let reg_get reg name =
  reg_locked reg (fun () ->
      match Hashtbl.find_opt reg.r_counters name with Some r -> !r | None -> 0)

let merge_report reg (t : Telemetry.report) =
  reg_locked reg (fun () ->
      List.iter (fun (name, n) -> reg_count_unlocked reg name n) t.Telemetry.counters;
      List.iter
        (fun (name, h) ->
          match Hashtbl.find_opt reg.r_hists name with
          | Some agg -> Aggregate.merge ~into:agg h
          | None ->
            if Hashtbl.length reg.r_hists >= reg_key_cap then
              reg_count_unlocked reg "serve.registry_dropped_keys" 1
            else
              (* a copy: the slow log reads the report after the merge *)
              Hashtbl.add reg.r_hists name (Aggregate.copy h))
        t.Telemetry.histograms;
      if t.Telemetry.evicted_histograms > 0 then
        reg_count_unlocked reg "telemetry.evicted_histograms" t.Telemetry.evicted_histograms)

(* The registry's slice of the exposition: engine counters and summaries
   under generic name-labeled families (dotted engine names are not
   valid Prometheus metric names, and the set is open — a label keeps
   one stable family per kind), plus every labeled service family.
   Sample ordering inside a family and family ordering are both handled
   by [Aggregate.exposition]; this only gathers. *)
let family_help = function
  | "fq_requests_total" -> "Requests by protocol op."
  | "fq_eval_outcomes_total" ->
    "Eval replies by domain, epoch, status and answering tier."
  | "fq_client_requests_total" -> "Eval requests by client connection."
  | "fq_request_latency_ms" -> "Eval wall-clock latency, by domain and epoch."
  | "fq_request_fuel_ticks" -> "Eval fuel spent, by domain and epoch."
  | "fq_request_stage_ms" -> "Per-request stage wall-clock time, by stage."
  | _ -> "Service metric."

let registry_families reg =
  reg_locked reg (fun () ->
      let engine_counters =
        Hashtbl.fold (fun name r acc -> ([ ("name", name) ], !r) :: acc) reg.r_counters []
      in
      let engine_obs_count, engine_obs_sum =
        Hashtbl.fold
          (fun name h (cs, ss) ->
            (([ ("name", name) ], h.Aggregate.count) :: cs, ([ ("name", name) ], h.sum) :: ss))
          reg.r_hists ([], [])
      in
      let by_family fold project tbl =
        let fams = Hashtbl.create 8 in
        fold
          (fun (name, labels) v () ->
            let prev = Option.value (Hashtbl.find_opt fams name) ~default:[] in
            Hashtbl.replace fams name ((labels, project v) :: prev))
          tbl ();
        fams
      in
      let counter_fams =
        by_family (fun f t init -> Hashtbl.fold f t init) (fun r -> !r) reg.r_lab_counters
      in
      let hist_fams =
        (* copy under the lock: the exposition renders after release *)
        by_family (fun f t init -> Hashtbl.fold f t init) Aggregate.copy reg.r_lab_hists
      in
      Aggregate.counter_family ~name:"fq_engine_events_total"
        ~help:"Engine telemetry counters, by dotted engine name." engine_counters
      :: Aggregate.counter_family ~name:"fq_engine_observations_total"
           ~help:"Engine telemetry histogram observation counts, by dotted engine name."
           engine_obs_count
      :: Aggregate.gauge_family ~name:"fq_engine_observations_sum"
           ~help:"Engine telemetry histogram observation sums, by dotted engine name."
           engine_obs_sum
      :: (Hashtbl.fold
            (fun name samples acc ->
              Aggregate.counter_family ~name ~help:(family_help name) samples :: acc)
            counter_fams []
         @ Hashtbl.fold
             (fun name samples acc ->
               Aggregate.histogram_family ~name ~help:(family_help name) samples :: acc)
             hist_fams []))

(* ------------------------------ plumbing ---------------------------- *)

type conn = {
  c_id : int;  (* accept-order sequence; the per-client metrics label *)
  c_fd : Unix.file_descr;
  c_oc : out_channel;
  c_olock : Mutex.t;
  mutable c_inflight : int;  (* guarded by the server lock *)
  mutable c_closed : bool;  (* guarded by c_olock *)
}

(* The database and everything derived from it, swapped as one unit by a
   reload.  Jobs capture the epoch current at admission, so the reader
   thread's line order decides which database answers which request —
   requests admitted before the swap finish on the old epoch even if a
   worker picks them up after it. *)
type epoch = {
  ep_id : int;
  ep_state : State.t;
  ep_stats : Optimizer.Stats.t;
  ep_breakers : (string, Supervisor.Breaker.t) Hashtbl.t;
}

type job = {
  j_req : Protocol.request;
  j_conn : conn;
  j_epoch : epoch;
  j_brownout : bool;  (* admitted under queue pressure: shrink its fuel *)
  j_cancel : bool Atomic.t;  (* set by the watchdog past the deadline *)
  j_admitted : float;  (* ms timestamp; the queue stage starts here *)
  mutable j_done : bool;  (* guarded by the server lock; see complete_job *)
}

(* One worker seat, run by a domain or a thread (see [spawn_seat]).  The
   generation number lets the watchdog disown a wedged seat: it bumps
   [s_gen], hands the seat to a freshly spawned worker, and the zombie —
   if it ever returns — sees the mismatch and exits without touching the
   seat. *)
type slot = {
  s_idx : int;
  mutable s_join : unit -> unit;  (* waits for the seat's worker; guarded by the server lock *)
  mutable s_gen : int;  (* guarded by the server lock *)
  mutable s_job : job option;  (* guarded by the server lock *)
  mutable s_deadline : float;  (* ms timestamp; 0. = no deadline *)
}

type t = {
  cfg : config;
  cache : Decide_cache.t;
  queue : job Queue.t;
  lock : Mutex.t;  (* guards queue, inflight, conn inflights, stopping,
                      current epoch, state_path, ema_ms, slot fields *)
  nonempty : Condition.t;
  mutable inflight : int;
  mutable stopping : bool;
  mutable current : epoch;
  mutable state_path : string option;  (* source for pathless reload/SIGHUP *)
  mutable ema_ms : float;  (* EMA of request latency; 0. until first sample *)
  slots : slot array;
  seat_domains : bool;  (* seats are domains, not main-domain threads *)
  jlock : Mutex.t;  (* guards journal handle + append/reset sequencing *)
  mutable journal : Journal.t option;  (* guarded by jlock *)
  japps : int Atomic.t;  (* appends since the last compaction *)
  needs_compact : bool Atomic.t;
  reg : registry;
  req_seq : int Atomic.t;  (* eval arrivals; drives trace minting + sampling *)
  tlock : Mutex.t;  (* guards trace_ring *)
  mutable trace_ring : Json.t list;  (* completed sampled traces, newest first *)
  slog_lock : Mutex.t;  (* serializes slow-query log appends *)
  mutable last_metrics_dump : float;  (* accept-loop thread only *)
  last_save : float Atomic.t;  (* unix time of the last successful snapshot save *)
}

let now_ms () = Unix.gettimeofday () *. 1000.

let all_domains cfg = Protocol.domains @ cfg.extra_domains

let make_epoch cfg ~id state =
  let breakers = Hashtbl.create 8 in
  List.iter
    (fun (name, _) -> Hashtbl.replace breakers name (Supervisor.Breaker.create ()))
    (all_domains cfg);
  { ep_id = id; ep_state = state; ep_stats = Optimizer.Stats.of_state state;
    ep_breakers = breakers }

(* Under a fleet, every reply names the worker that produced it (right
   after the id), so a client spreading jobs across endpoints can
   attribute answers — and failures — to a process.  Outcome.of_json
   ignores the field, so eval replies still classify byte-identically. *)
let stamp_worker cfg json =
  match cfg.worker_id with
  | None -> json
  | Some w -> (
    match json with
    | Json.Obj (("id", idv) :: rest) ->
      Json.Obj (("id", idv) :: ("worker", Json.Str w) :: rest)
    | Json.Obj fields -> Json.Obj (("worker", Json.Str w) :: fields)
    | j -> j)

let send srv conn json =
  let json = stamp_worker srv.cfg json in
  Mutex.lock conn.c_olock;
  Fun.protect ~finally:(fun () -> Mutex.unlock conn.c_olock) @@ fun () ->
  if not conn.c_closed then
    try
      output_string conn.c_oc (Json.to_string json);
      output_char conn.c_oc '\n';
      flush conn.c_oc
    with Sys_error _ | Unix.Unix_error _ ->
      (* the peer went away mid-write; the reader thread will see EOF *)
      conn.c_closed <- true;
      reg_count srv.reg "serve.send_failures"

(* ------------------------------ journal ----------------------------- *)

(* Called from the decide-cache insert hook, i.e. on a worker seat
   with the cache lock already released.  Errors are counted and the
   record dropped — persistence degrades, serving does not. *)
let journal_record srv key value =
  Mutex.lock srv.jlock;
  Fun.protect ~finally:(fun () -> Mutex.unlock srv.jlock) @@ fun () ->
  match srv.journal with
  | None -> ()
  | Some j -> (
    match Journal.append j (Decide_cache.entry_to_line key value) with
    | Ok () ->
      let n = Atomic.fetch_and_add srv.japps 1 + 1 in
      if
        n >= journal_compact_every
        && srv.cfg.snapshot <> None
        && not srv.cfg.snapshot_read_only
      then Atomic.set srv.needs_compact true
    | Error _ -> reg_count srv.reg "serve.journal_errors")

let journal_mark srv =
  Mutex.lock srv.jlock;
  Fun.protect ~finally:(fun () -> Mutex.unlock srv.jlock) @@ fun () ->
  Option.map Journal.mark srv.journal

let reset_journal srv since =
  Mutex.lock srv.jlock;
  Fun.protect ~finally:(fun () -> Mutex.unlock srv.jlock) @@ fun () ->
  match (srv.journal, since) with
  | None, _ | _, None -> ()
  | Some j, Some since -> (
    match Journal.reset j ~since with
    | Ok () -> Atomic.set srv.japps 0
    | Error e ->
      reg_count srv.reg "serve.journal_errors";
      logf srv.cfg "journal reset failed: %s" e)

(* ----------------------------- evaluation --------------------------- *)

(* The fq batch worker's breaker-guarded cached decide, with crash
   isolation via the supervisor (one attempt — retrying is the client's
   decision, it owns the resume token). *)
let eval_outcome srv ep ~domain_name ~domain ~fuel ~timeout_ms ~resume ~cancel ~brownout
    text =
  match Parser.formula text with
  | Error e -> Outcome.failed ("parse error: " ^ e)
  | Ok f ->
    let breaker =
      match Hashtbl.find_opt ep.ep_breakers domain_name with
      | Some b -> b
      | None -> assert false (* populated for every registry domain per epoch *)
    in
    let guarded = Decide_cache.guarded srv.cache ~breaker ~name:domain_name domain in
    let fuel = min (max 1 (Option.value fuel ~default:srv.cfg.default_fuel)) srv.cfg.max_fuel in
    let fuel =
      if brownout then max 1 (fuel / brownout_fuel_divisor) else fuel
    in
    let timeout_ms =
      match timeout_ms with Some _ as t -> t | None -> srv.cfg.default_timeout_ms
    in
    let attempt _ =
      let budget = Budget.make ~fuel ?timeout_ms ~cancel:(fun () -> Atomic.get cancel) () in
      Query.eval_resilient ~budget ?resume ~stats:ep.ep_stats ~domain:guarded
        ~state:ep.ep_state f
    in
    let run =
      Supervisor.supervise
        ~policy:{ Supervisor.default_policy with max_attempts = 1 }
        ~name:("serve:" ^ domain_name) attempt
    in
    (match run.Supervisor.outcome with
    | Supervisor.Value rep -> rep
    | Supervisor.Crashed { reason; _ } -> Outcome.failed ("crashed: " ^ reason))

let resolve_domain srv = function
  | None ->
    Ok (srv.cfg.default_domain, List.assoc srv.cfg.default_domain (all_domains srv.cfg))
  | Some name -> (
    match List.assoc_opt name (all_domains srv.cfg) with
    | Some d -> Ok (name, d)
    | None ->
      Error
        (Printf.sprintf "unknown domain %S (try: %s)" name
           (String.concat ", " (List.map fst Protocol.domains))))

(* ----------------------- trace ring + slow log ---------------------- *)

let outcome_tier rep =
  match rep.Outcome.verdict with
  | Outcome.Complete { tier; _ } -> tier
  | Outcome.Partial _ -> Query.scan_tier (* partial answers come from the scan tier *)
  | Outcome.Failed _ -> "none"

let rollup_json rus =
  let rec go ru =
    Json.Obj
      ([ ("name", Json.Str ru.Telemetry.r_name);
         ("count", Json.Int ru.Telemetry.r_count);
         ("ticks", Json.Int ru.Telemetry.r_ticks);
         ("self_ticks", Json.Int ru.Telemetry.r_self_ticks);
         ("dur_ms", Json.Float ru.Telemetry.r_dur_ms) ]
      @
      match ru.Telemetry.r_children with
      | [] -> []
      | kids -> [ ("children", Json.List (List.map go kids)) ])
  in
  Json.List (List.map go rus)

let push_trace srv entry =
  Mutex.lock srv.tlock;
  Fun.protect ~finally:(fun () -> Mutex.unlock srv.tlock) @@ fun () ->
  srv.trace_ring <- entry :: List.filteri (fun i _ -> i < trace_ring_size - 1) srv.trace_ring

(* Estimated-vs-observed output cardinality per plan node: the
   optimizer's estimate against what the telemetry recording actually
   measured ([relalg.node_card.<fp>]) — the slow-query log's "why was
   the plan wrong" evidence, replayable offline by fq explain. *)
let plan_nodes_json ep plan treport =
  let arity_of = Schema.arity (State.schema ep.ep_state) in
  Json.List
    (List.map
       (fun (fp, _, est, h) ->
         let est = match est with Some e -> [ ("est", Json.Float e) ] | None -> [] in
         let observed =
           match (h, Option.bind h Aggregate.mean) with
           | Some h, Some mean ->
             [ ("observed_mean", Json.Float mean); ("observed_count", Json.Int h.count) ]
           | _ -> []
         in
         Json.Obj ((("fp", Json.Str fp) :: est) @ observed))
       (Optimizer.est_vs_observed ep.ep_stats ~arity_of treport plan))

(* One structured JSONL line per slow (or browned-out / cancelled)
   request, appended under [slog_lock]; an I/O failure degrades to a
   counter, never to a failed request. *)
let slow_log_entry srv job ~trace ~id ~domain_name ~dom ~formula ~elapsed ~cancelled rep
    (treport : Telemetry.report) =
  match srv.cfg.slow_log with
  | None -> ()
  | Some path ->
    reg_count srv.reg "serve.slow_queries";
    let plan_fields =
      match Parser.formula formula with
      | Error _ -> []
      | Ok f ->
        let ep = job.j_epoch in
        let p = Query.plan ~stats:ep.ep_stats ~domain:dom ~state:ep.ep_state f in
        ("planned_tier", Json.Str p.Query.tier)
        ::
        (match p.Query.compiled with
        | None -> []
        | Some { Fq_eval.Algebra_translate.plan; _ } ->
          [ ("plan", Json.Str (Format.asprintf "%a" Relalg.pp plan));
            ("nodes", plan_nodes_json ep plan treport) ])
    in
    let entry =
      Json.Obj
        ([ ("ts_ms", Json.Float (now_ms ()));
           ("trace", Json.Str trace);
           ("id", Json.Str id);
           ("client", Json.Str (client_label srv.reg job.j_conn.c_id));
           ("domain", Json.Str domain_name);
           ("epoch", Json.Int job.j_epoch.ep_id);
           ("formula", Json.Str formula);
           ("status", Json.Str (Outcome.status rep));
           ("tier", Json.Str (outcome_tier rep));
           ("latency_ms", Json.Float elapsed);
           ("ticks", Json.Int rep.Outcome.usage.Budget.ticks);
           ("brownout", Json.Bool job.j_brownout);
           ("cancelled", Json.Bool cancelled) ]
        @ plan_fields)
    in
    Mutex.lock srv.slog_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock srv.slog_lock) @@ fun () ->
    (try
       let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
       Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
       output_string oc (Json.to_string entry);
       output_char oc '\n'
     with Sys_error _ -> reg_count srv.reg "serve.slow_log_errors")

let handle_eval srv job ~id ~domain ~formula ~fuel ~timeout_ms ~resume ~trace =
  match resolve_domain srv domain with
  | Error e -> Protocol.malformed_response ~id e
  | Ok (domain_name, dom) ->
    (* trace context: client id verbatim, or a server-minted one; the
       same arrival counter drives head-based 1-in-N sampling *)
    let seq = Atomic.fetch_and_add srv.req_seq 1 in
    let trace =
      match trace with Some t -> t | None -> "srv-" ^ string_of_int (seq + 1)
    in
    let sampled = srv.cfg.trace_sample > 0 && seq mod srv.cfg.trace_sample = 0 in
    let started = now_ms () in
    let rep, treport =
      Telemetry.record (fun () ->
          Telemetry.set_trace_id trace;
          eval_outcome srv job.j_epoch ~domain_name ~domain:dom ~fuel ~timeout_ms ~resume
            ~cancel:job.j_cancel ~brownout:job.j_brownout formula)
    in
    let elapsed = now_ms () -. started in
    let status = Outcome.status rep in
    let tier = outcome_tier rep in
    let epoch = string_of_int job.j_epoch.ep_id in
    let client = client_label srv.reg job.j_conn.c_id in
    let ticks = rep.Outcome.usage.Budget.ticks in
    merge_report srv.reg treport;
    reg_count srv.reg "serve.requests";
    reg_count srv.reg ("serve.eval." ^ status);
    (* always-on labeled aggregation (log-bucketed; ~an array increment) *)
    reg_lcount srv.reg "fq_requests_total" [ ("op", "eval") ];
    reg_lcount srv.reg "fq_eval_outcomes_total"
      [ ("domain", domain_name); ("epoch", epoch); ("status", status); ("tier", tier) ];
    reg_lcount srv.reg "fq_client_requests_total" [ ("client", client) ];
    reg_lobserve srv.reg "fq_request_latency_ms"
      [ ("domain", domain_name); ("epoch", epoch) ]
      elapsed;
    reg_lobserve srv.reg "fq_request_fuel_ticks"
      [ ("domain", domain_name); ("epoch", epoch) ]
      (float_of_int ticks);
    let cancelled = Atomic.get job.j_cancel in
    if sampled then begin
      reg_count srv.reg "serve.traces_sampled";
      push_trace srv
        (Json.Obj
           [ ("trace", Json.Str trace);
             ("id", Json.Str id);
             ("client", Json.Str client);
             ("domain", Json.Str domain_name);
             ("epoch", Json.Int job.j_epoch.ep_id);
             ("tier", Json.Str tier);
             ("status", Json.Str status);
             ("brownout", Json.Bool job.j_brownout);
             ("cancelled", Json.Bool cancelled);
             ("dur_ms", Json.Float elapsed);
             ("ticks", Json.Int ticks);
             ("spans", rollup_json (Telemetry.rollup treport.Telemetry.roots)) ])
    end;
    let slow =
      match srv.cfg.slow_ms with Some t -> elapsed >= t | None -> false
    in
    if slow || job.j_brownout || cancelled then
      slow_log_entry srv job ~trace ~id ~domain_name ~dom ~formula ~elapsed ~cancelled rep
        treport;
    Protocol.outcome_response ~id ~trace rep

let handle_explain srv job ~id ~domain ~formula ~trace =
  let ep = job.j_epoch in
  match resolve_domain srv domain with
  | Error e -> Protocol.malformed_response ~id e
  | Ok (domain_name, dom) -> (
    match Parser.formula formula with
    | Error e -> Protocol.malformed_response ~id ("parse error: " ^ e)
    | Ok f ->
      reg_count srv.reg "serve.requests";
      reg_count srv.reg "serve.explain";
      reg_lcount srv.reg "fq_requests_total" [ ("op", "explain") ];
      let p = Query.plan ~stats:ep.ep_stats ~domain:dom ~state:ep.ep_state f in
      let safety =
        match p.Query.safe_range with
        | Fq_eval.Safe_range.Safe_range -> "safe-range"
        | Fq_eval.Safe_range.Not_safe_range why -> "not safe-range: " ^ why
      in
      Protocol.ok_response ~id
        ((match trace with None -> [] | Some t -> [ ("trace", Json.Str t) ])
        @ [ ("domain", Json.Str domain_name); ("safety", Json.Str safety);
            ("tier", Json.Str p.Query.tier) ]
        @
        match p.Query.compiled with
        | None -> []
        | Some { Fq_eval.Algebra_translate.plan; _ } ->
          [ ("plan", Json.Str (Format.asprintf "%a" Relalg.pp plan)) ]))

(* The full versioned exposition: registry families plus point-in-time
   gauges (inflight, queue depth, breaker states, journal lag, cache). *)
let exposition_text srv =
  let cache = Decide_cache.stats srv.cache in
  let inflight, depth, epoch, breakers =
    Mutex.protect srv.lock (fun () ->
        ( srv.inflight,
          Queue.length srv.queue,
          srv.current.ep_id,
          Hashtbl.fold
            (fun name b acc -> (name, Supervisor.Breaker.state b) :: acc)
            srv.current.ep_breakers [] ))
  in
  let breaker_gauge = function
    | Supervisor.Breaker.Closed -> 0.
    | Supervisor.Breaker.Half_open -> 1.
    | Supervisor.Breaker.Open -> 2.
  in
  let retained = Mutex.protect srv.tlock (fun () -> List.length srv.trace_ring) in
  let gauges =
    [ Aggregate.gauge_family ~name:"fq_inflight"
        ~help:"Admitted-but-unfinished requests." [ ([], float_of_int inflight) ];
      Aggregate.gauge_family ~name:"fq_queue_depth"
        ~help:"Jobs admitted and waiting for a worker." [ ([], float_of_int depth) ];
      Aggregate.gauge_family ~name:"fq_epoch" ~help:"Live state epoch."
        [ ([], float_of_int epoch) ];
      Aggregate.gauge_family ~name:"fq_breaker_state"
        ~help:"Per-domain circuit breaker (0 closed, 1 half-open, 2 open)."
        (List.map (fun (name, st) -> ([ ("domain", name) ], breaker_gauge st)) breakers);
      Aggregate.gauge_family ~name:"fq_journal_lag_records"
        ~help:"Journal appends since the last compaction."
        [ ([], float_of_int (Atomic.get srv.japps)) ];
      Aggregate.counter_family ~name:"fq_journal_compactions_total"
        ~help:"Journal-into-snapshot compactions."
        [ ([], reg_get srv.reg "serve.compactions") ];
      Aggregate.gauge_family ~name:"fq_snapshot_last_save_timestamp_seconds"
        ~help:"Unix time of the last successful snapshot save (0 until the first)."
        [ ([], Atomic.get srv.last_save) ];
      Aggregate.gauge_family ~name:"fq_traces_retained"
        ~help:"Completed sampled traces held in the ring."
        [ ([], float_of_int retained) ];
      Aggregate.counter_family ~name:"fq_decide_cache_hits_total"
        ~help:"Decide-cache hits." [ ([], cache.Decide_cache.hits) ];
      Aggregate.counter_family ~name:"fq_decide_cache_misses_total"
        ~help:"Decide-cache misses." [ ([], cache.Decide_cache.misses) ];
      Aggregate.counter_family ~name:"fq_decide_cache_evictions_total"
        ~help:"Decide-cache LRU evictions." [ ([], cache.Decide_cache.evictions) ];
      Aggregate.gauge_family ~name:"fq_decide_cache_entries"
        ~help:"Decide-cache resident entries."
        [ ([], float_of_int cache.Decide_cache.entries) ] ]
  in
  Aggregate.exposition (registry_families srv.reg @ gauges)

let metrics_fields srv =
  let cache = Decide_cache.stats srv.cache in
  let inflight, epoch = Mutex.protect srv.lock (fun () -> (srv.inflight, srv.current.ep_id)) in
  [ ("version", Json.Int Aggregate.exposition_version);
    ( "decide_cache",
      Json.Obj
        [ ("hits", Json.Int cache.Decide_cache.hits);
          ("misses", Json.Int cache.Decide_cache.misses);
          ("entries", Json.Int cache.Decide_cache.entries);
          ("evictions", Json.Int cache.Decide_cache.evictions) ] );
    ("inflight", Json.Int inflight);
    ("epoch", Json.Int epoch);
    ("exposition", Json.Str (exposition_text srv)) ]

let traces_fields srv limit =
  let ring = Mutex.protect srv.tlock (fun () -> srv.trace_ring) in
  let traces = match limit with None -> ring | Some n -> List.filteri (fun i _ -> i < n) ring in
  [ ("sample_every", Json.Int srv.cfg.trace_sample); ("traces", Json.List traces) ]

(* --metrics-file: the same exposition, dumped atomically (tmp + rename)
   from the accept loop so a file scrape never sees a torn write. *)
let dump_metrics_file srv =
  match srv.cfg.metrics_file with
  | None -> ()
  | Some path ->
    (try
       let tmp = path ^ ".tmp" in
       let oc = open_out tmp in
       Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
           output_string oc (exposition_text srv));
       Sys.rename tmp path
     with Sys_error _ -> reg_count srv.reg "serve.metrics_file_errors")

(* The queue-wait estimate behind deadline-aware shedding and health:
   queue depth x EMA latency / workers — crude but self-correcting, and
   0 until the first completion. *)
let estimated_wait_ms srv =
  (* srv.lock held *)
  float_of_int (Queue.length srv.queue) *. srv.ema_ms /. float_of_int (max 1 srv.cfg.jobs)

(* The one-line triage view: is the server keeping up, which breakers
   are open, which epoch is live, is persistence healthy. *)
let health_fields srv =
  let depth, inflight, epoch, est_wait, breakers =
    Mutex.protect srv.lock (fun () ->
        ( Queue.length srv.queue,
          srv.inflight,
          srv.current.ep_id,
          estimated_wait_ms srv,
          Hashtbl.fold
            (fun name b acc -> (name, Supervisor.Breaker.state b) :: acc)
            srv.current.ep_breakers [] ))
  in
  let state_str = function
    | Supervisor.Breaker.Closed -> "closed"
    | Supervisor.Breaker.Open -> "open"
    | Supervisor.Breaker.Half_open -> "half_open"
  in
  let breakers =
    List.sort (fun (a, _) (b, _) -> String.compare a b) breakers
    |> List.map (fun (name, st) -> (name, Json.Str (state_str st)))
  in
  [ ("epoch", Json.Int epoch);
    ("queue_depth", Json.Int depth);
    ("inflight", Json.Int inflight);
    ("brownout", Json.Bool (depth >= brownout_queue));
    ("est_wait_ms", Json.Int (int_of_float est_wait));
    ("breakers", Json.Obj breakers);
    ("journal_records", Json.Int (Atomic.get srv.japps));
    ("worker_domains", Json.Int (if srv.seat_domains then Array.length srv.slots else 0)) ]

(* ------------------------------ snapshots --------------------------- *)

(* A fleet worker opens the shared snapshot read-only: it loads verdicts
   at boot but never writes the file — the parent owns the snapshot and
   folds per-worker journals into it, so two processes never race on the
   same temp+rename. *)
let snapshot_writable cfg = cfg.snapshot <> None && not cfg.snapshot_read_only

(* A successful snapshot subsumes the journal up to the mark taken
   before its cache walk: reset the journal to the records appended
   since, which the walk may have missed, so recovery never replays
   records the snapshot already holds (replaying them would be
   idempotent, just wasted boot time) and never loses a late one.  Only
   the mark and the reset hold the journal lock, so appends do not stall
   for the save. *)
let save_snapshot srv =
  if not (snapshot_writable srv.cfg) then Ok 0
  else
    let since = journal_mark srv in
    match Decide_cache.save srv.cache (Option.get srv.cfg.snapshot) with
    | Ok n ->
      Atomic.set srv.last_save (Unix.gettimeofday ());
      reset_journal srv since;
      Ok n
    | Error _ as e -> e

let save_snapshot_logged srv ~why =
  match save_snapshot srv with
  | Ok _ when not (snapshot_writable srv.cfg) -> ()
  | Ok n ->
    logf srv.cfg "snapshot written (%d entries, %s) to %s" n why
      (Option.get srv.cfg.snapshot)
  | Error e -> logf srv.cfg "snapshot failed: %s" e

let compact srv =
  match save_snapshot srv with
  | Ok _ -> if snapshot_writable srv.cfg then reg_count srv.reg "serve.compactions"
  | Error e ->
    reg_count srv.reg "serve.journal_errors";
    logf srv.cfg "compaction failed: %s" e

(* ------------------------------ reload ------------------------------ *)

let swap_epoch srv state ~source =
  let ep =
    Mutex.protect srv.lock (fun () ->
        let ep = make_epoch srv.cfg ~id:(srv.current.ep_id + 1) state in
        srv.current <- ep;
        srv.state_path <- Some source;
        ep)
  in
  reg_count srv.reg "serve.reloads";
  let schema = State.schema ep.ep_state in
  logf srv.cfg "epoch %d: state reloaded from %s (%d relations, %d constants)" ep.ep_id source
    (List.length (Schema.relations schema))
    (List.length (State.constants ep.ep_state));
  ep.ep_id

(* [path = None] means "re-read the configured state file" — the SIGHUP
   semantics. *)
let load_state_file path ~configured =
  match (path, configured) with
  | Some p, _ | None, Some p -> Result.map (fun state -> (p, state)) (Fq_db.Codec.load_state p)
  | None, None -> Error "no state file configured (start with --state-file or name one)"

(* The file is parsed before any pointer moves, so a broken file leaves
   the old epoch serving. *)
let do_reload srv ~path =
  let configured = Mutex.protect srv.lock (fun () -> srv.state_path) in
  match load_state_file path ~configured with
  | Error e ->
    reg_count srv.reg "serve.reload_failures";
    Error e
  | Ok (p, state) -> Ok (swap_epoch srv state ~source:p)

(* ------------------------------ admission --------------------------- *)

(* The resume evidence a rejected request walks away with: whatever it
   sent, or a fresh zero-progress token at the query's arity. *)
let reject_resume ~resume ~formula =
  match resume with
  | Some r -> Ok r
  | None ->
    Result.map
      (fun f ->
        { Outcome.seen = 0;
          found = Relation.empty ~arity:(List.length (Formula.free_vars f)) })
      (Result.map_error (fun e -> "parse error: " ^ e) (Parser.formula formula))

(* Deadline-aware shedding: when the queue is long enough that this
   request would blow its own deadline just waiting, reject now with an
   honest retry hint instead of admitting work we already know we will
   abandon. *)
let admit srv conn req =
  let deadline_ms =
    match req with
    | Protocol.Eval { timeout_ms; _ } -> (
      match timeout_ms with Some _ as t -> t | None -> srv.cfg.default_timeout_ms)
    | _ -> None
  in
  let verdict =
    Mutex.protect srv.lock (fun () ->
        if srv.stopping then `Reject ("shutting down", 25)
        else if srv.inflight >= srv.cfg.max_inflight then
          `Reject
            (Printf.sprintf "server over capacity (%d requests in flight)" srv.inflight, 25)
        else if conn.c_inflight >= srv.cfg.client_share then
          `Reject
            ( Printf.sprintf "client over fair share (%d requests in flight)" conn.c_inflight,
              25 )
        else
          let est_wait = estimated_wait_ms srv in
          match deadline_ms with
          | Some d when est_wait > float_of_int d ->
            `Shed
              ( Printf.sprintf
                  "estimated queue wait %.0fms exceeds request deadline %dms" est_wait d,
                int_of_float est_wait )
          | _ ->
            let job =
              { j_req = req;
                j_conn = conn;
                j_epoch = srv.current;
                j_brownout = Queue.length srv.queue >= brownout_queue;
                j_cancel = Atomic.make false;
                j_admitted = now_ms ();
                j_done = false }
            in
            srv.inflight <- srv.inflight + 1;
            conn.c_inflight <- conn.c_inflight + 1;
            Queue.push job srv.queue;
            Condition.signal srv.nonempty;
            if job.j_brownout then `Admitted_brownout else `Admitted)
  in
  let reject reason retry_after_ms =
    let id = Protocol.request_id req in
    let resume, formula =
      match req with
      | Protocol.Eval { resume; formula; _ } -> (resume, formula)
      | Protocol.Explain { formula; _ } -> (None, formula)
      | _ -> (None, "")
    in
    match reject_resume ~resume ~formula with
    | Ok resume -> send srv conn (Protocol.reject_response ~id ~reason ~retry_after_ms ~resume)
    | Error e -> send srv conn (Protocol.malformed_response ~id e)
  in
  match verdict with
  | `Admitted -> ()
  | `Admitted_brownout -> reg_count srv.reg "serve.brownout"
  | `Reject (reason, retry) ->
    reg_count srv.reg "serve.rejected";
    reject reason retry
  | `Shed (reason, retry) ->
    reg_count srv.reg "serve.rejected";
    reg_count srv.reg "serve.shed_deadline";
    reject reason (max 1 retry)

(* ------------------------------- workers ---------------------------- *)

let handle srv job =
  match job.j_req with
  | Protocol.Eval { id; domain; formula; fuel; timeout_ms; resume; trace } ->
    handle_eval srv job ~id ~domain ~formula ~fuel ~timeout_ms ~resume ~trace
  | Protocol.Explain { id; domain; formula; trace } ->
    handle_explain srv job ~id ~domain ~formula ~trace
  | Protocol.Metrics _ | Protocol.Ping _ | Protocol.Snapshot _ | Protocol.Shutdown _
  | Protocol.Reload _ | Protocol.Health _ | Protocol.Traces _ | Protocol.Fleet_status _ ->
    assert false (* control ops are answered inline by the reader thread *)

(* Exactly-once completion: the worker that evaluated the job and the
   watchdog that gave up on it race here; the first caller owns the
   decrement and the response, the loser is a no-op. *)
let complete_job srv job response =
  let first =
    Mutex.protect srv.lock (fun () ->
        if job.j_done then false
        else begin
          job.j_done <- true;
          srv.inflight <- srv.inflight - 1;
          job.j_conn.c_inflight <- job.j_conn.c_inflight - 1;
          true
        end)
  in
  if first then send srv job.j_conn response;
  first

let job_deadline job =
  match job.j_req with
  | Protocol.Eval { timeout_ms = Some t; _ } -> Some t
  | _ -> None

let rec worker srv slot gen =
  Mutex.lock srv.lock;
  while Queue.is_empty srv.queue && not srv.stopping do
    Condition.wait srv.nonempty srv.lock
  done;
  if Queue.is_empty srv.queue then Mutex.unlock srv.lock (* stopping, drained: exit *)
  else begin
    let job = Queue.pop srv.queue in
    let started = now_ms () in
    let deadline =
      match job_deadline job with
      | Some t -> started +. float_of_int t
      | None -> (
        match srv.cfg.default_timeout_ms with
        | Some t -> started +. float_of_int t
        | None -> 0.)
    in
    if slot.s_gen = gen then begin
      slot.s_job <- Some job;
      slot.s_deadline <- (match job.j_req with Protocol.Eval _ -> deadline | _ -> 0.)
    end;
    Mutex.unlock srv.lock;
    reg_lobserve srv.reg "fq_request_stage_ms" [ ("stage", "queue") ] (started -. job.j_admitted);
    let response = handle srv job in
    let elapsed = now_ms () -. started in
    let _first : bool = complete_job srv job response in
    let keep_seat =
      Mutex.protect srv.lock (fun () ->
          srv.ema_ms <-
            (if srv.ema_ms = 0. then elapsed else (0.8 *. srv.ema_ms) +. (0.2 *. elapsed));
          if slot.s_gen = gen then begin
            slot.s_job <- None;
            slot.s_deadline <- 0.;
            true
          end
          else false (* the watchdog disowned us; a replacement holds the seat *))
    in
    if keep_seat then worker srv slot gen
  end

(* Start a worker on [slot] at generation [gen] and record how to wait
   for it.  [seat_domains] is fixed at boot from the CPUs the process may
   run on, so every seat of one server is the same kind.  On one CPU the
   seats are threads: a minor collection stops every domain, and there it
   would wait until the scheduler had run each domain, idle ones
   included.  Thread seats share the main domain's [Domain.DLS], which is
   why the per-request ambient state (budget, tick clock, collector,
   fault plan) lives in [Fq_core.Thread_local] instead. *)
let spawn_seat srv slot gen =
  let run () = worker srv slot gen in
  let join =
    if srv.seat_domains then
      let d = Stdlib.Domain.spawn run in
      fun () -> Stdlib.Domain.join d
    else
      let t = Thread.create run () in
      fun () -> Thread.join t
  in
  Mutex.protect srv.lock (fun () -> slot.s_join <- join)

(* ------------------------------ watchdog ---------------------------- *)

(* Two-stage escalation, driven from the accept loop's 0.2s tick.  Past
   the request deadline: set the job's cancel flag — the budget polls it
   every 256 ticks, so a cooperating evaluation unwinds into an ordinary
   Partial/Failed within microseconds.  Past deadline + grace: the
   worker is wedged somewhere that never ticks (a pathological decide, a
   stuck syscall) — answer the victim with a classified error ourselves,
   disown the seat, and spawn a fresh worker so pool capacity does not
   leak.  The zombie is never joined; if it ever wakes it finds its job
   completed and its seat re-generationed, and exits. *)
let scan_watchdog srv =
  let nw = now_ms () in
  (* counted after srv.lock is released: the registry has its own lock *)
  let cancels, victims =
    Mutex.protect srv.lock (fun () ->
        Array.fold_left
          (fun (cancels, acc) slot ->
            match slot.s_job with
            | Some job when slot.s_deadline > 0. ->
              let cancels =
                if nw > slot.s_deadline && not (Atomic.get job.j_cancel) then begin
                  Atomic.set job.j_cancel true;
                  cancels + 1
                end
                else cancels
              in
              if nw > slot.s_deadline +. float_of_int srv.cfg.watchdog_grace_ms then begin
                slot.s_gen <- slot.s_gen + 1;
                slot.s_job <- None;
                slot.s_deadline <- 0.;
                (cancels, (slot, slot.s_gen, job) :: acc)
              end
              else (cancels, acc)
            | _ -> (cancels, acc))
          (0, []) srv.slots)
  in
  if cancels > 0 then reg_count srv.reg ~n:cancels "serve.watchdog_cancels";
  List.iter
    (fun (slot, gen, job) ->
      reg_count srv.reg "serve.watchdog_recycles";
      let id = Protocol.request_id job.j_req in
      let reason =
        "crashed: watchdog: evaluation still running past its deadline; worker recycled"
      in
      let trace =
        match job.j_req with Protocol.Eval { trace; _ } -> trace | _ -> None
      in
      let response = Protocol.outcome_response ~id ?trace (Outcome.failed reason) in
      let _first : bool = complete_job srv job response in
      logf srv.cfg "watchdog recycled worker %d (request %S overran)" slot.s_idx id;
      spawn_seat srv slot gen)
    victims

(* ------------------------------ connections ------------------------- *)

let initiate_shutdown srv =
  Mutex.protect srv.lock (fun () ->
      srv.stopping <- true;
      Condition.broadcast srv.nonempty)

(* Bounded line reader over a raw descriptor: a line longer than
   [max_bytes] is drained (not buffered) to its newline and reported as
   oversized, so one hostile client cannot balloon a reader.  Reads are
   explicit: [read_line ~refills] makes at most [refills] read(2) calls.
   A serve reader thread blocks until its next line; the fleet's
   single-threaded select loop reads only a descriptor select reported
   ready, and takes an already-buffered line without reading at all. *)
type reader = {
  rd_fd : Unix.file_descr;
  rd_max : int;
  rd_chunk : Bytes.t;
  mutable rd_pos : int;  (* rd_chunk[rd_pos, rd_len) is read but unconsumed *)
  mutable rd_len : int;
  rd_line : Buffer.t;  (* the line so far, unless it passed rd_max *)
  mutable rd_over : bool;
  mutable rd_eof : bool;
}

let reader ~max_bytes fd =
  { rd_fd = fd; rd_max = max_bytes; rd_chunk = Bytes.create 65536; rd_pos = 0; rd_len = 0;
    rd_line = Buffer.create 256; rd_over = false; rd_eof = false }

let buffered r = r.rd_pos < r.rd_len

let rec read_line r ~refills =
  (* consume up to the next newline, or all that is buffered *)
  let stop = ref r.rd_pos in
  while !stop < r.rd_len && Bytes.get r.rd_chunk !stop <> '\n' do incr stop done;
  let n = !stop - r.rd_pos in
  if r.rd_over || Buffer.length r.rd_line + n > r.rd_max then r.rd_over <- true
  else Buffer.add_subbytes r.rd_line r.rd_chunk r.rd_pos n;
  r.rd_pos <- min r.rd_len (!stop + 1);
  if !stop < r.rd_len || (r.rd_eof && (r.rd_over || Buffer.length r.rd_line > 0)) then begin
    let line = if r.rd_over then `Too_long else `Line (Buffer.contents r.rd_line) in
    Buffer.clear r.rd_line;
    r.rd_over <- false;
    line
  end
  else if r.rd_eof then `Eof
  else if refills <= 0 then `Pending
  else begin
    (match Unix.read r.rd_fd r.rd_chunk 0 (Bytes.length r.rd_chunk) with
    | 0 -> r.rd_eof <- true
    | n ->
      r.rd_pos <- 0;
      r.rd_len <- n
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> r.rd_eof <- true);
    read_line r ~refills:(refills - 1)
  end

(* ------------------------------ control ----------------------------- *)

type control = {
  health : unit -> (string * Json.t) list;
  metrics : unit -> (string * Json.t) list;
  traces : int option -> (string * Json.t) list;
  topology : unit -> bool * Protocol.worker_info list;
  reload : string option -> ((string * Json.t) list, string) result;
  save : unit -> (int, string) result;
  shutdown : unit -> unit;
  evaluate : Protocol.request -> Json.t option;
  count : string -> unit;
}

(* The one control-op table, shared by a serve connection thread and the
   fleet parent's select loop: read one line, answer it from [ctl].  An
   exception while answering a line is that line's [malformed] reply:
   the connection stays up and its client is not left waiting. *)
let answer ctl r ~refills ~send =
  let ok id fields = send (Protocol.ok_response ~id fields) in
  let malformed id reason =
    ctl.count "malformed";
    send (Protocol.malformed_response ~id reason)
  in
  match read_line r ~refills with
  | (`Pending | `Eof) as idle -> idle
  | `Too_long ->
    malformed "" (Printf.sprintf "protocol: line exceeds %d bytes" r.rd_max);
    `Answered
  | `Line line ->
    let line = String.trim line in
    (if line <> "" then
       let internal e = "internal error: " ^ Printexc.to_string e in
       match Protocol.parse_request line with
       | exception e -> malformed "" (internal e)
       | Error e -> malformed "" e
       | Ok req -> (
         try
           match req with
           | Protocol.Eval _ | Protocol.Explain _ -> Option.iter send (ctl.evaluate req)
           | Protocol.Ping { id } ->
             ctl.count "ping";
             ok id []
           | Protocol.Metrics { id } ->
             ctl.count "metrics";
             ok id (ctl.metrics ())
           | Protocol.Traces { id; limit } ->
             ctl.count "traces";
             ok id (ctl.traces limit)
           | Protocol.Health { id } ->
             ctl.count "health";
             ok id (ctl.health ())
           | Protocol.Fleet_status { id } ->
             ctl.count "fleet-status";
             let fleet, workers = ctl.topology () in
             send (Protocol.fleet_status_response ~id ~fleet workers)
           | Protocol.Snapshot { id } -> (
             ctl.count "snapshot";
             match ctl.save () with
             | Ok n -> ok id [ ("entries", Json.Int n) ]
             | Error e -> send (Protocol.malformed_response ~id e))
           | Protocol.Reload { id; path } -> (
             ctl.count "reload";
             match ctl.reload path with
             | Ok fields -> ok id fields
             | Error e -> send (Protocol.malformed_response ~id ("reload: " ^ e)))
           | Protocol.Shutdown { id } ->
             ctl.count "shutdown";
             ok id [ ("draining", Json.Bool true) ];
             ctl.shutdown ()
         with e -> malformed (Protocol.request_id req) (internal e)));
    `Answered

let conn_loop srv conn =
  reg_count srv.reg "serve.connections";
  let ctl =
    { health = (fun () -> health_fields srv);
      metrics = (fun () -> metrics_fields srv);
      traces = traces_fields srv;
      (* a lone server is a one-worker, non-fleet topology: clients run
         the same discovery against both shapes *)
      topology =
        (fun () ->
          ( false,
            [ { Protocol.worker = Option.value srv.cfg.worker_id ~default:"w0";
                worker_addr = addr_to_string srv.cfg.addr;
                up = true;
                pid = Some (Unix.getpid ());
                restarts = 0 } ] ));
      reload =
        (fun path ->
          Result.map (fun epoch -> [ ("epoch", Json.Int epoch) ]) (do_reload srv ~path));
      save = (fun () -> save_snapshot srv);
      shutdown = (fun () -> initiate_shutdown srv);
      evaluate =
        (fun req ->
          admit srv conn req;
          None);
      count =
        (function
        | "malformed" -> reg_count srv.reg "serve.malformed"
        | op ->
          if op <> "ping" then reg_count srv.reg "serve.requests";
          reg_lcount srv.reg "fq_requests_total" [ ("op", op) ]) }
  in
  let r = reader ~max_bytes:srv.cfg.max_line_bytes conn.c_fd in
  let rec go () =
    match answer ctl r ~refills:max_int ~send:(send srv conn) with
    | `Eof -> ()
    | `Answered | `Pending -> go ()
  in
  go ();
  Mutex.protect conn.c_olock (fun () -> conn.c_closed <- true)

(* -------------------------------- boot ------------------------------ *)

let sockaddr = function
  | Unix_path path -> Unix.ADDR_UNIX path
  | Tcp port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let bind_socket addr =
  (match addr with
  | Unix_path path when Sys.file_exists path -> (
    try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ());
  let fd = Unix.socket (Unix.domain_of_sockaddr (sockaddr addr)) Unix.SOCK_STREAM 0 in
  try
    (match addr with Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true | Unix_path _ -> ());
    Unix.bind fd (sockaddr addr);
    Unix.listen fd 64;
    Ok fd
  with Unix.Unix_error (e, _, _) ->
    Unix.close fd;
    Error
      (Printf.sprintf "cannot bind %s: %s"
         (match addr with Unix_path path -> path | Tcp port -> "port " ^ string_of_int port)
         (Unix.error_message e))

let unbind addr fd =
  (try Unix.close fd with Unix.Unix_error _ -> ());
  match addr with
  | Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

type signals = { term : bool Atomic.t; hup : bool Atomic.t; usr1 : bool Atomic.t }

(* SIGTERM drains, SIGHUP reloads, SIGUSR1 writes the snapshot; each
   handler only raises a flag the owning loop polls on its tick.  A peer
   that hangs up mid-write must not kill the process: SIGPIPE is
   ignored and the write fails with EPIPE instead. *)
let trap_signals () =
  let sigs = { term = Atomic.make false; hup = Atomic.make false; usr1 = Atomic.make false } in
  let trap signal flag =
    try Sys.set_signal signal (Sys.Signal_handle (fun _ -> Atomic.set flag true))
    with Invalid_argument _ -> ()
  in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  trap Sys.sigterm sigs.term;
  trap Sys.sighup sigs.hup;
  trap Sys.sigusr1 sigs.usr1;
  sigs

(* Warm boot: what the snapshot replayed, [None] when there is no
   snapshot file yet. *)
let load_snapshot cache (cfg : config) =
  match cfg.snapshot with
  | Some path when Sys.file_exists path -> Result.map Option.some (Decide_cache.load cache path)
  | _ -> Ok None

let run_bound cfg =
  let sigs = trap_signals () in
  let srv =
    { cfg;
      cache = Decide_cache.create ();
      queue = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      inflight = 0;
      stopping = false;
      current = make_epoch cfg ~id:1 cfg.state;
      state_path = cfg.state_file;
      ema_ms = 0.;
      slots =
        Array.init (max 1 cfg.jobs) (fun i ->
            { s_idx = i; s_join = ignore; s_gen = 0; s_job = None; s_deadline = 0. });
      seat_domains = Stdlib.Domain.recommended_domain_count () > 1;
      jlock = Mutex.create ();
      journal = None;
      japps = Atomic.make 0;
      needs_compact = Atomic.make false;
      reg = registry_create ();
      req_seq = Atomic.make 0;
      tlock = Mutex.create ();
      trace_ring = [];
      slog_lock = Mutex.create ();
      last_metrics_dump = 0.;
      last_save = Atomic.make 0. }
  in
  Result.bind (load_snapshot srv.cache cfg) @@ fun loaded ->
  (* The journal replays after the snapshot, so its records (which
     postdate the snapshot) land in front of it; its torn tail is cut so
     the append position sits after a complete record. *)
  let journal_boot =
    match journal_path cfg with
    | None -> Ok None
    | Some jpath ->
      Result.bind (Decide_cache.load ~truncate:true srv.cache jpath) @@ fun r ->
      Result.map (fun j -> Some (j, r)) (Journal.open_append jpath)
  in
  Result.bind journal_boot @@ fun jopened ->
  Result.bind (bind_socket cfg.addr) @@ fun listen_fd ->
  Option.iter
    (fun { Journal.applied; skipped; truncated_bytes } ->
      logf cfg "warm start, %d cached verdicts loaded%s" applied
        (if skipped + truncated_bytes = 0 then ""
         else Printf.sprintf " (%d skipped, %d torn bytes)" skipped truncated_bytes))
    loaded;
  (match jopened with
  | Some (j, { Journal.applied; skipped; truncated_bytes }) ->
    srv.journal <- Some j;
    Decide_cache.set_on_insert srv.cache (Some (fun key value -> journal_record srv key value));
    if applied + skipped + truncated_bytes > 0 then
      logf cfg "journal recovered %d records (%d skipped, %d torn bytes) from %s" applied
        skipped truncated_bytes (Journal.path j)
  | None -> ());
  logf cfg "listening on %s (%d workers, %d in-flight cap)" (addr_to_string cfg.addr) cfg.jobs
    cfg.max_inflight;
  Array.iter (fun slot -> spawn_seat srv slot slot.s_gen) srv.slots;
  let conns = ref [] in
  let next_conn = ref 0 in
  let stopping () = Mutex.protect srv.lock (fun () -> srv.stopping) in
  while not (stopping ()) do
    (* SIGTERM is the graceful drain: stop admitting, answer everything
       already accepted, fold the journal into the snapshot, exit 0 —
       the same path a ctl shutdown takes.  kill -9 is the crash path
       the journal covers. *)
    if Atomic.exchange sigs.term false then begin
      logf cfg "SIGTERM received, draining";
      initiate_shutdown srv
    end;
    if Atomic.exchange sigs.usr1 false then save_snapshot_logged srv ~why:"SIGUSR1";
    if Atomic.exchange sigs.hup false then
      (match do_reload srv ~path:None with
      | Ok _ -> ()
      | Error e -> logf cfg "SIGHUP reload failed: %s" e);
    if Atomic.exchange srv.needs_compact false then compact srv;
    scan_watchdog srv;
    (* periodic atomic metrics dump: at most one write per 2s tick window *)
    (if cfg.metrics_file <> None then
       let nw = now_ms () in
       if nw -. srv.last_metrics_dump >= 2000. then begin
         srv.last_metrics_dump <- nw;
         dump_metrics_file srv
       end);
    match Unix.select [ listen_fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept listen_fd with
      | fd, _ ->
        incr next_conn;
        let conn =
          { c_id = !next_conn;
            c_fd = fd;
            c_oc = Unix.out_channel_of_descr fd;
            c_olock = Mutex.create ();
            c_inflight = 0;
            c_closed = false }
        in
        let thread = Thread.create (fun () -> conn_loop srv conn) () in
        conns := (conn, thread) :: !conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* graceful shutdown: stop accepting, drain admitted work (keeping the
     watchdog alive so a wedged worker cannot hang the drain), join the
     pool, snapshot, then unblock the reader threads and close every
     connection *)
  let rec drain () =
    scan_watchdog srv;
    let idle =
      Mutex.protect srv.lock (fun () ->
          Queue.is_empty srv.queue
          && Array.for_all (fun s -> match s.s_job with None -> true | Some _ -> false) srv.slots)
    in
    if not idle then begin
      Thread.delay 0.05;
      drain ()
    end
  in
  drain ();
  Array.iter (fun slot -> (Mutex.protect srv.lock (fun () -> slot.s_join)) ()) srv.slots;
  save_snapshot_logged srv ~why:"shutdown";
  dump_metrics_file srv;
  (Mutex.lock srv.jlock;
   Fun.protect ~finally:(fun () -> Mutex.unlock srv.jlock) @@ fun () ->
   match srv.journal with
   | Some j ->
     Journal.sync j;
     Journal.close j;
     srv.journal <- None
   | None -> ());
  Decide_cache.set_on_insert srv.cache None;
  List.iter
    (fun (conn, thread) ->
      (try Unix.shutdown conn.c_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      Thread.join thread;
      (try Unix.close conn.c_fd with Unix.Unix_error _ -> ()))
    !conns;
  unbind cfg.addr listen_fd;
  let served = reg_get srv.reg "serve.requests" in
  let rejected = reg_get srv.reg "serve.rejected" in
  logf cfg
    "shutdown complete — %d requests served (%d complete, %d partial, %d unsupported, %d \
     error), %d rejected"
    served
    (reg_get srv.reg "serve.eval.complete")
    (reg_get srv.reg "serve.eval.partial")
    (reg_get srv.reg "serve.eval.unsupported")
    (reg_get srv.reg "serve.eval.error")
    rejected;
  Ok 0

let run cfg =
  match List.assoc_opt cfg.default_domain (all_domains cfg) with
  | None -> Error (Printf.sprintf "unknown default domain %S" cfg.default_domain)
  | Some _ -> run_bound cfg
