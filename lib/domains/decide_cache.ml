(* Memoized decision cache.

   The Section 1.1 enumeration algorithm re-decides closely related
   closed formulas over and over: the candidate test ϕ(ā) recurs whenever
   the enumeration revisits a tuple (the active domain is scanned first
   and reappears in the domain enumeration), and harness code decides the
   same completeness sentences across runs. Keys are alpha-normalized
   before lookup, so any two alpha-equivalent sentences share one cache
   line ("hash-consed" up to bound-variable names). *)

module Formula = Fq_logic.Formula

module Lru = Fq_core.Lru.Make (Formula)

type stats = { hits : int; misses : int; entries : int; evictions : int }

type t = {
  table : (bool, string) result Lru.t;
  lock : Mutex.t;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable insert_hook : (Formula.t -> (bool, string) result -> unit) option;
}

(* Retained entries; the least recently used is evicted past it. *)
let capacity = 4096

let create () =
  { table =
      Lru.create capacity ~on_evict:(fun _ _ -> Fq_core.Telemetry.count "decide_cache.evictions");
    lock = Mutex.create ();
    cache_hits = 0;
    cache_misses = 0;
    insert_hook = None }

let set_on_insert c hook = c.insert_hook <- hook

let locked c f =
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) f

let stats c =
  locked c (fun () ->
      { hits = c.cache_hits;
        misses = c.cache_misses;
        entries = Lru.length c.table;
        evictions = Lru.evictions c.table })

let hit_rate { hits; misses; _ } =
  if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses)

(* A verdict is cacheable when it depends only on the domain's theory:
   [Ok _] and "this formula is outside the fragment" are eternal truths,
   but a budget trip ([Budget.Exhausted] escaping through the string-error
   channel) reflects the budget that happened to be ambient at the time.
   Caching one would poison the table — a later, better-funded run (a
   resumed scan, a retry with a fresh fair share) would keep hitting the
   stale trip forever. *)
let budget_trip : Fq_core.Budget.failure -> bool = function
  | Fuel_exhausted | Deadline_exceeded | Cancelled | Oversize _ -> true
  | Unsupported _ -> false

let cacheable = function
  | Ok _ -> true
  | Error e -> not (Option.fold ~none:false ~some:budget_trip (Fq_core.Budget.failure_of_string e))

(* The telemetry counters are the authoritative observable (they aggregate
   across every cache in a recording); the per-instance ints survive so the
   [stats] accessor keeps its historical meaning for existing callers.

   Concurrency: the table is consulted and filled under the mutex, but the
   underlying [D.decide] runs outside it — decisions can be slow (that is
   why they are cached), and holding the lock across one would serialize a
   whole worker pool on the slowest decide.  The price is that two workers
   missing on the same key may both run the decision; both writes store
   the same theory-determined verdict, so last-write-wins is sound. *)
let decide c (module D : Domain.S) f =
  let key = Formula.alpha_normalize f in
  Fq_core.Fault.hit "decide_cache.lookup";
  let cached =
    locked c (fun () ->
        let hit = Lru.find c.table key in
        if Option.is_some hit then c.cache_hits <- c.cache_hits + 1
        else c.cache_misses <- c.cache_misses + 1;
        hit)
  in
  match cached with
  | Some r ->
    Fq_core.Telemetry.count "decide_cache.hits";
    r
  | None ->
    Fq_core.Telemetry.count "decide_cache.misses";
    let r = D.decide f in
    if cacheable r then begin
      (* [false]: a racing worker filled it first; verdicts agree *)
      let fresh = locked c (fun () -> Lru.replace c.table key r) in
      (* Fire the insert hook outside the lock (it may do file I/O —
         the server's journal append) and only for the first fill of a
         key: hits, racing refills and snapshot restores are already
         durable or redundant. *)
      match (fresh, c.insert_hook) with
      | true, Some hook -> hook key r
      | _ -> ()
    end;
    r

(* ----------------------------- snapshots ---------------------------- *)

(* A snapshot is a compacted journal (journal.ml): one CRC-framed record
   per cached verdict, least recently used first, so replaying the file
   in order restores the recency list.  Each payload is [entry_to_line]:
   the alpha-normalized key formula in concrete syntax plus its verdict.
   Only theory-determined verdicts are in the table (budget trips are
   never cached), so every entry is eternally valid — a snapshot taken
   today warms a server booted next month. *)

(* Cache keys are alpha-normalized, and [Formula.alpha_normalize] names
   bound variables with a '%' prefix the lexer cannot read back.  Print
   them under a parseable capture-avoiding renaming instead: [load]
   re-normalizes every key, so any such renaming round-trips to the
   identical key. *)
let parseable_bound f =
  let module T = Fq_logic.Term in
  let free = Formula.free_vars f in
  let starts_with p v =
    String.length v >= String.length p && String.sub v 0 (String.length p) = p
  in
  let rec grow p = if List.exists (starts_with p) free then grow (p ^ "v") else p in
  let prefix = grow "v" in
  let rec term env t =
    match t with
    | T.Var v -> ( match List.assoc_opt v env with Some w -> T.Var w | None -> t)
    | T.Const _ -> t
    | T.App (fn, ts) -> T.App (fn, List.map (term env) ts)
  in
  let rec go env depth f =
    match f with
    | Formula.True | Formula.False -> f
    | Formula.Atom (p, ts) -> Formula.Atom (p, List.map (term env) ts)
    | Formula.Eq (t, u) -> Formula.Eq (term env t, term env u)
    | Formula.Not g -> Formula.Not (go env depth g)
    | Formula.And (g, h) -> Formula.And (go env depth g, go env depth h)
    | Formula.Or (g, h) -> Formula.Or (go env depth g, go env depth h)
    | Formula.Imp (g, h) -> Formula.Imp (go env depth g, go env depth h)
    | Formula.Iff (g, h) -> Formula.Iff (go env depth g, go env depth h)
    | Formula.Exists (v, g) ->
      let w = prefix ^ string_of_int depth in
      Formula.Exists (w, go ((v, w) :: env) (depth + 1) g)
    | Formula.Forall (v, g) ->
      let w = prefix ^ string_of_int depth in
      Formula.Forall (w, go ((v, w) :: env) (depth + 1) g)
  in
  go [] 0 f

let formula_line f =
  let buf = Buffer.create 128 in
  let fmt = Format.formatter_of_buffer buf in
  Format.pp_set_margin fmt max_int;
  Format.fprintf fmt "%a@?" Formula.pp (parseable_bound f);
  Buffer.contents buf

(* One cached verdict as a single line (no trailing newline) — the
   payload of every snapshot and journal record.  The
   formula is the alpha-normalized key in concrete syntax on an
   infinite-margin formatter; error messages are String.escaped, so a
   rendered entry can never contain '\n'. *)
let entry_to_line key value =
  match value with
  | Ok b -> Printf.sprintf "ok\t%b\t%s" b (formula_line key)
  | Error e -> Printf.sprintf "err\t%s\t%s" (String.escaped e) (formula_line key)

let entry_of_line line =
  match String.split_on_char '\t' line with
  | [ "ok"; b; formula ] -> (
    match (bool_of_string_opt b, Fq_logic.Parser.formula formula) with
    | Some b, Ok f -> Ok (Formula.alpha_normalize f, Ok b)
    | None, _ -> Error (Printf.sprintf "bad verdict %S" b)
    | _, Error e -> Error e)
  | [ "err"; msg; formula ] -> (
    match Fq_logic.Parser.formula formula with
    | Ok f -> (
      match Scanf.unescaped msg with
      | msg -> Ok (Formula.alpha_normalize f, Error msg)
      | exception Scanf.Scan_failure _ -> Error "bad escape")
    | Error e -> Error e)
  | _ -> Error "expected ok/err entry"

let save c path =
  let entries =
    (* under the lock: consing along MRU -> LRU leaves the list LRU
       first; render outside it *)
    locked c (fun () -> Lru.fold (fun key value acc -> (key, value) :: acc) c.table [])
  in
  match Fq_core.Fault.hit "decide_cache.snapshot.save" with
  | exception e ->
    (* injected before the file is touched: a failed save must leave any
       existing snapshot byte-identical (the rename is the only publish) *)
    Error (Printf.sprintf "snapshot: injected fault: %s" (Printexc.to_string e))
  | () ->
    Result.map
      (fun () -> List.length entries)
      (Journal.write path (List.map (fun (key, value) -> entry_to_line key value) entries))

(* Insert one restored entry at the front of the recency list.  Records
   replay oldest first, so after the last insertion the snapshot's
   recency order is restored exactly, and journal records replayed after
   the snapshot land in front of it; the capacity bound applies as usual
   (an over-capacity snapshot keeps its most recently used entries). *)
let restore c key value = locked c (fun () -> ignore (Lru.replace c.table key value))

(* Replay a snapshot or journal into [c]; a record whose payload is not
   a cacheable entry counts as skipped, like one that fails its CRC. *)
let load ?(truncate = false) c path =
  let rejected = ref 0 in
  let replay payload =
    match entry_of_line payload with
    | Ok (key, value) when cacheable value -> restore c key value
    | Ok _ | Error _ -> incr rejected
  in
  Result.map
    (fun (r : Journal.recovery) ->
      { r with applied = r.applied - !rejected; skipped = r.skipped + !rejected })
    (Journal.recover ~truncate path ~f:replay)

(* A domain whose [decide] consults the cache; every other component is
   forwarded. Lets cache-oblivious code (Enumerate, Relative_safety, the
   finitization check) benefit by a plain domain swap. *)
let domain c ((module D : Domain.S) as d) : Domain.t =
  (module struct
    let name = D.name
    let signature = D.signature
    let member = D.member
    let constant = D.constant
    let const_name = D.const_name
    let eval_fun = D.eval_fun
    let eval_pred = D.eval_pred
    let enumerate = D.enumerate
    let seeds = D.seeds
    let decide f = decide c d f
  end)

(* The breaker sits outside the cache: its circuit-open error describes
   the breaker's state, not the formula, so it never enters the cache.  A
   budget trip, returned or raised, is the governor's verdict on one run,
   not evidence that the procedure is broken, so it is not counted
   against the breaker. *)
let guarded c ~breaker ~name d =
  let module Breaker = Fq_core.Supervisor.Breaker in
  let cached = domain c d in
  let (module C : Domain.S) = cached in
  Domain.with_decide cached (fun f ->
      if not (Breaker.allow breaker) then
        Error
          (Printf.sprintf "unsupported: circuit open: %s decision procedure cooling down" name)
      else
        match C.decide f with
        | Ok _ as r ->
          Breaker.success breaker;
          r
        | Error _ as r ->
          (* every error but a budget trip is one the cache keeps *)
          if cacheable r then Breaker.failure breaker;
          r
        | exception (Fq_core.Budget.Exhausted fl as e) when budget_trip fl -> raise e
        | exception e ->
          Breaker.failure breaker;
          raise e)
