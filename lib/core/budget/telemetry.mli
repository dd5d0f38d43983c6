(** Structured tracing and metrics.

    The engine's three nontrivial runtime behaviours — the resilient
    degradation chain, the governor's fuel/deadline accounting, and the QE
    rewrite loops — are invisible from the outside.  This module makes them
    observable without perturbing them: hierarchical {e spans}
    ({!with_span}), monotonic {e counters} ({!count}) and {e histograms}
    ({!observe}), recorded only while a collector is installed.

    {b Hot-path contract.}  Every instrumentation entry point first reads
    one thread-local slot ({!Thread_local.get}); when telemetry is off
    (the default) that read and one branch are the entire cost, so
    engines instrument their inner loops freely.  Section A4 of the
    bench harness ([dune exec bench/main.exe -- quick]) measures the
    overhead of the disabled path and of the no-op sink against a 2%
    bound.

    {b Budget attribution.}  Spans read {!Budget.global_ticks} — the
    thread's tick clock every budget advances, running while {!record}
    is — at open and close, so a span's [ticks] is exactly the fuel
    charged while it was open and [self_ticks] is the part no child span
    accounts for.  Fuel is thereby charged to the {e innermost open
    span}: a trace shows which QE loop or algebra node spent the
    budget. *)

type value = Int of int | Float of float | Bool of bool | Str of string

type span = {
  name : string;
  attrs : (string * value) list;
  start_ms : float;  (** offset from the start of the recording *)
  dur_ms : float;
  self_ms : float;  (** [dur_ms] minus the children's [dur_ms] *)
  ticks : int;  (** budget ticks charged while the span was open *)
  self_ticks : int;  (** [ticks] minus the children's [ticks] *)
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
(** One {!Aggregate.hist} per key: the serve registry merges a report's
    histograms bucket-wise. *)

type report = {
  roots : span list;
  counters : (string * int) list;  (** sorted by name *)
  histograms : (string * histogram) list;  (** sorted by name *)
  dropped_spans : int;  (** spans not recorded because the cap was hit *)
  evicted_histograms : int;
      (** cold histogram keys evicted past the key-space cap *)
  trace_id : string option;  (** set by {!set_trace_id}, else [None] *)
}

(** {1 Instrumentation points}

    All of these are a single branch when no collector is installed, and
    cheap (no syscalls beyond one [gettimeofday] per span) when one is. *)

val enabled : unit -> bool
(** [true] iff a collector (no-op or recording) is installed. *)

val with_span : ?attrs:(string * value) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span.  The span closes when [f]
    returns or raises (the exception propagates).  Nested calls build the
    tree. *)

val set_attr : string -> value -> unit
(** Attach an attribute to the innermost open span; no-op when none. *)

val count : ?n:int -> string -> unit
(** Bump a named monotonic counter by [n] (default 1). *)

val observe : string -> float -> unit
(** Record one observation into a named histogram.  The histogram key
    space is bounded: past the collector's cap (see {!record}) the least
    recently observed key is evicted (its cell dropped, the eviction
    tallied in [evicted_histograms]) so adversarial streams of fresh
    names — e.g. per-fingerprint [relalg.node_card.<fp>] under a hostile
    query mix — cannot grow a collector without limit. *)

val set_trace_id : string -> unit
(** Stamp the ambient recording collector with a request trace id; the
    id surfaces as [trace_id] in the report.  No-op when no recording
    collector is installed.  Last write wins. *)

val trace_id : unit -> string option
(** The ambient collector's trace id, if a collector is installed and
    one was stamped. *)

(** {1 Recording} *)

val record : ?max_spans:int -> ?max_histos:int -> (unit -> 'a) -> 'a * report
(** Run a thunk with a recording collector installed (restoring the
    previous one after) and return its result with the recorded report.
    At most [max_spans] (default 20_000) spans are kept; further
    [with_span]s still run their thunks but are tallied in
    [dropped_spans].  At most [max_histos] (default 1024; [<= 0] =
    unbounded) histogram keys are kept, LRU-evicting past the cap into
    [evicted_histograms]. *)

val with_noop : (unit -> 'a) -> 'a
(** Run a thunk with the no-op sink installed: every instrumentation point
    is reached ([enabled () = true]) but events are discarded immediately.
    Exists so the observation path itself can be tested and benchmarked. *)

(** {1 Analysis} *)

val total_ticks : report -> int
(** Sum of the root spans' [ticks]. *)

val attribution : report -> (string * int) list
(** Self-tick totals aggregated by span name, descending (ties by name) —
    the "where did the budget go" table. *)

(** Sibling spans of the same name collapsed into one node (the
    [pp_pretty] aggregation), also used to keep sampled-trace payloads
    compact in [fq serve]. *)
type rollup = {
  r_name : string;
  r_count : int;
  r_ticks : int;
  r_self_ticks : int;
  r_dur_ms : float;
  r_attrs : (string * value) list;  (** only when the group is a singleton *)
  r_children : rollup list;
}

val rollup : span list -> rollup list

(** {1 Sinks}

    Renderers over a finished {!report}.  [pp_pretty] aggregates sibling
    spans of the same name ([name xN]) so exhaustive traces stay readable;
    the machine sinks keep every span. *)

val pp_value : Format.formatter -> value -> unit

val pp_pretty : Format.formatter -> report -> unit
(** Human tree: one line per (aggregated) span with total/self ticks and
    wall-clock. *)

val pp_metrics : Format.formatter -> report -> unit
(** Counters and histograms, one per line. *)

val pp_jsonl : Format.formatter -> report -> unit
(** JSON lines: one object per span (pre-order, with [depth]), then one per
    counter and histogram. *)

val pp_chrome : Format.formatter -> report -> unit
(** Chrome [trace_event] JSON array, loadable in [about://tracing] or
    Perfetto: spans as complete ("ph":"X") events with ticks and attrs in
    [args], counters as one trailing instant event. *)
