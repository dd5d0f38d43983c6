(** Memoized decision cache: repeated [D.decide] calls on
    alpha-equivalent closed formulas hit a hash table keyed by the
    alpha-normalized formula ({!Fq_logic.Formula.alpha_normalize}).

    Caching is sound because a domain's theory is fixed: a sentence's
    truth value never changes, and alpha-equivalent sentences have the
    same truth value. Fragment errors are cached too (a formula outside
    the domain's language stays outside it) — but budget trips escaping
    through the string-error channel are {e not}: they describe the
    ambient budget at the time, not the formula, and caching one would
    poison every later retry or resumed scan with a stale failure.

    A cache is safe to share between the worker domains of a
    {!Fq_core.Supervisor} pool: the table is mutex-guarded, while the
    underlying decision runs outside the lock (two workers may race on
    the same miss; both compute the same theory-determined verdict, so
    the duplicate work is bounded and the result is unchanged). *)

type t

type stats = { hits : int; misses : int; entries : int; evictions : int }

val create : unit -> t
(** An empty cache that retains at most 4,096 entries — the least
    recently used entry is evicted when an insertion would exceed it.
    Lookups count as uses, so hot sentences survive long enumerations
    even when the candidate stream churns the tail. *)

val stats : t -> stats
(** Per-instance counts.  Hits, misses and evictions are also mirrored
    into the telemetry counters [decide_cache.hits]/[decide_cache.misses]
    /[decide_cache.evictions] (which aggregate across caches while a
    {!Fq_core.Telemetry} recording is active); this accessor remains as a
    thin per-cache view. *)

val hit_rate : stats -> float
(** Fraction of lookups served from the cache; [0.] when no lookups. *)

val set_on_insert : t -> (Fq_logic.Formula.t -> (bool, string) result -> unit) option -> unit
(** [set_on_insert c (Some hook)] makes {!decide} call
    [hook key verdict] once per {e fresh} cacheable fill — after the
    cache lock is released, and never for hits, racing refills, or
    {!restore}/{!load}.  This is the durability tap: [fq serve] hooks a
    journal append here, so every verdict the cache learns is on disk
    before the crash that would otherwise forfeit it.  The hook runs on
    the deciding thread and must not call back into the cache. *)

(** {1 Snapshots} — warm-start serialization for [fq serve].

    A snapshot is a compacted {!Journal}: the [fq-decide-journal 1]
    header and one CRC-framed {!entry_to_line} record per cached
    verdict, least recently used first.  Budget trips are never in the
    table, so every snapshot entry is a theory-determined eternal truth
    — loading one into a fresh cache is sound for the same domain
    theory, and a restarted server answers previously-seen sentences
    without re-paying quantifier elimination. *)

val save : t -> string -> (int, string) result
(** [save c path] writes the snapshot with {!Journal.write} and returns
    the number of entries written.  A failed save — including one
    injected at the ["decide_cache.snapshot.save"] fault site — leaves
    any existing snapshot at [path] byte-identical: the rename is the
    only publish. *)

val load : ?truncate:bool -> t -> string -> (Journal.recovery, string) result
(** [load c path] replays a snapshot or journal into [c] with
    {!Journal.recover}, so both get the same recovery rules: a torn tail
    or a record that fails its CRC is dropped and the rest still load.
    Records replay in file order, each refreshed to the MRU front, so a
    snapshot's recency order is restored and a journal loaded after it
    wins the refresh; the capacity bound applies.  A record whose
    payload is not a cacheable entry counts as [skipped].  A missing
    file loads nothing; [Error] only on a wrong header or an unreadable
    file.  [truncate] (default [false]: fleet workers share the
    snapshot read-only) cuts a torn tail from the file. *)

val entry_to_line : Fq_logic.Formula.t -> (bool, string) result -> string
(** One cached verdict rendered as a single line (no trailing newline):
    [ok\tBOOL\tFORMULA] or [err\tESCAPED\tFORMULA] — the payload of
    every snapshot and journal record. *)

val entry_of_line : string -> (Fq_logic.Formula.t * (bool, string) result, string) result
(** Parse an {!entry_to_line} rendering back into an (alpha-normalized
    key, verdict) pair. *)

val restore : t -> Fq_logic.Formula.t -> (bool, string) result -> unit
(** [restore c key value] inserts one entry at the MRU front (refreshing
    it in place if present) without firing the {!set_on_insert} hook —
    the replay primitive behind {!load}.
    [key] must already be alpha-normalized ({!entry_of_line} output
    is). *)

val decide : t -> Domain.t -> Fq_logic.Formula.t -> (bool, string) result
(** [decide cache d f] returns the cached verdict for any sentence
    alpha-equivalent to [f], calling [D.decide] on a miss. *)

val domain : t -> Domain.t -> Domain.t
(** [domain cache d] is [d] with its [decide] routed through the cache —
    a drop-in replacement wherever a {!Domain.t} is consumed
    (e.g. {!Fq_eval.Enumerate.run_budgeted}). *)

val guarded :
  t -> breaker:Fq_core.Supervisor.Breaker.t -> name:string -> Domain.t -> Domain.t
(** [guarded cache ~breaker ~name d] is [domain cache d] behind a
    circuit breaker, as [fq batch] and [fq serve] evaluate: while the
    breaker is open, decide answers
    ["unsupported: circuit open: NAME decision procedure cooling down"];
    a crash, an [unsupported:] error or any unclassified error counts as
    a breaker failure, a budget trip does not — whether [decide] returns
    it as an error or raises it as {!Fq_core.Budget.Exhausted}. *)
