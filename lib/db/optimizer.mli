(** Plan optimizer for {!Relalg}: selection pushdown, hash-join
    introduction, projection pushdown, and trivial-node pruning.

    The optimizer is {e semantics-preserving}: for every well-formed plan
    [p] and state, [eval (optimize p) = eval p] (property-tested with
    QCheck). On an ill-formed plan — or one mentioning a relation whose
    arity [arity_of] does not know — the plan is returned unchanged
    rather than rejected, so optimization is always safe to apply.

    The central rewrite is join introduction:
    [Select (Eq (Col i, Col j), Product (p, q))] becomes
    [Join ([(i, j - arity p)], p, q)], executed as a hash join instead of
    a materialized cartesian product — the difference between O(|p|·|q|)
    and O(|p| + |q| + output). *)

(** Cardinality statistics feeding the cost-based passes: base-relation
    cardinalities and per-column distinct counts (usually read off a
    {!State}), plus an optional {e profile} of observed per-node output
    cardinalities keyed by plan {!Relalg.fingerprint} — the histograms a
    telemetry recording collects as [relalg.node_card.<fp>].  A profiled
    cardinality always overrides the estimation formula for that exact
    subplan, closing the loop from executed plans back into the
    optimizer. *)
module Stats : sig
  type t

  val none : t
  (** No information: every estimate falls back to defaults. *)

  val of_state : State.t -> t
  (** Exact base cardinalities and (lazily counted, memoized) per-column
      distinct values of the state's relations; empty profile.  The memo
      tables are mutex-guarded, so one instance is safe to share across
      the worker domains of a batch run or the requests of a serve
      session. *)

  val with_profile : (string * float) list -> t -> t
  (** Add [(fingerprint, observed cardinality)] entries (later entries
      win) to a copy of [t]. *)

  val of_profile : (string * float) list -> t
  (** {!none} + {!with_profile}: profile-only statistics. *)
end

val estimate : Stats.t -> arity_of:(string -> int option) -> Relalg.t -> float
(** Estimated output cardinality of a plan: profiled value when the
    plan's fingerprint is in the stats profile, otherwise textbook
    formulas — equijoins divide by the larger distinct count of the key
    columns, point selections by the column's distinct count, generic
    equalities keep 10%, domain predicates 50%.
    @raise Unknown_arity on a [Rel] leaf [arity_of] cannot resolve. *)

val est_vs_observed :
  Stats.t ->
  arity_of:(string -> int option) ->
  Fq_core.Telemetry.report ->
  Relalg.t ->
  (string * Relalg.t * float option * Fq_core.Aggregate.hist option) list
(** Each distinct node of a plan once, pre-order: its fingerprint, the
    node, its {!estimate} ([None] when that raises), and the
    [relalg.node_card.<fp>] histogram the recording observed for it —
    the cost table of [fq explain] and the slow-query log's per-node
    evidence. *)

val optimize : ?stats:Stats.t -> arity_of:(string -> int option) -> Relalg.t -> Relalg.t
(** [arity_of] resolves the arity of [Rel] leaves (typically
    {!Schema.arity} partially applied).

    With [?stats], two cost-based passes run after the rewrite pipeline:

    - {e join ordering}: each maximal [Join]/[Product] spine is
      flattened and rebuilt greedily left-deep by ascending estimated
      intermediate cardinality — the accumulated prefix stays the probe
      side, each added factor a (preferably small) hash build side — with
      a final permutation projection restoring the original column
      order.  The new order is kept only when it beats the original
      spine's estimated intermediate volume by ≥ 5%, so noisy statistics
      do not churn working plans;
    - {e predicate placement}: a domain-predicate filter that the
      pipeline pushed below a join is hoisted back above it when the
      stats say the join output is under half the filtered input — the
      per-row domain callback then runs on the smaller side of the
      materialize-vs-pushdown trade.

    Without [?stats] the result is exactly the rewrite pipeline's. *)

val optimize_for : ?stats:Stats.t -> schema:Schema.t -> Relalg.t -> Relalg.t

val arity : arity_of:(string -> int option) -> Relalg.t -> int
(** Static arity of a plan, assuming well-formedness.
    @raise Unknown_arity on a [Rel] leaf [arity_of] cannot resolve. *)

exception Unknown_arity of string
