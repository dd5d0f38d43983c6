(** Unnamed (positional) relational algebra over {!Relation}.

    Columns are addressed by 0-based position. This is the compilation
    target of the safe-range relational calculus (see
    {!Fq_safety.Algebra_translate}); an algebra plan evaluates in time
    polynomial in the database, in contrast to the generic enumeration
    evaluator of Section 1.1.

    Selections may invoke {e domain} predicates (such as [<] over the
    naturals) through the [domain_pred] callback of {!eval}; the algebra
    itself stays independent of any particular domain. *)

type arg =
  | Col of int
  | Const of Value.t

type cond =
  | Eq of arg * arg
  | Domain_pred of string * arg list  (** e.g. [Domain_pred ("<", [Col 0; Const 3])] *)
  | Not of cond
  | And_c of cond * cond
  | Or_c of cond * cond

type t =
  | Rel of string  (** a scheme relation *)
  | Lit of Relation.t  (** a literal (e.g. the active domain as a unary relation) *)
  | Select of cond * t
  | Project of int list * t  (** keep the listed columns, in order *)
  | Product of t * t
  | Join of (int * int) list * t * t
      (** [Join (pairs, p, q)] is the equijoin: the tuples of
          [Product (p, q)] whose column [i] (of [p]) equals column [j]
          (of [q]) for every [(i, j)] in [pairs]. Semantically equal to
          the corresponding [Select] over [Product]; executed as a hash
          join ({!Columnar.equijoin}). *)
  | Union of t * t
  | Diff of t * t

val arity_check : schema:Schema.t -> t -> (int, string) result
(** Static arity of the plan, or an error describing the first
    ill-formed node (unknown relation, column out of range, arity
    mismatch in [Union]/[Diff]). *)

val eval :
  state:State.t ->
  ?budget:Fq_core.Budget.t ->
  ?domain_pred:(string -> Value.t list -> bool) ->
  t ->
  Relation.t
(** Evaluates a plan bottom-up, batch-at-a-time over the state's
    dictionary-encoded {!Columnar} image. [domain_pred] decides domain
    predicate atoms in selections (defaults to rejecting every such atom
    with [Invalid_argument]). Every operator charges one work unit plus
    the cardinality of its result to [budget] — or, when no explicit
    budget is given, to the ambient {!Fq_core.Budget} if one is installed
    — and an explicit budget's cardinality cap applies to every
    intermediate.

    A selection anchored at a constant over a base relation, and a join
    with a base relation on either side, find their rows through
    per-column indexes built on first use and cached with the state's
    image (see {!Columnar.index}). The index changes only the time: the
    base relation still settles, and is charged, as if scanned. The span's
    [index_probes] attribute counts the nodes that used an index.

    Each operator settles at the fault site [relalg.node], children
    right-to-left. Answers and budget verdicts are property-tested against
    a naive tuple-list oracle in [test/test_columnar.ml]: the plan answers
    iff the sum over its nodes of [1 + |node|] fits the fuel.
    @raise Invalid_argument on an ill-formed plan (see {!arity_check}).
    @raise Fq_core.Budget.Exhausted when the governing budget runs dry;
    front-ends recover with {!Fq_core.Budget.guard}. *)

val fingerprint : t -> string
(** Stable 8-hex-digit structural digest of a plan, computed bottom-up
    over operators, conditions and literal contents. While a telemetry
    recording is active, {!eval} records each node's output cardinality
    into the histogram [relalg.node_card.<fingerprint subplan>] — keyed by
    the {e post-optimization} node, which is what the optimizer's stats
    profile matches against. *)

val card_metric : string
(** ["relalg.node_card"] — the aggregate per-node output-cardinality
    histogram. *)

val node_metric : string -> string
(** [node_metric fp] is the histogram name attributing output cardinality
    to the plan node with fingerprint [fp]. *)

val size : t -> int
(** Number of operator nodes, for benchmarks and tests. *)

val pp : Format.formatter -> t -> unit
