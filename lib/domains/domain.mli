(** The abstraction the paper calls a {e domain}: a countable infinite set
    together with interpreted functions and relations (Section 1), packaged
    with the two effectiveness properties the paper singles out:

    - {e recursiveness}: [eval_pred]/[eval_fun] compute the interpreted
      symbols (Section 1.1's first requirement);
    - {e decidability}: [decide] decides pure-domain sentences (the second
      requirement — "this property is, in effect, equivalent to the
      ability to answer queries effectively").

    Domains are first-class modules over the universal value type
    {!Fq_db.Value.t}. *)

module type S = sig
  val name : string

  val signature : Fq_logic.Signature.t
  (** The interpreted predicate and function symbols (equality excluded:
      it is always available). *)

  val member : Fq_db.Value.t -> bool
  (** Membership in the domain's universe. *)

  val constant : string -> Fq_db.Value.t option
  (** Interpretation of a constant symbol ([None] when the symbol denotes
      no element — e.g. a malformed numeral). Scheme constants ([@]-named)
      are interpreted by states, never by domains. *)

  val const_name : Fq_db.Value.t -> string
  (** A constant symbol denoting the given element — the paper's standing
      assumption "we have constants for all the elements of the domain".
      Inverse of {!constant} on members. *)

  val eval_fun : string -> Fq_db.Value.t list -> Fq_db.Value.t option
  (** Computes a domain function on member values; [None] if the symbol or
      arity is unknown. *)

  val eval_pred : string -> Fq_db.Value.t list -> bool option
  (** Computes a domain predicate on member values; [None] if unknown.
      Equality need not be handled here. *)

  val enumerate : unit -> Fq_db.Value.t Seq.t
  (** A recursive enumeration of the (countable) universe, used by the
      Section 1.1 query-answering algorithm. *)

  val seeds : Fq_db.Value.t list -> Fq_db.Value.t Seq.t
  (** Promising candidate answers derived from the given active-domain
      values, tried by the Section 1.1 algorithm before the plain
      enumeration. Purely an ordering hint — correctness never depends on
      it — but essential in practice for domains like [T], where the
      answers to [P(M, c, x)] (trace words) appear astronomically late in
      the word enumeration. Most domains return the empty sequence. *)

  val decide : Fq_logic.Formula.t -> (bool, string) result
  (** Decides a pure-domain {e sentence}. [Error] on non-sentences,
      formulas outside the signature, or (for domains without a decidable
      theory) whenever the procedure cannot answer. *)
end

type t = (module S)

(** {1 Generic helpers} *)

val eval_ground : t -> Fq_logic.Term.t -> (Fq_db.Value.t, string) result
(** Evaluates a ground term: constants via [constant], functions via
    [eval_fun]. *)

val holds_qf : t -> env:(string * Fq_db.Value.t) list -> Fq_logic.Formula.t -> (bool, string) result
(** Evaluates a quantifier-free formula under a variable assignment, using
    the domain's recursive predicates and functions. This is the
    "recursiveness" side of the domain: no decision procedure involved.
    [Error] on quantifiers, database atoms, or unknown symbols. *)

val with_decide : t -> (Fq_logic.Formula.t -> (bool, string) result) -> t
(** [with_decide d decide] is [d] with its decision procedure replaced;
    every other component forwards.  The hook for wrapping a domain in a
    cache, a circuit breaker ({!Fq_core.Supervisor.Breaker}), or a fault
    shim without touching the domain itself. *)
