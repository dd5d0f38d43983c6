(** The evaluation outcome — the system's one public verdict type.

    Theorems 3.1/3.3 rule out an effective syntax for the finite queries,
    so no boundary of this system can promise "finite answer or syntax
    error": every evaluation surface (the [fq eval] CLI, the [fq batch]
    runner, the [fq serve] wire protocol) must speak the same {e semantic}
    taxonomy instead — a complete certified answer, a partial answer with
    resume evidence, or a structured refusal.  This module is that
    taxonomy made first-class: one record, one JSON schema, one
    exit-code mapping, shared verbatim by all three front ends.

    {b JSON schema} (stable; version bumps add fields, never repurpose):
    {v
    {"status":"complete","tier":TIER,"answer":REL,
     "usage":{"ticks":N,"elapsed_ms":F},"attempts":[ATTEMPT...]}
    {"status":"partial","reason":REASON,"tuples":REL,
     "resume":{"seen":N,"found":REL},"usage":...,"attempts":...}
    {"status":"unsupported","reason":REASON,"usage":...,"attempts":...}
    {"status":"error","reason":REASON,"usage":...,"attempts":...}

    REL     = {"arity":N,"rows":[[VALUE,...],...]}   (row-sorted)
    VALUE   = JSON number (integers, bigint-safe) | JSON string
    ATTEMPT = {"tier":TIER,"reason":WHY}             (tiers that passed)
    REASON  = the stable Budget.error_string rendering
    v} *)

module Budget = Fq_core.Budget
module Json = Fq_core.Json

type resume = { seen : int; found : Fq_db.Relation.t }
(** Resume evidence of an interrupted scan: candidates consumed and
    tuples found.  Round-trips through JSON, so a client of [fq serve]
    can carry its own scan position across requests (re-entrant query
    sessions). *)

type verdict =
  | Complete of { answer : Fq_db.Relation.t; tier : string }
      (** [tier] names the answering tier of {!Query}'s ladder. *)
  | Partial of { tuples : Fq_db.Relation.t; reason : Budget.failure; resume : resume }
  | Failed of { reason : string }
      (** Classified further by {!status}: a reason parsing as
          [Budget.Unsupported] is ["unsupported"], the rest ["error"]. *)

type t = {
  verdict : verdict;
  usage : Budget.usage;  (** ticks charged and wall-clock spent *)
  attempts : (string * string) list;
      (** tiers tried before the answering one, with why each passed *)
}

val failed : string -> t
(** A refusal that spent nothing: a parse error, a crash, a watchdog
    recycle. *)

(** {1 Exit codes} — the one place the 0/3/4 mapping lives. *)

val exit_partial : int
(** [3] *)

val exit_unsupported : int
(** [4] *)

val exit_code : t -> int
(** [0] complete, [3] partial, [4] unsupported, [1] other error. *)

val exit_of_error : string -> int
(** The same classification for bare error strings on paths that never
    produce a full outcome (a parse error, an I/O failure): [4] when the
    string parses as [Budget.Unsupported], [3] for other budget failures,
    [1] otherwise. *)

val status : t -> string
(** ["complete"], ["partial"], ["unsupported"], or ["error"]. *)

(** {1 JSON} *)

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json} on its range ([to_json] after [of_json] is the
    identity up to field order). *)

val resume_to_json : resume -> Json.t

val resume_of_json : Json.t -> (resume, string) result

val relation_to_json : Fq_db.Relation.t -> Json.t

val relation_of_json : Json.t -> (Fq_db.Relation.t, string) result

val pp : Format.formatter -> t -> unit
(** The human rendering used by [fq eval --verbose]. *)
