(** The executable content of Theorem 3.3: {e relative safety over the
    trace domain [T] is undecidable}, by reduction from the halting
    problem — "[M(x)] is finite in the state [c] iff [M] stops starting
    from the value of [c]".

    The reduction maps an instance [(M, w)] of the halting problem to the
    relative-safety instance [(P(M, @c, x), state with c ↦ w)]:

    - if [M] halts on [w] in [n] steps, the query's answer is the finite
      set of its [n+1] traces;
    - if [M] diverges on [w], every prefix of the infinite computation is
      an answer tuple, so the answer is infinite.

    A decision procedure for relative safety over [T] would therefore
    solve the halting problem. The checkers here verify both directions on
    bounded instances, with the finite direction certified by the
    Section 1.1 enumeration algorithm. *)

val instance :
  machine:Fq_words.Word.t ->
  input:Fq_words.Word.t ->
  Fq_logic.Formula.t * Fq_db.State.t
(** The relative-safety instance for a halting-problem instance. *)

type evidence =
  | Halts of { steps : int; answer : Fq_db.Relation.t }
      (** [M] halts on [w]; the certified finite answer has [steps + 1]
          tuples. *)
  | Diverges_beyond of { trace_count : int }
      (** [M] ran past the budget; at least [trace_count] answer tuples
          exist (the answer is infinite if [M] truly diverges). *)

val check :
  budget:Fq_core.Budget.t ->
  machine:Fq_words.Word.t ->
  input:Fq_words.Word.t ->
  (evidence, string) result
(** Runs both sides of the reduction on a concrete instance: simulates the
    machine under [budget], and in the halting case certifies the
    finite answer via {!Fq_eval.Enumerate.certified_complete} (the answer
    being the trace set computed directly). *)
