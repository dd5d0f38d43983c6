(** Facade for the Finite Queries library — a reproduction of
    Stolboushkin & Taitslin, {e "Finite Queries Do Not Have Effective
    Syntax"} (PODS'95 / Information and Computation 153, 1999).

    One module per concept, re-exported from the internal libraries:

    {2 Logic}
    - {!Term}, {!Formula}, {!Parser}, {!Transform}, {!Signature} — the
      relational calculus (first-order logic over a domain signature plus
      a database scheme).

    {2 Databases}
    - {!Value}, {!Schema}, {!Tuple-less Relation}, {!State}, {!Relalg} —
      finite relations, database states, and the positional relational
      algebra.

    {2 Domains} (Section 1.1's recursive domains with decidable theories)
    - {!Domain} — the abstraction; {!Eq_domain}, {!Nat_order} ([N_<]),
      {!Nat_succ} ([N']), {!Presburger}, {!Arithmetic}, {!Extension}, and
      the paper's trace domain {!Traces} with its {!Reach} theory and the
      {!Reach_qe} quantifier elimination (Theorem A.3).
    - {!Decide_cache} — memoized decide, persisted in the {!Journal}
      format: a crash-safe write-ahead journal, and snapshots that are
      compacted journals.

    {2 Turing machines} (the substrate of Section 3)
    - {!Machine}, {!Tape}, {!Run}, {!Encode}, {!Trace}, {!Builder}
      (Lemma A.2), {!Classify}, {!Zoo}.

    {2 Evaluation}
    - {!Translate}, {!Enumerate} — the Section 1.1 enumerate-and-decide
      algorithm; {!Algebra_translate} — compilation to algebra for the
      safe-range fragment; {!Query} — the resilient front-end with the
      RANF → active-domain → budgeted-enumeration degradation chain.

    {2 Resource governor and supervision}
    - {!Budget} — step fuel, wall-clock deadline and cooperative
      cancellation unified behind one structured failure type; the
      function that owns a bounded loop takes [~budget] and installs it,
      and every engine beneath reads that ambient budget.
    - {!Fault} — deterministic chaos harness: named injection sites in the
      engine hot paths fire on a pure [(seed, site, hit)] schedule.
    - {!Supervisor} — crash isolation, retry with exponential backoff,
      circuit breaking, and the OCaml 5 domain pool behind [fq batch].

    {2 Query service}
    - {!Json} — a small JSON tree with a parser and printer;
    - {!Outcome} — the Complete/Partial/Unsupported query-outcome
      taxonomy with its stable JSON codec and exit-code mapping, shared
      by [fq eval], [fq batch] and [fq serve];
    - {!Protocol}, {!Server}, {!Client}, {!Fleet} — the [fq serve]
      NDJSON wire protocol, the persistent daemon, a blocking client
      with fleet failover, and the [fq fleet] multi-process supervisor.

    {2 Safety}
    - {!Safe_range}, {!Finitization} (Theorem 2.2), {!Ext_active}
      (Theorems 2.6/2.7), {!Relative_safety} (Theorem 2.5 / 3.3),
      {!Syntax_class}, {!Formula_enum}, {!Diagonal} (Theorem 3.1),
      {!Halting_reduction} (Theorem 3.3).

    {2 Constraint databases} (Section 1.2)
    - {!Rat}, {!Crel}. *)

(* resource governor, telemetry, chaos harness, supervision *)
module Budget = Fq_core.Budget
module Json = Fq_core.Json
module Telemetry = Fq_core.Telemetry
module Aggregate = Fq_core.Aggregate
module Fault = Fq_core.Fault
module Supervisor = Fq_core.Supervisor

(* numerics *)
module Bigint = Fq_numeric.Bigint

(* logic *)
module Term = Fq_logic.Term
module Formula = Fq_logic.Formula
module Parser = Fq_logic.Parser
module Lexer = Fq_logic.Lexer
module Transform = Fq_logic.Transform
module Signature = Fq_logic.Signature

(* words and Turing machines *)
module Word = Fq_words.Word
module Machine = Fq_tm.Machine
module Tape = Fq_tm.Tape
module Run = Fq_tm.Run
module Encode = Fq_tm.Encode
module Trace = Fq_tm.Trace
module Builder = Fq_tm.Builder
module Classify = Fq_tm.Classify
module Combine = Fq_tm.Combine
module Explain = Fq_tm.Explain
module Zoo = Fq_tm.Zoo

(* databases *)
module Value = Fq_db.Value
module Schema = Fq_db.Schema
module Relation = Fq_db.Relation
module State = Fq_db.State
module Relalg = Fq_db.Relalg
module Row = Fq_db.Row
module Optimizer = Fq_db.Optimizer
module Codec = Fq_db.Codec

(* domains *)
module Domain = Fq_domain.Domain
module Decide_cache = Fq_domain.Decide_cache
module Journal = Fq_domain.Journal
module Eq_domain = Fq_domain.Eq_domain
module Nat_order = Fq_domain.Nat_order
module Nat_succ = Fq_domain.Nat_succ
module Presburger = Fq_domain.Presburger
module Arithmetic = Fq_domain.Arithmetic
module Cooper = Fq_domain.Cooper
module Linear_term = Fq_domain.Linear_term
module Extension = Fq_domain.Extension
module Traces = Fq_domain.Traces
module Reach = Fq_domain.Reach
module Reach_qe = Fq_domain.Reach_qe

(* evaluation *)
module Translate = Fq_eval.Translate
module Enumerate = Fq_eval.Enumerate
module Safe_range = Fq_eval.Safe_range
module Algebra_translate = Fq_eval.Algebra_translate
module Ranf = Fq_eval.Ranf
module Outcome = Fq_eval.Outcome
module Query = Fq_eval.Query

(* the fq serve daemon and its wire protocol *)
module Protocol = Fq_server.Protocol
module Server = Fq_server.Server
module Client = Fq_server.Client
module Fleet = Fq_server.Fleet

(* safety *)
module Finitization = Fq_safety.Finitization
module Ext_active = Fq_safety.Ext_active
module Relative_safety = Fq_safety.Relative_safety
module Formula_enum = Fq_safety.Formula_enum
module Syntax_class = Fq_safety.Syntax_class
module Diagonal = Fq_safety.Diagonal
module Halting_reduction = Fq_safety.Halting_reduction
module Report = Fq_safety.Report

(* constraint databases *)
module Rat = Fq_constraintdb.Rat
module Crel = Fq_constraintdb.Crel
module Ceval = Fq_constraintdb.Ceval
