(** Columnar batch kernel: the execution representation of the
    batch-at-a-time {!Relalg} engine.

    A batch stores a relation column-major as dictionary codes — one
    [int array] per attribute — with an optional {e selection vector}
    mapping logical to physical rows, so filters and anti-joins are
    index-only.  All batches of one plan evaluation share a {!Dict}:
    value equality is code equality, and when the dictionary was built
    rank-ordered ({!Dict.of_sorted_values}) the final conversion back to
    a canonical {!Relation} sorts unboxed ints only and allocates one
    bare {!Row} per answer row.

    Every operator maintains the set-semantics invariant (logical rows
    duplicate-free), so per-operator cardinalities — and hence budget
    charges and telemetry histograms — are the cardinalities of the
    relations the plan denotes.  Projection, union and {!to_relation}
    share one dedup and sort kernel: it packs each row into one word
    where the codes fit, sorts, and drops adjacent duplicates, so a
    deduplicated batch leaves [sorted]. *)

module Dict : sig
  type t

  val create : unit -> t
  (** An empty dictionary whose codes follow insertion order. *)

  val of_sorted_values : Value.t list -> t
  (** Dictionary over a duplicate-free, {!Value.compare}-ascending value
      list; codes are ranks, enabling the int-only canonical sort in
      {!to_relation}. *)

  val overlay : t -> t
  (** A fresh mutable layer over [parent]: lookups fall through to the
      parent, insertions stay local. Lets one frozen storage dictionary
      (cached on the {!State}) serve concurrent evaluations, each adding
      only its plan's literal values. *)

  val size : t -> int
  (** Total codes, parent layers included. *)

  val ordered : t -> bool
  (** Codes are {!Value.compare} ranks across all layers (no
      out-of-order insertions). *)

  val encode : t -> Value.t -> int
  (** Code for a value, inserting it into the top layer if absent in any
      layer (which may clear [ordered]). *)

  val find : t -> Value.t -> int option
  (** Code for a value known to any layer; [None] means the value occurs
      nowhere in the encoded data. *)

  val decode : t -> int -> Value.t
end

type t = private {
  arity : int;
  nrows : int;  (** logical row count *)
  cols : int array array;  (** per-attribute physical code columns *)
  sel : int array option;  (** logical row [i] is physical row [sel.(i)] *)
  sorted : bool;
      (** logical rows are in strictly increasing code-lexicographic
          order; order-preserving operators propagate it so
          {!to_relation} can skip sorting *)
}

val arity : t -> int
val nrows : t -> int
val empty : int -> t

val of_relation : Dict.t -> Relation.t -> t
(** Encode a relation's rows through the dictionary. *)

val to_relation : Dict.t -> t -> Relation.t
(** Decode back to a canonical relation, one bare row per logical row
    whose cells are the dictionary's own values.  With a
    rank-{!Dict.ordered} dictionary a [sorted] batch needs no sort, and
    any other batch is first sorted by codes with the kernel projection
    and union dedup with; an unordered dictionary sorts the decoded rows
    by value. *)

val dense : t -> t
(** Resolve the selection vector (logical = physical afterwards). *)

val filter : (int -> bool) -> t -> t
(** Keep the logical rows satisfying the predicate (indices are logical
    row numbers); builds a selection vector, never copies columns. *)

val project : int array -> t -> t
(** Keep the listed columns in order (indices may repeat; the columns
    are shared, not copied), then deduplicate.  A projection that keeps
    every column skips the dedup and keeps the row order; any other
    leaves its distinct rows sorted. *)

(** {2 Joins}

    A join runs in two steps: a kernel finds its {!matches} (which left
    row meets which right row), whose count settles the join's
    cardinality, and then only the columns the consumer needs are
    gathered from them. *)

type matches

val join : (int * int) list -> t -> t -> matches
(** Hash equijoin over code columns: builds on the right operand, probes
    with the left; matches are left-major.  No pairs is the product. *)

val matched : matches -> int
(** The join's cardinality. *)

val gather : matches -> t
(** The joined batch: the left row's columns, then the right row's. *)

val gather_project : int array -> matches -> t
(** [gather_project cols m] is the same relation as
    [project cols (gather m)], gathering only the columns in [cols].
    Dedup is skipped when the projection is injective on the join:
    every dropped column is equated, through the join pairs, with a
    kept one. *)

(** {2 Access paths}

    A base batch (a state relation's image, dense) can carry one
    {!index} per column.  The probe operators below answer exactly what
    {!filter} and {!join} answer, in the same row order, without
    scanning or hashing the base batch. *)

type index
(** Postings of one column, in CSR form: storage codes are dense ranks,
    so an offsets array over the codes plus one row-id array (each
    code's rows in ascending physical order) locates every code's rows. *)

val build_index : codes:int -> t -> int -> index
(** [build_index ~codes b c] indexes column [c] of the dense batch [b],
    all of whose codes are below [codes]. Linear in [nrows b + codes].
    @raise Invalid_argument if [b] has a selection vector. *)

val select_code : index -> t -> int -> t
(** [select_code ix b code]: the rows of the dense batch [b] whose
    indexed column holds [code], as a selection vector over [b]. A code
    the index does not cover (an overlay value) selects nothing. *)

val join_index_right : (int * int) list -> t -> t -> index -> matches option
(** [join_index_right pairs a b ix] is [Some (join pairs a b)] for a
    dense [b] whose column [snd (List.hd pairs)] [ix] indexes: [a]'s rows
    probe the postings and the other pairs are checked per match. [None]
    when there are other pairs and the postings to check outnumber
    [nrows a + nrows b], the rows a hash join would touch. *)

val join_index_left : (int * int) list -> t -> index -> t -> matches option
(** [join_index_left pairs a ix b] is [Some (join pairs a b)] for a
    dense [a] whose column [fst (List.hd pairs)] [ix] indexes: [b]'s rows
    probe, and the matches are sorted back into left-major order. [None]
    when the postings outnumber [nrows a + nrows b]. *)

val union : t -> t -> t
val diff : t -> t -> t
