(** Columnar batch kernel: the execution representation of the
    batch-at-a-time {!Relalg} engine.

    A batch stores a relation column-major as dictionary codes — one
    [int array] per attribute — with an optional {e selection vector}
    mapping logical to physical rows, so filters and anti-joins are
    index-only.  All batches of one plan evaluation share a {!Dict}:
    value equality is code equality, and when the dictionary was built
    rank-ordered ({!Dict.of_sorted_values}) the final conversion back to
    a canonical {!Relation} sorts unboxed ints only.

    Every operator maintains the set-semantics invariant (logical rows
    duplicate-free), so per-operator cardinalities — and hence budget
    charges and telemetry histograms — are the cardinalities of the
    relations the plan denotes. *)

module Dict : sig
  type t

  val create : ?size:int -> unit -> t

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

  val hash_code : t -> int -> int
  (** [hash_code d code] is [Value.hash (decode d code)], served from a
      per-code cache — the decode path never rehashes a boxed value. *)
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
(** Decode back to a canonical relation; int-code sort when the
    dictionary is rank-{!Dict.ordered}, value sort otherwise. *)

val dense : t -> t
(** Resolve the selection vector (logical = physical afterwards). *)

val filter : (int -> bool) -> t -> t
(** Keep the logical rows satisfying the predicate (indices are logical
    row numbers); builds a selection vector, never copies columns. *)

val project : int array -> t -> t
(** Keep the listed columns in order (indices may repeat), then
    deduplicate. *)

val product : t -> t -> t

val equijoin : (int * int) list -> t -> t -> t
(** Hash equijoin over code columns: builds on the right operand, probes
    with the left; output is left-major. *)

(** {2 Access paths}

    A base batch (a state relation's image, dense) can carry one
    {!index} per column.  The probe operators below answer exactly what
    {!filter} and {!equijoin} answer, in the same row order, without
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

val join_index_right : (int * int) list -> t -> t -> index -> t option
(** [join_index_right pairs a b ix] is [Some (equijoin pairs a b)] for a
    dense [b] whose column [snd (List.hd pairs)] [ix] indexes: [a]'s rows
    probe the postings and the other pairs are checked per match. [None]
    when there are other pairs and the postings to check outnumber
    [nrows a + nrows b], the rows a hash join would touch. *)

val join_index_left : (int * int) list -> t -> index -> t -> t option
(** [join_index_left pairs a ix b] is [Some (equijoin pairs a b)] for a
    dense [a] whose column [fst (List.hd pairs)] [ix] indexes: [b]'s rows
    probe, and the matches are sorted back into left-major order. [None]
    when the postings outnumber [nrows a + nrows b]. *)

val union : t -> t -> t
val diff : t -> t -> t
