(** Always-on aggregation for the serving plane: fixed log-bucketed
    (HDR-style) histograms, and a versioned Prometheus text exposition
    with its parser.

    Where {!Telemetry} is request-scoped (a collector lives for one
    evaluation and records into these histograms), the serve registry
    merges them for the process lifetime and answers quantile queries
    from a fixed quarter-octave bucket ladder: observation is an O(1)
    array increment, and two histograms observed on different worker
    domains merge bucket-wise with no loss beyond the bucket width
    already accepted at observe time.

    Nothing here locks — callers synchronise (the serve registry holds
    its own mutex). *)

(** {1 Bucket ladder} *)

val bucket_count : int
(** Number of buckets (128); the last is a +Inf catch-all. *)

val bucket_le : int -> float
(** Upper bound of bucket [i]: [2^((i - 62) / 4)], so consecutive
    bounds differ by [2^(1/4)] (~19%); [infinity] for the last. *)

val bucket_index : float -> int
(** Smallest [i] with [v <= bucket_le i]; values [<= 0] (and [nan])
    land in bucket 0, [infinity] in the last. *)

(** {1 Histograms} *)

type hist = private {
  mutable count : int;
  mutable sum : float;
  mutable min : float;  (** [infinity] when empty *)
  mutable max : float;  (** [neg_infinity] when empty *)
  mutable first : int;  (** ladder index of [buckets.(0)] *)
  mutable buckets : int array;
      (** [buckets.(k)] counts ladder bucket [first + k]; the span covers
          exactly the buckets from the lowest to the highest observed *)
}
(** The one histogram record: {!Telemetry} records into it, and the
    serve registry merges those into its own. *)

val create : unit -> hist
val copy : hist -> hist

val observe : hist -> float -> unit
(** Counts [v]; widens the bucket span when [v] lands outside it. *)

val mean : hist -> float option
(** [sum / count]; [None] when empty. *)

val merge : into:hist -> hist -> unit
(** Bucket-wise add of [src] into [into], widening [into]'s span to
    cover [src]'s. *)

val quantile : hist -> float -> float
(** [quantile h q] (with [q] clamped to [0..1]) estimates the [q]th
    quantile as the upper bound of the first bucket whose cumulative
    count reaches [q * count h], clamped to the observed min/max — exact
    up to one bucket width.  [nan] when empty. *)

(** {1 Prometheus text exposition} *)

val exposition_version : int
(** Version stamped in the first line
    ([# fq-metrics-exposition <n>]); bumping the grammar bumps this. *)

type family

val counter_family :
  name:string ->
  help:string ->
  ((string * string) list * int) list ->
  family
(** A counter family: each sample is (labels, monotonic count). *)

val gauge_family :
  name:string ->
  help:string ->
  ((string * string) list * float) list ->
  family

val histogram_family :
  name:string -> help:string -> ((string * string) list * hist) list -> family

val escape_label_value : string -> string
(** Escapes backslash, double-quote and newline per the Prometheus text
    format. *)

val exposition : family list -> string
(** Renders the versioned text exposition: version header first, then
    families sorted by name, each with [# HELP] / [# TYPE] lines and
    samples sorted by canonical label string.  Histograms render only
    buckets that advance the cumulative count, plus the mandatory +Inf
    terminal, followed by [_sum] and [_count]. *)

val parse_exposition : string -> (string * (string * string) list * float) list
(** Inverse of {!exposition} for scrapers ([fq top], the CI smoke job):
    returns each sample line as (metric, labels, value) with label
    values unescaped.  Raises [Failure] on grammar violations, including
    a missing or mismatched version header. *)
