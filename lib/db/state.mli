(** Database states: an instance of a scheme — one finite relation per
    relation name, one value per scheme constant (Section 1 of the paper). *)

type t

val make :
  schema:Schema.t ->
  ?constants:(string * Value.t) list ->
  (string * Relation.t) list ->
  t
(** Unlisted relations are empty. Constant names may carry the [@] prefix
    or not.
    @raise Invalid_argument when a relation name or arity disagrees with
    the scheme, a listed constant is not in the scheme, or a scheme
    constant is left uninterpreted. *)

val schema : t -> Schema.t
val relation : t -> string -> Relation.t
(** Total on scheme relations (empty when unlisted).
    @raise Not_found on a name outside the scheme. *)

val constant : t -> string -> Value.t
(** Accepts the [@]-prefixed or bare name. @raise Not_found when absent. *)

val constants : t -> (string * Value.t) list

val active_domain : t -> Value.t list
(** All values in any relation or interpreted constant, sorted and
    deduplicated — "the set of all … elements contained in the database
    relations" (Section 1). A querying formula's own constants are added
    separately by callers that need the full active domain of a query. *)

val memo : t -> exn option
(** Engine-private memo slot (see {!set_memo}); [None] on a fresh or
    functionally-updated state. *)

val set_memo : t -> exn -> unit
(** Stores an engine's derived image of this state (an [exn] as an
    extensible carrier, so this module needs no knowledge of engine
    types). The value must be derivable from the state alone: racing
    writers are resolved by last-write-wins. *)

val pp : Format.formatter -> t -> unit
