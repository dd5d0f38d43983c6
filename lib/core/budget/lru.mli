(** A bounded map with least-recently-used eviction: a hash table whose
    entries also form an intrusive doubly-linked recency list.

    Shared by the decide cache (its verdict table) and the telemetry
    collector (its histogram key space).  Nothing here locks — a caller
    that shares a cache between threads holds its own lock around every
    call. *)

module Make (K : Hashtbl.HashedType) : sig
  type key = K.t
  type 'a t

  val create : ?on_evict:(key -> 'a -> unit) -> int -> 'a t
  (** [create capacity] bounds the number of retained entries.
      [on_evict] runs on each entry evicted past the capacity.
      @raise Invalid_argument when [capacity < 1]. *)

  val length : 'a t -> int

  val evictions : 'a t -> int
  (** Entries evicted since [create]. *)

  val find : 'a t -> key -> 'a option
  (** A hit refreshes the key to most recently used. *)

  val replace : 'a t -> key -> 'a -> bool
  (** Bind [key] at the most-recently-used front, then evict least
      recently used entries past the capacity.  [true] iff [key] was
      not bound before. *)

  val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
  (** Visits entries from most to least recently used, so consing along
      the fold leaves a list least recently used first. *)
end
