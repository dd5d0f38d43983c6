(** Thread-local slots.

    [Domain.DLS] holds one value per domain, and the threads of a domain
    share it.  The ambient budget, the tick clock, the telemetry collector
    and the fault plan must instead follow the thread that installed them:
    [fq serve] may run its worker seats as threads of one domain, and a
    seat can be switched out in the middle of an evaluation.  A key here
    holds one value per thread; a thread that has not bound it reads the
    key's default. *)

type 'a key

val new_key : 'a -> 'a key
(** [new_key default]: a key that reads [default] on every thread. *)

val get : 'a key -> 'a
(** The calling thread's value.  A thread that keeps running pays one
    domain-local read and one comparison; the first read after another
    thread of the domain ran takes a lock once. *)

val with_value : 'a key -> 'a -> (unit -> 'b) -> 'b
(** [with_value k v f] runs [f] with [k] bound to [v] on the calling
    thread only, and restores the previous value when [f] returns or
    raises.  Nesting is safe.  Once the outermost binding ends the thread
    holds no storage for [k]. *)
