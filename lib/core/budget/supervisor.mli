(** Supervised execution: crash isolation, retry with exponential
    backoff, circuit breaking, and a bounded-concurrency worker pool.

    {!Budget} bounds how long an evaluation may run; this module bounds
    what an evaluation may {e do to its caller}.  A supervised thunk can
    raise anything — an injected chaos fault ({!Fault.Injected}), an
    escaped governor trip ([Budget.Exhausted]), or a genuine bug — and
    the supervisor converts the escape into data ({!crash}), retries the
    transient ones under an exponential-backoff schedule, and reports
    exactly what happened ({!run}).

    The pieces compose into the [fq batch] pipeline:
    - {!supervise} — one crash-isolated, retryable unit of work, with a
      telemetry span per attempt;
    - {!fair_share} — per-attempt budget splitting, so [k] attempts
      together never exceed the request's total fuel;
    - {!Breaker} — a circuit breaker keyed to a persistently failing
      component (a domain's decision procedure): after [threshold]
      consecutive failures it opens, the component is short-circuited to
      a structured ["unsupported: circuit open"] error — which sends
      {!Fq_eval.Query.eval_resilient} down its degradation chain instead
      of hammering the broken procedure — and after a cooldown one probe
      is allowed through (half-open);
    - {!parallel_map} — a bounded pool of OCaml 5 domains.  Safe because
      every ambient slot this library maintains (budget, telemetry
      collector, fault plan, tick clock) is thread-local. *)

type crash = { transient : bool; reason : string }
(** A contained escape.  [transient] escapes are retried while attempts
    remain; the rest are reported as-is. *)

type policy = {
  max_attempts : int;  (** total attempts, including the first (>= 1) *)
  base_backoff_ms : float;  (** pause before the first retry *)
  backoff_factor : float;  (** multiplier per further retry *)
  max_backoff_ms : float;  (** backoff cap *)
  sleep : float -> unit;  (** receives milliseconds; injectable for tests *)
  classify : exn -> crash;  (** how escapes map to {!crash} *)
}

val default_policy : policy
(** 3 attempts, 1ms base backoff doubling up to 100ms, [Unix.sleepf],
    and {!default_classify}. *)

val default_classify : exn -> crash
(** [Fault.Injected] keeps its transience (reason ["fault at SITE: ..."]);
    [Budget.Exhausted f] renders via [Budget.error_string]; anything else
    is a non-transient [Printexc.to_string]. *)

type 'a outcome =
  | Value of 'a  (** the final attempt returned *)
  | Crashed of crash  (** every attempt escaped; the last crash *)

type 'a run = {
  outcome : 'a outcome;
  attempts : int;  (** attempts actually made *)
  retried : int;  (** [attempts - 1] *)
  backoffs_ms : float list;  (** the backoff actually scheduled before each retry *)
}

val supervise :
  ?policy:policy -> ?retry_value:('a -> string option) -> name:string -> (int -> 'a) -> 'a run
(** [supervise ~name f] runs [f attempt] (attempts numbered from 1) under
    crash isolation.  A transient crash retries after backoff while
    attempts remain; a non-transient crash (or exhausted attempts)
    finishes with [Crashed].  [retry_value] lets a {e returned} value ask
    for a retry too — the batch runner uses it to retry a structured
    [Partial] verdict, carrying the resume token into the next attempt's
    budget share.  Each attempt runs in a telemetry span
    [supervisor.attempt] with [name]/[attempt] attributes. *)

val fair_share : total:int -> spent:int -> attempt:int -> max_attempts:int -> int
(** Fuel for this attempt: the unspent remainder of [total] divided
    evenly over the attempts left (at least 1), so the attempts together
    stay within [total] while later attempts inherit what earlier ones
    did not use. *)

module Breaker : sig
  type t

  type state = Closed | Open | Half_open

  val create : ?threshold:int -> ?cooldown_ms:float -> ?now_ms:(unit -> float) -> unit -> t
  (** Defaults: [threshold = 3] consecutive failures, [cooldown_ms = 100.].
      [now_ms] is injectable for deterministic tests.  All operations are
      mutex-guarded; a breaker may be shared between worker domains. *)

  val state : t -> state

  val allow : t -> bool
  (** [true] when closed or half-open.  When open, flips to half-open
      (and answers [true]) once the cooldown has elapsed — the probe
      call; until then [false]: short-circuit without calling the
      component. *)

  val success : t -> unit
  (** Close the breaker and reset the consecutive-failure count. *)

  val failure : t -> unit
  (** Count a failure.  Opens the breaker from half-open immediately, or
      from closed once [threshold] consecutive failures accumulate. *)

  val trips : t -> int
  (** How many times the breaker has opened. *)
end

val parallel_map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving map on a pool of [min jobs (length arr)] OCaml 5
    domains (the caller's domain is one of them).  Work is distributed by
    an atomic index, so stragglers do not serialize the tail.  If [f]
    raises, the first escape (in index order) is re-raised after every
    worker has drained — supervised callers should make [f] total. *)
