(** Unified resource governor.

    Every long-running engine in the system (enumeration, quantifier
    elimination, relational-algebra evaluation, Turing-machine simulation,
    constraint-database evaluation) checkpoints through a [Budget.t].  A
    budget combines
    - step fuel (a count of abstract work units),
    - a wall-clock deadline, and
    - a cooperative cancellation hook,
    and converts overruns into the structured {!failure} taxonomy instead of
    hangs, [failwith], or [invalid_arg].

    One rule hands work its budget: a function that owns a bounded loop
    takes [~budget] and installs it (with {!guard} or {!protect}); code
    that runs beneath it reads the ambient budget ({!tick_ambient},
    {!charge_ambient}) and takes no budget parameter.  A caller that wants
    its own bound around an ambient-reading entry point writes
    [Budget.protect ~budget (fun () -> ...)].

    The paper's Theorems 3.1/3.3 show that query finiteness over T is
    undecidable, so a bound of this kind is the only way a production
    evaluator can accept arbitrary queries and still terminate. *)

type failure =
  | Fuel_exhausted
  | Deadline_exceeded
  | Oversize of int
      (** the enumeration found more tuples than its certification cap;
          payload = cap *)
  | Cancelled
  | Unsupported of string
      (** the input is outside the engine's supported fragment (e.g. a
          Cooper divisor LCM beyond the native expansion range) *)

exception Exhausted of failure
(** Raised by the checkpoint helpers when the budget runs dry.  Engines let
    it propagate; front-ends convert it back to data with {!guard} or
    {!protect}. *)

type t

val make : ?fuel:int -> ?timeout_ms:int -> ?cancel:(unit -> bool) -> unit -> t
(** Fresh governor.  Omitted dimensions are unlimited.  The deadline clock
    starts at [make] time. *)

val of_fuel : ?share:bool -> int -> t
(** Fuel-only budget.  [share] (default [true]) controls whether {!guard}
    installs it as the ambient budget; [~share:false] keeps the engines
    beneath the owner from ticking it, so the fuel counts only the owner's
    own steps (e.g. the candidates of an enumeration, not its QE work). *)

(** {1 Checkpoints} — cheap enough for inner loops. *)

val tick : t -> unit
(** Charge one work unit.  Raises {!Exhausted} on overrun.  The wall clock
    and the cancellation hook are polled every 256 ticks, so a pure-OCaml
    loop that ticks stays responsive without a syscall per iteration. *)

val charge : t -> int -> unit
(** Charge [n] work units at once (e.g. the cardinality of an intermediate
    relation). *)

val unsupported : string -> 'a
(** [unsupported msg] raises [Exhausted (Unsupported msg)] — the structured
    replacement for [failwith] on inputs outside an engine's fragment. *)

(** {1 Ambient budget}

    Decision procedures are reached through the fixed
    [Fq_domain.Domain.S.decide] signature, which cannot carry a budget
    argument.  [guard] therefore installs its budget in a dynamically-scoped
    slot that the QE inner loops poll with {!tick_ambient}; the slot is
    restored on exit, so nesting is safe.  The slot is thread-local
    ({!Thread_local}), so concurrent workers — domains of a {!Supervisor}
    pool or threads of one domain — cannot observe (or charge) each
    other's budgets. *)

val tick_ambient : unit -> unit
(** {!tick} against the ambient budget; no-op when none is installed. *)

val charge_ambient : int -> unit

val ambient : unit -> t option

val guard : t -> (unit -> 'a) -> ('a, failure) result
(** Run a thunk under the budget: installs it as the ambient budget (unless
    it was created with [~share:false]) and converts an {!Exhausted} escape
    into [Error].  Other exceptions propagate. *)

val protect : ?budget:t -> (unit -> ('a, string) result) -> ('a, string) result
(** Boundary adapter for string-error engine entry points: runs the thunk
    under [budget] (if any) and renders an {!Exhausted} escape with
    {!error_string}, so existing [('a, string) result] signatures keep
    working while front-ends recover the structure via
    {!failure_of_string}. *)

(** {1 Failure rendering} *)

val pp_failure : Format.formatter -> failure -> unit

val error_string : failure -> string
(** Stable, parseable rendering: ["budget: fuel exhausted"],
    ["budget: deadline exceeded"], ["budget: result size over N"],
    ["budget: cancelled"], ["unsupported: MSG"]. *)

val failure_of_string : string -> failure option
(** Inverse of {!error_string} on its range. *)

(** {1 Accounting} *)

type usage = { ticks : int; elapsed_ms : float }

val usage : t -> usage
val spent : t -> int

val global_ticks : unit -> int
(** Monotone {e thread-local} count of work units charged across every
    budget this thread has ticked inside the enclosing {!with_tick_clock};
    [0] outside one.  {!Telemetry} samples it at span open and close, so
    fuel is attributed to the innermost open span no matter which budget
    was charged, and each concurrent worker attributes only its own
    work. *)

val with_tick_clock : (unit -> 'a) -> 'a
(** Run the thunk with the calling thread's tick clock running (a nested
    call keeps the running clock).  {!Telemetry.record} opens one. *)
