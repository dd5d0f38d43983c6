(** Deterministic fault injection.

    The paper's negative results (Theorems 3.1/3.3) make runtime failure
    intrinsic: an evaluator for arbitrary queries can never statically
    trust an input, so budget blow-ups, non-terminating decision
    procedures and oversize answers are normal operating conditions — and
    the governor ({!Budget}) and supervisor ({!Supervisor}) that contain
    them must be {e provably} crash-safe under induced failure, not just
    in the happy path.

    This module is the chaos harness behind that proof obligation.  Every
    engine hot path declares a {e named injection site} — a call to
    {!hit} next to its governor checkpoint — and a test installs a
    {!plan} that injects faults on a reproducible schedule.  The schedule
    is a pure function of [(seed, site, nth-hit)], so a failing chaos
    case replays exactly from its seed, independent of wall-clock, GC, or
    scheduling.

    Sites threaded through the engines (PR 5):
    - ["decide"] — the {!Fq_domain.Domain.S.decide} boundary crossed by
      the enumeration evaluator,
    - ["decide_cache.lookup"] — every memoized decision lookup,
    - ["relalg.node"] — each relational-algebra operator materialization,
    - ["enumerate.scan"], ["enumerate.certify"], ["enumerate.resume"] —
      the §1.1 scan, its completeness certification, and resume-token
      re-entry,
    - ["qe.cooper"], ["qe.nat_succ"], ["qe.nat_order"], ["qe.reach"],
      ["qe.eq"] — the quantifier-elimination rewrite loops.

    File-I/O sites on the serve persistence path (PR 8):
    - ["journal.append"] — before each decide-cache journal record write
      (models a short write / ENOSPC; the record is simply lost, the
      journal prefix stays valid),
    - ["journal.rotate"] — before the compaction temp+rename (models a
      torn rename; the pre-compaction journal survives intact),
    - ["decide_cache.snapshot.save"] — before a snapshot write opens its
      temp file (models a full disk / permission flip; the existing
      snapshot must survive byte-identical — rename is the only publish).

    Process-supervision sites on the fleet path (PR 10):
    - ["fleet.spawn"] — before the parent forks a worker process (models
      fork/exec failure; the worker takes a crash-restart backoff path),
    - ["fleet.probe"] — before each over-the-wire health probe (models a
      probe timeout; enough consecutive failures convict the worker).

    When no plan is installed (the production configuration) a site costs
    one thread-local read and a branch — the same class of overhead as a
    disabled telemetry counter.  The ambient plan is thread-local
    ({!Thread_local}); a plan shared between workers is internally
    locked, so concurrent hits are safe (though their interleaving, and
    hence the per-site hit numbering, is then scheduler-dependent — for
    reproducibility give each worker its own seeded plan). *)

type action =
  | Trip of Budget.failure
      (** Raise [Budget.Exhausted] — an induced governor trip.  Flows
          through the same structured-failure paths as a genuine one. *)
  | Crash of string
      (** Raise {!Injected} with [transient = false] — a spurious
          exception that models a hard crash inside an engine.  The
          supervisor contains it; retrying is pointless. *)
  | Flaky of string
      (** Raise {!Injected} with [transient = true] — a transient
          failure.  Because per-site hit counters advance monotonically
          across attempts, a retry replays {e past} the faulted hit and
          can succeed: this is what retry-with-backoff is for. *)

type rule =
  | At of { site : string; hits : int list; action : action }
      (** Fire [action] exactly at the given hit numbers of [site]
          (1-based).  For surgical tests: "kill the scan at its 3rd
          candidate". *)
  | Chaos of { sites : string list option; permille : int; actions : action array }
      (** On each hit of a matching site ([None] = every site), fire with
          probability [permille]/1000, choosing the action
          deterministically from [actions].  Both the fire/no-fire
          decision and the choice are pure functions of
          [(seed, site, nth-hit)]. *)

type plan
(** A fault schedule plus its mutable replay state: per-site hit
    counters and the log of injections performed.  Counters advance
    monotonically for the lifetime of the plan (they are {e not} reset
    per attempt — that is what makes [Flaky] faults transient). *)

exception Injected of { site : string; hit : int; transient : bool; reason : string }
(** The spurious-exception channel ([Crash]/[Flaky] actions).  [Trip]
    actions raise [Budget.Exhausted] instead. *)

val plan : ?rules:rule list -> seed:int -> unit -> plan
(** A plan with an explicit rule list (first matching rule fires). *)

val chaos :
  ?sites:string list -> ?permille:int -> ?actions:action list -> seed:int -> unit -> plan
(** Convenience single-{!Chaos}-rule plan.  Defaults: all sites,
    [permille = 20], and an action mix of one of each kind. *)

val with_plan : plan -> (unit -> 'a) -> 'a
(** Install the plan as this thread's ambient fault schedule for the
    duration of the thunk (save/restore, nesting-safe).  The same plan
    may be re-installed across attempts or shared between domains; its
    counters persist. *)

val enabled : unit -> bool
(** Is a plan installed in this domain? *)

val hit : string -> unit
(** [hit site] — an injection site.  No-op unless a plan is installed;
    otherwise advances the site's hit counter and raises if the schedule
    says so. *)

val injections : plan -> (string * int * action) list
(** The injections performed so far, in order: (site, hit number,
    action).  Deterministic for a fixed seed and a deterministic
    workload. *)

val injection_count : plan -> int

val transient_exn : exn -> bool
(** [true] exactly for [Injected {transient = true; _}] — the
    supervisor's retry test. *)

val pp_action : Format.formatter -> action -> unit
