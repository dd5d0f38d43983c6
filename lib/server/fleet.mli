(** Multi-process serving: a supervisor parent over N [fq serve] workers.

    One crash domain per worker.  The parent forks [workers] independent
    {!Server.run} processes, each with its own listener (for a unix
    socket [ADDR], workers bind [ADDR.0], [ADDR.1], ...; for tcp port
    [P] they bind [P+1], [P+2], ...) and its own append-only journal.
    The parent keeps the base address as a control socket and owns the
    shared snapshot — workers load it warm and never write it
    ({!Server.config.snapshot_read_only}), the parent periodically folds
    worker journals into its own cache and republishes.

    Supervision policy (the process-level mirror of
    {!Fq_core.Supervisor}):
    - {b liveness}: [waitpid WNOHANG] each tick, plus a [health] probe
      over the wire every [probe_interval_ms] — 3 consecutive misses
      get the worker killed and restarted;
    - {b restart}: exponential backoff from [base_backoff_ms], doubling
      up to [max_backoff_ms], reset after a healthy stretch;
    - {b flap breaker}: 5 crashes inside 30s park the worker — no
      further respawns, discovery stops listing it — until an operator
      restarts the fleet;
    - {b rolling reload} (SIGHUP or a [reload] control request): the
      state file is validated once up front, then live workers reload
      one at a time, so the fleet never serves zero workers and a
      poison state stops after the first;
    - {b graceful drain} (SIGTERM or [shutdown]): every worker drains
      its admitted requests (one the request cannot reach gets SIGTERM,
      stragglers SIGKILL after 10s), every journal is folded into the
      snapshot, then the parent exits 0.  SIGUSR1 folds the live
      journals and writes the snapshot.

    The control socket is answered by {!Server.answer} from the fleet's
    {!Server.control} handler record, so it speaks exactly the serve
    protocol's control ops and line bound: [ping], [health], [metrics]
    (fleet-level exposition: [fq_fleet_worker_up{worker}],
    [fq_fleet_restarts_total{worker}], [fq_journal_compactions_total],
    [fq_snapshot_last_save_timestamp_seconds], ...), [traces] (always
    empty: tracing happens on the workers), [fleet-status] (the live
    topology clients discover workers from — see {!Client.run_jobs}),
    [reload], [snapshot], and [shutdown].  Evaluation requests are
    refused, under their own id, with a pointer at the workers: queries
    go to workers, fleet management goes to the parent.  Connections
    stay open across requests; the single-threaded parent answers at
    most one line per connection per supervision tick.

    {b Fault sites} (see {!Fq_core.Fault}): ["fleet.spawn"] fires
    before each fork (a faulted spawn rides the same backoff schedule
    as a crash); ["fleet.probe"] fires before each wire probe (models a
    probe path outage — enough consecutive hits restart a healthy
    worker, which the fleet must absorb). *)

type config = {
  workers : int;  (** fleet size; at least 1 *)
  base_backoff_ms : int;  (** first respawn delay after a crash *)
  max_backoff_ms : int;
  probe_interval_ms : int;  (** wire health-probe period *)
  probe_timeout_ms : int;  (** per-probe connect/read budget *)
  serve : Server.config;
      (** template for workers: [addr] is the base address, [journal]
          (or [snapshot ^ ".journal"]) the per-worker journal base path,
          [metrics_file] the per-worker metrics file base path; the
          fleet derives per-worker values and forces
          [snapshot_read_only] *)
}

val default_config : Server.config -> config
(** A fleet over the [serve] template: two workers; backoff 100ms
    doubling to 5s; probe every 1s with a 1s budget, kill after 3
    misses. *)

val run : config -> (int, string) result
(** Boot the fleet and supervise until [shutdown]/SIGTERM: load the
    snapshot, fold any journals a previous fleet left behind, bind the
    control socket, fork the workers, then loop (reap / respawn / probe
    / serve control connections).  Returns the process exit code —
    [Ok 0] after a graceful drain — or [Error] if the snapshot, control
    socket, or configuration is unusable. *)
