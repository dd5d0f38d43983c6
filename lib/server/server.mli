(** The [fq serve] daemon: a persistent, crash-tolerant query service.

    Accepts connections on a Unix or TCP socket and speaks the
    newline-delimited JSON {!Protocol}.  Evaluation requests are
    dispatched onto a pool of OCaml 5 domains (the {!Fq_core.Supervisor}
    substrate) through a {e bounded} admission queue:

    - {b admission control} — at most [max_inflight] admitted-but-
      unfinished requests server-wide and [client_share] per connection;
      a request over either cap is answered immediately with a structured
      reject carrying its resume evidence and a [retry_after_ms] hint,
      never queued unboundedly;
    - {b deadline-aware shedding} — a request whose estimated queue wait
      (depth x EMA latency / workers) already exceeds its own deadline is
      rejected at admission with an honest retry hint, instead of being
      admitted only to blow its budget waiting;
    - {b brownout} — under sustained queue pressure (32 admitted jobs
      waiting) new admissions run with a quarter of their fuel: degraded
      answers beat a collapse;
    - {b per-request budgets} — each eval runs under its own
      [Budget.make] governor, fuel capped by [max_fuel], so one hostile
      query cannot starve the pool;
    - {b a worker watchdog} — a domain still evaluating past its
      request's deadline is first cancelled cooperatively (the budget's
      cancel hook), and one second after that the victim request
      is answered with a classified error and the wedged domain's seat is
      handed to a freshly spawned replacement, so pool capacity cannot
      leak;
    - {b circuit breakers} — a per-domain {!Fq_core.Supervisor.Breaker}
      around the decision procedure, exactly as in [fq batch], rebuilt
      per epoch;
    - {b durability} — one shared {!Fq_domain.Decide_cache} serves every
      request; with [snapshot] set it is loaded at boot and written back
      on graceful shutdown and [SIGUSR1], and every {e fresh} verdict is
      also appended to a CRC-framed {!Journal} (at [journal], default
      [snapshot ^ ".journal"]) the moment it lands — after a crash,
      recovery replays the snapshot plus the journal's surviving records,
      truncating torn tails and skipping corrupt records instead of
      failing boot.  The accept loop compacts the journal into the
      snapshot every {!journal_compact_every} appends;
    - {b hot reload} — a [reload] request or SIGHUP re-reads a state file
      ({!Fq_db.Codec.load_state}) and swaps the served database behind an
      epoch pointer: requests admitted before the swap finish on the old
      epoch, new admissions see the new one, optimizer statistics and
      breakers are rebuilt per epoch, and no connection drops;
    - {b bounded input} — a request line longer than {!max_line_bytes} is
      drained and answered with a structured [malformed] reply; a hostile
      client cannot balloon a reader thread;
    - {b observability} — every request runs under a
      {!Fq_core.Telemetry} recording stamped with its trace id (client-
      supplied or server-minted) and merged into a server-wide registry
      of always-on label-dimensioned counters and log-bucketed
      {!Fq_core.Aggregate} histograms, served as a versioned Prometheus
      text exposition by [metrics] requests and dumped atomically to
      [metrics_file]; 1-in-[trace_sample] completed evals keep their
      span tree in a ring of the last 64 served by [traces]; requests over
      [slow_ms] (or browned-out / watchdog-cancelled) append their
      trace, plan and estimates-vs-observed to the [slow_log] JSONL; a
      [health] op answers queue depth / breaker states / epoch inline,
      even when the pool is saturated. *)

type addr = Unix_path of string | Tcp of int  (** TCP binds 127.0.0.1 *)

val pp_addr : Format.formatter -> addr -> unit

val addr_to_string : addr -> string
(** ["unix:PATH"] / ["tcp:127.0.0.1:PORT"] — the form [fleet-status]
    replies carry; {!addr_of_string} inverts it. *)

val addr_of_string : string -> (addr, string) result
(** Accepts [unix:PATH], [tcp:PORT], [tcp:HOST:PORT] (host ignored; the
    server binds loopback), a bare PORT, or a bare PATH. *)

type config = {
  addr : addr;
  jobs : int;
      (** worker seats evaluating admitted requests (domains on several
          CPUs, threads of the main domain on one) *)
  max_inflight : int;  (** server-wide admission cap (bounded queue) *)
  client_share : int;  (** per-connection in-flight cap (fair share) *)
  default_fuel : int;  (** fuel when the request names none *)
  max_fuel : int;  (** per-request fuel ceiling *)
  default_timeout_ms : int option;
  snapshot : string option;  (** decide-cache snapshot path *)
  snapshot_read_only : bool;
      (** load the snapshot at boot but never write it — the fleet-worker
          mode, where the parent owns the snapshot file and folds each
          worker's journal into it; also disables journal compaction
          (the parent's job) *)
  journal : string option;
      (** decide-cache journal path; [None] = [snapshot ^ ".journal"]
          when a snapshot is configured, else journaling is off *)
  state_file : string option;  (** the file SIGHUP / pathless reload re-reads *)
  worker_id : string option;
      (** fleet worker name stamped as a ["worker"] field into every
          reply (and the [fleet-status] answer); [None] for a lone
          server *)
  trace_sample : int;
      (** head-based trace sampling: record 1 in [trace_sample] eval
          requests into the trace ring ([0] = off) *)
  slow_ms : float option;
      (** latency threshold for the slow-query log; brownout and
          watchdog-cancelled requests are logged regardless *)
  slow_log : string option;  (** slow-query JSONL path; [None] = off *)
  metrics_file : string option;
      (** periodic atomic dump of the Prometheus exposition *)
  extra_domains : (string * Fq_domain.Domain.t) list;
      (** served in addition to {!Protocol.domains} (tests register
          pathological domains here) *)
  default_domain : string;  (** for requests that name no domain *)
  state : Fq_db.State.t;  (** the database served at epoch 1 *)
  log : string -> unit;  (** server log lines (stderr in the CLI) *)
}

val default_config : state:Fq_db.State.t -> addr -> config
(** [jobs = 4], [max_inflight = 256], [client_share = 64],
    [default_fuel = 10_000], [max_fuel = 1_000_000], no timeout, no
    snapshot/journal/state file, tracing off ([trace_sample = 0]), no
    slow-query log, no metrics file, no extra domains, default domain
    ["presburger"], [Stats.of_state state], writable snapshot, no worker
    id, logging to [stderr]. *)

val journal_compact_every : int
(** [512]: journal appends between compactions into the snapshot (a
    lone server's accept loop; a fleet parent's summed worker lag). *)

val max_line_bytes : int
(** [1 MiB]: the longest request line a server or fleet parent reads;
    a longer one is drained and answered [malformed]. *)

val journal_path : config -> string option
(** [journal], else [snapshot ^ ".journal"] when a snapshot is set. *)

(** {1 Control ops}

    One table answers the protocol's control ops for both topologies: a
    serve connection thread and the [fq fleet] parent's select loop each
    supply a handler record, and {!answer} reads a line through the
    shared bounded {!reader}, parses it, and replies. *)

type control = {
  health : unit -> (string * Fq_core.Json.t) list;  (** reply fields *)
  metrics : unit -> (string * Fq_core.Json.t) list;
  traces : int option -> (string * Fq_core.Json.t) list;  (** newest [limit] *)
  topology : unit -> bool * Protocol.worker_info list;  (** [fleet-status] *)
  reload : string option -> ((string * Fq_core.Json.t) list, string) result;
      (** [None]: the configured state file; an [Error] is answered
          [malformed] with a ["reload: "] prefix *)
  save : unit -> (int, string) result;  (** [snapshot]: entries written *)
  shutdown : unit -> unit;  (** called after the [draining] ack is sent *)
  evaluate : Protocol.request -> Fq_core.Json.t option;
      (** eval and explain: serve admits them and answers later
          ([None]); the fleet parent refuses them *)
  count : string -> unit;
      (** tallies each answered op by name, and ["malformed"] for a line
          that is oversized or does not parse *)
}

type reader
(** A bounded line reader over a socket: a line longer than
    [max_bytes] is drained, not buffered, and answered as oversized. *)

val reader : max_bytes:int -> Unix.file_descr -> reader

val buffered : reader -> bool
(** Read bytes wait to be consumed: {!answer} may find a line without
    reading. *)

val answer :
  control ->
  reader ->
  refills:int ->
  send:(Fq_core.Json.t -> unit) ->
  [ `Answered | `Pending | `Eof ]
(** Read one line, making at most [refills] read(2) calls ([0] takes
    only a line already {!buffered}), and answer it through [send].
    [`Pending]: no complete line yet. *)

(** {1 Boot helpers} shared with the fleet parent *)

val sockaddr : addr -> Unix.sockaddr

val bind_socket : addr -> (Unix.file_descr, string) result
(** Listen on [addr], replacing a stale unix socket file. *)

val unbind : addr -> Unix.file_descr -> unit
(** Close the listener and remove its unix socket file. *)

type signals = { term : bool Atomic.t; hup : bool Atomic.t; usr1 : bool Atomic.t }

val trap_signals : unit -> signals
(** Ignore SIGPIPE; SIGTERM / SIGHUP / SIGUSR1 raise flags the caller's
    loop polls (drain / reload / write the snapshot). *)

val load_state_file :
  string option -> configured:string option -> (string * Fq_db.State.t, string) result
(** Parse the state file a [reload] names, else the [configured] one. *)

val load_snapshot :
  Fq_domain.Decide_cache.t -> config -> (Fq_domain.Journal.recovery option, string) result
(** {!Fq_domain.Decide_cache.load} of [snapshot], read-only; [None] when
    there is no file. *)

val run : config -> (int, string) result
(** Boot and serve until a [shutdown] request or SIGTERM (both take the
    same graceful drain: stop admitting, answer every admitted request,
    snapshot, exit): binds the socket, loads
    the snapshot if one exists, recovers and opens the journal, prints a
    ["listening on ..."] log line, and blocks.  Graceful shutdown drains
    admitted requests, answers them, writes the snapshot (resetting the
    journal it subsumes), and returns [Ok 0].  [Error] covers boot
    failures (unbindable socket, corrupt snapshot, a journal that is not
    a journal — torn and corrupt {e records} are recovered, not fatal). *)
