(** A blocking NDJSON client for {!Server}.

    One connection, safe to share across threads: {!request} holds the
    connection lock around its send/recv pair, while the split
    {!send}/{!recv} calls let a single owner pipeline many requests and
    collect the interleaved responses (correlate by id). *)

type t

val connect :
  ?retries:int -> ?delay_ms:int -> ?timeout_ms:int -> Server.addr -> (t, string) result
(** Connect, retrying a refused or not-yet-bound socket [retries] more
    times with [delay_ms] (default 50) between attempts — for clients
    racing a server that is still booting.  With [timeout_ms], the retry
    loop is bounded by that wall-clock deadline and every subsequent
    socket read/write carries it as an OS-level timeout
    (SO_RCVTIMEO/SO_SNDTIMEO), so a wedged server yields an
    ["unsupported: timed out ..."] error (exit code 4 through
    {!Fq_eval.Outcome.exit_of_error}) instead of a hang. *)

val send : t -> Protocol.request -> (unit, string) result

val recv : t -> (string * Protocol.reply, string) result
(** Next response line, as [(id, reply)].  [Error] on EOF or on a line
    that is not a protocol response. *)

val recv_json : t -> (Protocol.Json.t, string) result
(** Next response line as raw JSON, unclassified. *)

val request : t -> Protocol.request -> (string * Protocol.reply, string) result
(** [send] then [recv], atomically w.r.t. other {!request} callers. *)

val close : t -> unit

(** {1 Multi-endpoint mode}

    Against an [fq fleet], a client is only as available as its ability
    to walk away from a dead worker.  {!run_jobs} asks the given address
    for the topology ([fleet-status]; a lone [fq serve] lists only
    itself), spreads pipelined eval jobs across the live workers and
    fails jobs over — carrying their resume tokens — when a connection
    dies, so [kill -9] of a worker mid-batch costs retries, not
    answers. *)

type eval_job = {
  domain : string option;
  formula : string;
  fuel : int option;
  timeout_ms : int option;
  trace : string option;
}

type job_result = {
  reply : Protocol.reply;
      (** the final reply; a job that exhausted its failovers gets a
          classified [Failed] outcome with a ["transient: ..."] reason,
          never a bare connection error *)
  raw : Protocol.Json.t option;  (** the reply line, for extra fields (trace, worker) *)
  worker : string option;  (** answering worker's id, when the peer stamps one *)
  failovers : int;  (** times the job moved to another connection *)
  rejected_retries : int;  (** admission rejects waited out and resent *)
}

val run_jobs :
  ?timeout_ms:int ->
  addr:Server.addr ->
  eval_job list ->
  (job_result array, string) result
(** Discover the topology behind [addr], then pipeline the jobs across
    one connection per live worker (one thread each, chunked off a
    shared queue).  Structured rejects are waited out and resent with
    the server's resume token on the same connection; a dead connection
    re-queues its unanswered jobs (resume tokens carried) for other
    endpoints, with the topology re-discovered between rounds (at most
    4) so supervisor-respawned workers rejoin.  A job whose connection
    dies more than 4 times is answered locally.  Results come back
    indexed by job order.  [Error] only when no worker was ever
    reachable. *)
