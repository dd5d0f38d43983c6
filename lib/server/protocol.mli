(** The [fq serve] wire protocol: newline-delimited JSON.

    A client writes one JSON object per line; the server answers each
    with one JSON object per line, correlated by the client-chosen
    ["id"].  Responses to pipelined requests may interleave in completion
    order — the id is the only correlation.

    {b Requests}
    {v
    {"op":"eval","id":ID,"formula":F,
     "domain":D?,"fuel":N?,"timeout_ms":N?,"resume":RESUME?,"trace":T?}
    {"op":"explain","id":ID,"formula":F,"domain":D?,"trace":T?}
    {"op":"metrics","id":ID}     {"op":"ping","id":ID}
    {"op":"snapshot","id":ID}    {"op":"shutdown","id":ID}
    {"op":"reload","id":ID,"path":PATH?}    {"op":"health","id":ID}
    {"op":"traces","id":ID,"limit":N?}
    v}

    {b Trace context.}  A request may carry a client-chosen ["trace"] id;
    the server propagates it (or mints one) through admission, the worker
    Domain's telemetry collector, the sampled-trace ring and the
    slow-query log, and echoes it verbatim as a ["trace"] field in the
    matching eval reply.

    {b Responses.}  An [eval] answer is the stable {!Fq_eval.Outcome}
    JSON object with an ["id"] field prepended — byte-identical to
    [fq eval --json] / [fq batch --json] output once the id is dropped.
    Admission-controlled requests that the server will not take are
    answered immediately with
    {v
    {"id":ID,"status":"rejected","reason":R,"retry_after_ms":N,
     "resume":RESUME}
    v}
    — a structured reject carrying the request's resume evidence (the
    token it sent, or a fresh zero-progress token), so over-admission
    never queues unboundedly and never loses client progress.  Malformed
    input is answered with [{"id":ID,"status":"malformed","reason":R}]. *)

module Json = Fq_core.Json
module Outcome = Fq_eval.Outcome

val domains : (string * Fq_domain.Domain.t) list
(** The built-in domain registry, by CLI/protocol name. *)


type request =
  | Eval of {
      id : string;
      domain : string option;  (** [None]: the server's default domain *)
      formula : string;
      fuel : int option;  (** capped by the server's per-request ceiling *)
      timeout_ms : int option;
      resume : Outcome.resume option;  (** continue an interrupted scan *)
      trace : string option;  (** client trace id; server mints if absent *)
    }
  | Explain of { id : string; domain : string option; formula : string; trace : string option }
  | Metrics of { id : string }
  | Ping of { id : string }
  | Snapshot of { id : string }
  | Shutdown of { id : string }
  | Reload of { id : string; path : string option }
      (** Hot-swap the served database from a {e server-side} state file
          (one {!Fq_db.Codec} spec per line); [None] re-reads the file
          the server was configured with (the SIGHUP semantics).
          Answered with [{"ok":true,"epoch":N}] once the new epoch is
          live; in-flight requests finish on the epoch they were admitted
          under. *)
  | Health of { id : string }
      (** Liveness triage: answered inline (never queued) with epoch,
          queue depth, inflight, brownout flag, estimated queue wait,
          per-domain breaker states, and the journal record count. *)
  | Traces of { id : string; limit : int option }
      (** The newest completed sampled traces (up to [limit], default
          all retained), answered inline from the server's bounded
          ring: [{"ok":true,"traces":[...]}], newest first. *)
  | Fleet_status of { id : string }
      (** Topology discovery: answered inline with
          [{"ok":true,"fleet":B,"workers":[{"worker":W,"addr":A,"up":B,
          "pid":N?,"restarts":N}]}].  A single [fq serve] process answers
          with [fleet:false] and itself as the only worker, so clients
          speak one discovery protocol against both shapes; the [fq
          fleet] parent answers with [fleet:true] and the live worker
          set, which multi-endpoint clients use to spread and fail over
          pipelined jobs. *)

val request_id : request -> string

val parse_request : string -> (request, string) result
(** Parse one request line. *)

val request_of_json : Json.t -> (request, string) result

val request_to_json : request -> Json.t
(** The client-side encoder; [parse_request] inverts it. *)

(** {1 Response builders} *)

val outcome_response : id:string -> ?trace:string -> Outcome.t -> Json.t
(** With [?trace] the reply carries a ["trace"] field right after the
    id; {!Outcome.of_json} ignores it, so traced replies still classify
    byte-identically to local [fq eval --json] output. *)

val reject_response :
  id:string -> reason:string -> retry_after_ms:int -> resume:Outcome.resume -> Json.t

val malformed_response : id:string -> string -> Json.t

val ok_response : id:string -> (string * Json.t) list -> Json.t
(** [{"id":ID,"ok":true, ...fields}] — ping/snapshot/shutdown acks. *)

(** {1 Fleet topology} *)

type worker_info = {
  worker : string;  (** stable worker name, e.g. ["w0"] *)
  worker_addr : string;  (** printable address ("unix:PATH" / "tcp:PORT") *)
  up : bool;  (** currently accepting connections (not crashed/parked) *)
  pid : int option;  (** present when the responder supervises processes *)
  restarts : int;  (** crash-restart count since fleet boot *)
}

val fleet_status_response : id:string -> fleet:bool -> worker_info list -> Json.t

val fleet_status_of_json : Json.t -> (bool * worker_info list, string) result
(** Client-side decoder for a [fleet-status] reply: [(is_fleet, workers)]. *)

(** {1 Response classification (client side)} *)

type reply =
  | R_outcome of Outcome.t
  | R_rejected of { reason : string; retry_after_ms : int; resume : Outcome.resume option }
  | R_malformed of string
  | R_ok of Json.t  (** ping/metrics/snapshot/shutdown payload *)

val classify_reply : Json.t -> (string * reply, string) result
(** Split a response line into its id and payload. *)
