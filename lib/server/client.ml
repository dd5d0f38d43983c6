module Json = Fq_core.Json
module Outcome = Fq_eval.Outcome
module Budget = Fq_core.Budget

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel; lock : Mutex.t }

(* With a timeout, SO_RCVTIMEO/SO_SNDTIMEO bound every read and write on
   the socket, and the connect-retry loop is additionally bounded by a
   wall-clock deadline — a client against a wedged server gets a
   classified error instead of hanging forever.  The "unsupported:"
   prefix routes the error to exit code 4 through Outcome.exit_of_error,
   distinct from 1 (evaluation error) and 3 (partial). *)
let connect ?(retries = 0) ?(delay_ms = 50) ?timeout_ms addr =
  let deadline =
    Option.map (fun t -> Unix.gettimeofday () +. (float_of_int t /. 1000.)) timeout_ms
  in
  let expired () =
    match deadline with Some d -> Unix.gettimeofday () > d | None -> false
  in
  let rec go attempts_left =
    let fd = Unix.socket (Unix.domain_of_sockaddr (Server.sockaddr addr)) Unix.SOCK_STREAM 0 in
    (match timeout_ms with
    | Some t ->
      let s = float_of_int (max 1 t) /. 1000. in
      (try
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO s;
         Unix.setsockopt_float fd Unix.SO_SNDTIMEO s
       with Unix.Unix_error _ -> ())
    | None -> ());
    match Unix.connect fd (Server.sockaddr addr) with
    | () ->
      Ok
        { fd;
          ic = Unix.in_channel_of_descr fd;
          oc = Unix.out_channel_of_descr fd;
          lock = Mutex.create () }
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if attempts_left > 0 && not (expired ()) then begin
        Unix.sleepf (float_of_int delay_ms /. 1000.);
        go (attempts_left - 1)
      end
      else if expired () then
        Error
          (Format.asprintf "unsupported: timed out connecting to %a" Server.pp_addr addr)
      else
        Error
          (Format.asprintf "cannot connect to %a: %s" Server.pp_addr addr
             (Unix.error_message e))
  in
  go (max 0 retries)

let send c req =
  try
    output_string c.oc (Json.to_string (Protocol.request_to_json req));
    output_char c.oc '\n';
    flush c.oc;
    Ok ()
  with Sys_error e | Unix.Unix_error (_, e, _) -> Error ("send failed: " ^ e)

let has_sub needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

(* A socket read timeout surfaces as EAGAIN, which the channel layer
   wraps in Sys_error — classify it as a deadline, not a protocol
   failure. *)
let timed_out_msg e = has_sub "Resource temporarily unavailable" e || has_sub "Operation timed out" e

(* Connection-level faults a multi-endpoint client treats as "this
   worker died, fail the job over", as opposed to protocol errors (the
   peer answered garbage) or evaluation failures (the peer answered).
   The strings are what our own send/recv/connect paths produce when the
   OS reports ECONNRESET / EPIPE / ECONNREFUSED or a half-closed peer. *)
let transient_error e =
  has_sub "connection closed by server" e
  || has_sub "Connection reset by peer" e
  || has_sub "Broken pipe" e
  || has_sub "Connection refused" e
  || has_sub "cannot connect" e
  || has_sub "send failed" e

let recv_json c =
  match input_line c.ic with
  | exception End_of_file -> Error "connection closed by server"
  | exception Sys_error e ->
    if timed_out_msg e then Error "unsupported: timed out waiting for server reply"
    else Error ("recv failed: " ^ e)
  | line -> Json.parse line

let recv c = Result.bind (recv_json c) Protocol.classify_reply

let request c req =
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) @@ fun () ->
  Result.bind (send c req) (fun () -> recv c)

let close c =
  (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try close_in c.ic with Sys_error _ -> ()

(* --------------------------- discovery ------------------------------ *)

(* One discovery protocol against both topologies: a lone fq serve
   answers fleet-status with itself as the only worker, the fq fleet
   parent answers with its live worker set.  A peer that predates the op
   (or rejects it) degrades to the address we were given. *)
let discover ?(retries = 100) ?(delay_ms = 50) ?timeout_ms addr =
  Result.bind (connect ~retries ~delay_ms ?timeout_ms addr) @@ fun c ->
  let reply = request c (Protocol.Fleet_status { id = "discover" }) in
  close c;
  match reply with
  | Ok (_, Protocol.R_ok j) -> (
    match Protocol.fleet_status_of_json j with
    | Ok (fleet, workers) -> (
      (* a fleet reports worker sockets as it bound them, which for a
         unix base like [fq.sock] is relative to the *server's* cwd:
         anchor relative worker paths next to the address we dialed *)
      let anchor =
        match addr with
        | Server.Unix_path base when Filename.is_relative base -> None
        | Server.Unix_path base -> Some (Filename.dirname base)
        | Server.Tcp _ -> None
      in
      let resolve = function
        | Server.Unix_path p when Filename.is_relative p -> (
          match anchor with
          | Some dir -> Server.Unix_path (Filename.concat dir p)
          | None -> Server.Unix_path p)
        | a -> a
      in
      let live =
        List.filter_map
          (fun w ->
            if w.Protocol.up then
              Option.map resolve
                (Result.to_option (Server.addr_of_string w.Protocol.worker_addr))
            else None)
          workers
      in
      match live with [] -> Ok (fleet, [ addr ]) | eps -> Ok (fleet, eps))
    | Error _ -> Ok (false, [ addr ]))
  | Ok _ -> Ok (false, [ addr ])
  | Error e -> if transient_error e then Ok (false, [ addr ]) else Error e

(* ------------------------ multi-endpoint jobs ----------------------- *)

type eval_job = {
  domain : string option;
  formula : string;
  fuel : int option;
  timeout_ms : int option;
  trace : string option;
}

type job_result = {
  reply : Protocol.reply;
  raw : Json.t option;  (** the reply line, for fields beyond the outcome *)
  worker : string option;  (** ["worker"] stamp, when the peer is a fleet *)
  failovers : int;  (** connection-level retries (other endpoints) *)
  rejected_retries : int;  (** admission roundtrips waited out *)
}

(* Per-job mutable progress, guarded by the pool lock.  [p_resume] is
   the newest resume evidence the server handed us (a structured reject
   carries one); a failover re-sends the job with it, so an interrupted
   scan continues instead of restarting. *)
type progress = {
  mutable p_reply : (Protocol.reply * Json.t) option;
  mutable p_resume : Outcome.resume option;
  mutable p_failovers : int;
  mutable p_rejects : int;
}

(* How many jobs one endpoint thread claims per cycle: small enough
   that a late-crashing worker strands few jobs, large enough to keep
   each connection's pipeline full. *)
let pool_chunk = 16

(* Spread [jobs] across the fleet behind [addr]: discover the live
   workers, pipeline a chunk of jobs onto one connection per worker
   (one thread each), and treat any connection-level fault as "this
   worker died": every job still unanswered on that connection goes
   back to the shared queue, carrying its resume token, and another
   endpoint picks it up.  Between rounds the topology is re-discovered,
   so jobs stranded by a crash land on the worker the supervisor
   respawned.  A job that survives [max_failovers] connection deaths is
   answered locally with a classified transient failure — callers never
   see a bare connection error. *)
let run_jobs ?(max_failovers = 4) ?(rounds = 4) ?timeout_ms ~addr jobs =
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let res =
    Array.init n (fun _ ->
        { p_reply = None; p_resume = None; p_failovers = 0; p_rejects = 0 })
  in
  let lock = Mutex.create () in
  let pending = Queue.create () in
  Array.iteri (fun i _ -> Queue.push i pending) jobs;
  let remaining = ref n in
  let ever_connected = ref false in
  let grab () =
    Mutex.protect lock (fun () ->
        let rec go acc k =
          if k = 0 || Queue.is_empty pending then List.rev acc
          else go (Queue.pop pending :: acc) (k - 1)
        in
        go [] pool_chunk)
  in
  (* a failed-over job either re-queues or, past the cap, terminalizes
     with a structured failure *)
  let give_back reason idxs =
    Mutex.protect lock (fun () ->
        List.iter
          (fun i ->
            let p = res.(i) in
            if p.p_reply = None then begin
              p.p_failovers <- p.p_failovers + 1;
              if p.p_failovers <= max_failovers then Queue.push i pending
              else begin
                p.p_reply <-
                  Some
                    ( Protocol.R_outcome
                        (Outcome.failed
                           (Printf.sprintf
                              "transient: %s (failed over %d times, giving up)" reason
                              (p.p_failovers - 1))),
                      Json.Null );
                decr remaining
              end
            end)
          idxs)
  in
  let record idx reply raw =
    Mutex.protect lock (fun () ->
        let p = res.(idx) in
        if p.p_reply = None then begin
          p.p_reply <- Some (reply, raw);
          decr remaining;
          true
        end
        else false (* a duplicate from before a failover: first reply wins *))
  in
  let send_job c idx =
    let j = jobs.(idx) in
    let resume = Mutex.protect lock (fun () -> res.(idx).p_resume) in
    send c
      (Protocol.Eval
         { id = string_of_int idx;
           domain = j.domain;
           formula = j.formula;
           fuel = j.fuel;
           timeout_ms = j.timeout_ms;
           resume;
           trace = j.trace })
  in
  (* Drive one endpoint until the shared queue is dry or its connection
     dies.  [first] gets the patient boot-retry window; reconnects after
     a death are brief — the round structure and the other endpoints own
     slow recovery. *)
  let endpoint_thread ~first addr =
    let rec cycle conn =
      match grab () with
      | [] -> Option.iter close conn
      | idxs -> (
        let conn =
          match conn with
          | Some c -> Ok c
          | None ->
            let retries = if first then 100 else 10 in
            connect ~retries ~delay_ms:50 ?timeout_ms addr
        in
        match conn with
        | Error e ->
          give_back (if transient_error e then "worker connection refused" else e) idxs;
          () (* endpoint unreachable: leave its jobs to the others *)
        | Ok c ->
          Mutex.protect lock (fun () -> ever_connected := true);
          let outstanding = Hashtbl.create 16 in
          let rec send_all = function
            | [] -> Ok ()
            | i :: rest -> (
              match send_job c i with
              | Ok () ->
                Hashtbl.replace outstanding i ();
                send_all rest
              | Error e ->
                give_back e (i :: rest);
                Error e)
          in
          let rec drain () =
            if Hashtbl.length outstanding = 0 then Ok ()
            else
              Result.bind (recv_json c) @@ fun raw ->
              Result.bind (Protocol.classify_reply raw) @@ fun (id, reply) ->
              match int_of_string_opt id with
              | Some idx when Hashtbl.mem outstanding idx -> (
                match reply with
                | Protocol.R_rejected { retry_after_ms; resume; _ } ->
                  Mutex.protect lock (fun () ->
                      let p = res.(idx) in
                      p.p_rejects <- p.p_rejects + 1;
                      match resume with Some _ -> p.p_resume <- resume | None -> ());
                  Unix.sleepf (float_of_int (max 1 retry_after_ms) /. 1000.);
                  Result.bind (send_job c idx) (fun () -> drain ())
                | Protocol.R_outcome _ | Protocol.R_malformed _ ->
                  Hashtbl.remove outstanding idx;
                  let _first : bool = record idx reply raw in
                  drain ()
                | Protocol.R_ok _ -> drain ())
              | _ -> drain ()
          in
          let healthy =
            match Result.bind (send_all idxs) (fun () -> drain ()) with
            | Ok () -> Some c
            | Error e ->
              give_back
                (if transient_error e then "worker connection lost" else e)
                (Hashtbl.fold (fun i () acc -> i :: acc) outstanding []);
              close c;
              None
          in
          (* after a death, cycle with no connection: a brief reconnect
             covers a worker the supervisor already respawned *)
          cycle healthy)
    in
    cycle None
  in
  let round ~first eps =
    let threads =
      List.map (fun a -> Thread.create (fun () -> endpoint_thread ~first a) ()) eps
    in
    List.iter Thread.join threads
  in
  Result.bind (discover ?timeout_ms addr) @@ fun (_fleet, endpoints) ->
  let rec go k eps =
    round ~first:(k = 0) eps;
    if Mutex.protect lock (fun () -> !remaining) > 0 && k + 1 < rounds then
      let eps =
        match discover ~retries:20 ?timeout_ms addr with
        | Ok (_, eps) -> eps
        | Error _ -> eps
      in
      go (k + 1) eps
    else ()
  in
  go 0 endpoints;
  if not !ever_connected then
    Error (Format.asprintf "cannot connect to %a: no worker reachable" Server.pp_addr addr)
  else begin
    (* rounds exhausted with jobs still queued: terminalize them *)
    Mutex.protect lock (fun () ->
        Array.iter
          (fun p ->
            if p.p_reply = None then begin
              p.p_reply <-
                Some
                  ( Protocol.R_outcome
                      (Outcome.failed "transient: no live worker answered before give-up"),
                    Json.Null );
              decr remaining
            end)
          res);
    Ok
      (Array.map
         (fun p ->
           let reply, raw =
             match p.p_reply with
             | Some (reply, raw) -> (reply, raw)
             | None -> (Protocol.R_outcome (Outcome.failed "no reply"), Json.Null)
           in
           { reply;
             raw = (match raw with Json.Null -> None | j -> Some j);
             worker = Option.bind (Json.member "worker" raw) Json.to_str_opt;
             failovers = p.p_failovers;
             rejected_retries = p.p_rejects })
         res)
  end
