(* The fq fleet supervisor: process-level crash isolation for serving.

   One parent process forks [workers] independent fq serve processes,
   each bound to its own derived address (ADDR.0, ADDR.1, ... for unix
   sockets; consecutive ports above the base for tcp) with its own
   append-only journal.  The parent owns the shared snapshot: workers
   open it read-only at boot (warm start) and never write it, so two
   processes never race on the same temp+rename; the parent folds each
   worker's journal into its own decide cache — read-only while the
   worker lives, destructively once it is dead — and publishes the
   snapshot, which is what a respawned worker warm-boots from.

   Supervision is the process-level incarnation of Fq_core.Supervisor's
   policy: liveness by waitpid(WNOHANG) every tick plus periodic health
   probes over the wire, crash restart with exponential backoff, and a
   flap-detection circuit breaker — a worker that crashes [restart_limit]
   times inside [flap_window_ms] is parked, and discovery stops steering
   traffic at it.  SIGHUP / a reload request roll the fleet one worker
   at a time (the state file is parsed once, up front, so a broken file
   rolls nobody); SIGTERM / a shutdown request drain every worker
   gracefully, fold every journal, and write the snapshot before exit.

   The parent is deliberately single-threaded: fork from a process with
   live threads inherits their held locks, so the control loop never
   spawns one.  Control connections stay open in its select set and are
   answered by Server's control-op table, one line per connection per
   tick, so no client can hold up supervision. *)

module Json = Fq_core.Json
module Aggregate = Fq_core.Aggregate
module Decide_cache = Fq_domain.Decide_cache
module Journal = Fq_domain.Journal
module Optimizer = Fq_db.Optimizer

type config = {
  workers : int;
  base_backoff_ms : int;
  max_backoff_ms : int;
  probe_interval_ms : int;
  probe_timeout_ms : int;
  serve : Server.config;
}

let default_config serve =
  { workers = 2;
    base_backoff_ms = 100;
    max_backoff_ms = 5_000;
    probe_interval_ms = 1_000;
    probe_timeout_ms = 1_000;
    serve }

(* A worker is killed after [probe_failures] consecutive missed probes;
   the flap breaker parks a worker after [restart_limit] crashes inside
   [flap_window_ms]; respawn backoff grows by [backoff_factor]; a drain
   waits [drain_grace_ms] before escalating to signals. *)
let probe_failures = 3
let restart_limit = 5
let flap_window_ms = 30_000.
let backoff_factor = 2.0
let drain_grace_ms = 10_000.

let worker_addr base i =
  match base with
  | Server.Unix_path p -> Server.Unix_path (Printf.sprintf "%s.%d" p i)
  | Server.Tcp port -> Server.Tcp (port + 1 + i)

(* ----------------------------- runtime ------------------------------ *)

(* Backoff doubles as "waiting out a spawn failure": a worker in
   W_backoff has no process and a respawn timestamp; W_parked is the
   tripped flap breaker — no process, no timestamp, human required. *)
type wstatus = W_up | W_backoff | W_parked

type wrk = {
  w_name : string;
  w_addr : Server.addr;
  w_journal : string option;
  mutable w_pid : int option;
  mutable w_status : wstatus;
  mutable w_restarts : int;
  mutable w_crashes : float list;  (* recent crash timestamps (ms), newest first *)
  mutable w_next_spawn : float;  (* ms timestamp a W_backoff respawn fires at *)
  mutable w_backoff_ms : float;
  mutable w_probe_fails : int;  (* consecutive failed health probes *)
}

type conn = { c_fd : Unix.file_descr; c_reader : Server.reader }

type t = {
  cfg : config;
  cache : Decide_cache.t;  (* the parent's fold target; source of the snapshot *)
  ws : wrk array;
  mutable state : Fq_db.State.t;  (* template a respawned worker boots from *)
  mutable state_path : string option;
  mutable stopping : bool;
  mutable listen_fd : Unix.file_descr option;  (* children must close it *)
  mutable conns : conn list;  (* and these *)
  mutable reloads : int;
  mutable compactions : int;
  mutable folded : int;  (* journal records folded into the parent cache *)
  mutable last_save : float;
  mutable last_probe : float;
  log : string -> unit;
}

let now_ms () = Unix.gettimeofday () *. 1000.

let logf t fmt = Printf.ksprintf t.log ("fq fleet: " ^^ fmt)

let is_up w = w.w_status = W_up && w.w_pid <> None

let signal_worker w signal =
  Option.iter (fun pid -> try Unix.kill pid signal with Unix.Unix_error _ -> ()) w.w_pid

(* One request to a worker over a fresh connection. *)
let ask t w ~retries req =
  Result.bind (Client.connect ~retries ~timeout_ms:(max 1 t.cfg.probe_timeout_ms) w.w_addr)
  @@ fun c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.request c req)

(* ------------------------- snapshot + journals ---------------------- *)

(* Replay one worker journal into the parent cache.  [destructive] only
   when the worker is dead: the live fold must not truncate a torn tail
   (the worker owns the append position and may be mid-record), so it
   reads the file as-is — replay is idempotent, the next fold or the
   crash-time destructive fold picks up whatever this one missed. *)
let fold_journal t w ~destructive =
  match w.w_journal with
  | None -> 0
  | Some jpath -> (
    match Decide_cache.load ~truncate:destructive t.cache jpath with
    | Ok { Journal.applied; _ } ->
      if destructive then ( try Sys.remove jpath with Sys_error _ -> ());
      t.folded <- t.folded + applied;
      applied
    | Error e ->
      logf t "journal fold failed (%s): %s" jpath e;
      0)

let fold_journals t ~destructive =
  Array.fold_left (fun acc w -> acc + fold_journal t w ~destructive) 0 t.ws

let save_snapshot t ~why =
  match t.cfg.serve.snapshot with
  | None -> ()
  | Some path -> (
    match Decide_cache.save t.cache path with
    | Ok n ->
      t.last_save <- Unix.gettimeofday ();
      logf t "snapshot written (%d entries, %s) to %s" n why path
    | Error e -> logf t "snapshot failed: %s" e)

(* The parent-side compaction pass: fold every live worker's journal
   (read-only) and republish the snapshot they warm-boot from. *)
let compact t ~why =
  let folded = fold_journals t ~destructive:false in
  save_snapshot t ~why;
  t.compactions <- t.compactions + 1;
  folded

(* ------------------------------ spawning ---------------------------- *)

let worker_config t w =
  { t.cfg.serve with
    Server.addr = w.w_addr;
    worker_id = Some w.w_name;
    snapshot_read_only = true;
    journal = w.w_journal;
    metrics_file = Option.map (fun p -> p ^ "." ^ w.w_name) t.cfg.serve.Server.metrics_file;
    state = t.state;
    state_file = t.state_path }

let spawn_worker t w =
  match Fq_core.Fault.hit "fleet.spawn" with
  | exception e ->
    Error (Printf.sprintf "fleet: injected spawn fault: %s" (Printexc.to_string e))
  | () -> (
    let cfg = worker_config t w in
    (* the child inherits the parent's stdio buffers: flush so a worker
       never re-emits the parent's pending output *)
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "fleet: fork: %s" (Unix.error_message e))
    | 0 ->
      (* the worker: drop the parent's sockets, serve, and _exit so the
         child never runs the parent's at_exit machinery *)
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        (Option.to_list t.listen_fd @ List.map (fun c -> c.c_fd) t.conns);
      let code =
        match Server.run cfg with
        | Ok code -> code
        | Error e ->
          logf t "%s: boot failed: %s" w.w_name e;
          1
      in
      Unix._exit code
    | pid ->
      w.w_pid <- Some pid;
      w.w_status <- W_up;
      w.w_probe_fails <- 0;
      Ok pid)

let schedule_respawn t w now =
  w.w_status <- W_backoff;
  w.w_next_spawn <- now +. w.w_backoff_ms;
  logf t "%s: restarting in %.0fms (restart %d)" w.w_name w.w_backoff_ms w.w_restarts;
  w.w_backoff_ms <-
    Float.min (w.w_backoff_ms *. backoff_factor) (float_of_int t.cfg.max_backoff_ms)

(* A dead worker: fold what its journal salvaged into the snapshot (so
   the respawn warm-boots with the crashed process's verdicts), then
   either park it (flap breaker) or schedule the backoff respawn. *)
let handle_death t w now ~how =
  w.w_pid <- None;
  logf t "%s: %s" w.w_name how;
  let folded = fold_journal t w ~destructive:true in
  if folded > 0 then save_snapshot t ~why:(w.w_name ^ " journal fold");
  if t.stopping then ()
  else begin
    w.w_restarts <- w.w_restarts + 1;
    w.w_crashes <- now :: List.filter (fun ts -> now -. ts <= flap_window_ms) w.w_crashes;
    if List.length w.w_crashes >= restart_limit then begin
      w.w_status <- W_parked;
      logf t "%s: parked — %d crashes in %.0fs, traffic redistributed" w.w_name
        (List.length w.w_crashes) (flap_window_ms /. 1000.)
    end
    else schedule_respawn t w now
  end

(* OCaml signal numbers are its own negative encoding: name the common
   ones so logs read "killed by SIGKILL", not "signal -7" *)
let signal_name n =
  if n = Sys.sigkill then "SIGKILL"
  else if n = Sys.sigterm then "SIGTERM"
  else if n = Sys.sigsegv then "SIGSEGV"
  else if n = Sys.sigabrt then "SIGABRT"
  else if n = Sys.sigint then "SIGINT"
  else Printf.sprintf "signal %d" n

let describe_status = function
  | Unix.WEXITED 0 -> "exited cleanly"
  | Unix.WEXITED n -> Printf.sprintf "exited %d" n
  | Unix.WSIGNALED n -> "killed by " ^ signal_name n
  | Unix.WSTOPPED n -> "stopped by " ^ signal_name n

let reap t now =
  Array.iter
    (fun w ->
      match w.w_pid with
      | None -> ()
      | Some pid -> (
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _, status -> handle_death t w now ~how:(describe_status status)
        | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
          handle_death t w now ~how:"already reaped"))
    t.ws

(* Boot is the first round: every worker starts in W_backoff, due now. *)
let respawn_due t now =
  Array.iter
    (fun w ->
      if w.w_status = W_backoff && w.w_pid = None && now >= w.w_next_spawn then
        match spawn_worker t w with
        | Ok pid ->
          if w.w_restarts > 0 then
            logf t "%s: respawned (pid %d)" w.w_name pid
        | Error e ->
          (* a failed fork rides the same backoff schedule as a crash *)
          logf t "%s: %s" w.w_name e;
          schedule_respawn t w now)
    t.ws

(* ------------------------------- probes ----------------------------- *)

(* Wire-level liveness, beyond "the pid exists": a worker that accepts
   no connection (wedged accept loop, dead event loop) for
   [probe_failures] consecutive probes is killed, which routes it onto
   the ordinary crash-restart path.  A healthy probe also reports the
   worker's journal lag, which is what triggers a parent compaction. *)
let probe_worker t w =
  match Fq_core.Fault.hit "fleet.probe" with
  | exception _ -> Error "injected probe fault"
  | () -> (
    match ask t w ~retries:0 (Protocol.Health { id = "fleet-probe" }) with
    | Ok (_, Protocol.R_ok j) ->
      let lag = Option.bind (Json.member "journal_records" j) Json.to_int_opt in
      Ok (Option.value lag ~default:0)
    | Ok _ -> Error "probe: unexpected reply"
    | Error e -> Error e)

let probes t now =
  if now -. t.last_probe >= float_of_int t.cfg.probe_interval_ms then begin
    t.last_probe <- now;
    let lag = ref 0 in
    Array.iter
      (fun w ->
        if is_up w then
          match probe_worker t w with
          | Ok journal_records ->
            w.w_probe_fails <- 0;
            lag := !lag + journal_records;
            (* a stretch of health resets the crash history: only
               crashes in quick succession should trip the flap breaker *)
            (match w.w_crashes with
            | ts :: _ when now -. ts > flap_window_ms ->
              w.w_crashes <- [];
              w.w_backoff_ms <- float_of_int t.cfg.base_backoff_ms
            | _ -> ())
          | Error e ->
            w.w_probe_fails <- w.w_probe_fails + 1;
            if w.w_probe_fails >= probe_failures then begin
              logf t "%s: %d probes failed (%s), killing" w.w_name w.w_probe_fails e;
              w.w_probe_fails <- 0;
              signal_worker w Sys.sigkill
            end)
      t.ws;
    if
      t.cfg.serve.Server.snapshot <> None
      && !lag >= Server.journal_compact_every
    then begin
      let folded = compact t ~why:"compaction" in
      logf t "compacted %d journal records into the snapshot" folded
    end
  end

(* ------------------------------- reload ----------------------------- *)

(* Rolling: the file is parsed once before any worker moves (a broken
   file rolls nobody), then each live worker swaps epochs in turn —
   in-process epoch swaps never stop accepting, so the fleet serves at
   full strength throughout, and sequencing means a poison state that
   kills workers on arrival is caught after the first one. *)
let rolling_reload t ~path =
  Result.bind (Server.load_state_file path ~configured:t.state_path) @@ fun (p, state) ->
  t.state <- state;
  t.state_path <- Some p;
  t.reloads <- t.reloads + 1;
  let rolled = ref 0 in
  Array.iter
    (fun w ->
      if is_up w then
        match ask t w ~retries:5 (Protocol.Reload { id = "fleet-reload"; path = Some p }) with
        | Ok (_, Protocol.R_ok j) ->
          incr rolled;
          logf t "%s: reloaded (epoch %d)" w.w_name
            (Option.value ~default:0 (Option.bind (Json.member "epoch" j) Json.to_int_opt))
        | Ok _ -> logf t "%s: reload not acknowledged" w.w_name
        | Error e -> logf t "%s: reload skipped: %s" w.w_name e)
    t.ws;
  Ok !rolled

(* ------------------------------ control ----------------------------- *)

let worker_infos t =
  Array.to_list
    (Array.map
       (fun w ->
         { Protocol.worker = w.w_name;
           worker_addr = Server.addr_to_string w.w_addr;
           up = is_up w;
           pid = w.w_pid;
           restarts = w.w_restarts })
       t.ws)

let exposition t =
  let per_worker f = Array.to_list (Array.map (fun w -> ([ ("worker", w.w_name) ], f w)) t.ws) in
  Aggregate.exposition
    [ Aggregate.gauge_family ~name:"fq_fleet_worker_up"
        ~help:"Per-worker liveness (1 up, 0 crashed/backing off/parked)."
        (per_worker (fun w -> if is_up w then 1. else 0.));
      Aggregate.counter_family ~name:"fq_fleet_restarts_total"
        ~help:"Per-worker crash restarts since fleet boot."
        (per_worker (fun w -> w.w_restarts));
      Aggregate.gauge_family ~name:"fq_fleet_workers"
        ~help:"Configured fleet size." [ ([], float_of_int t.cfg.workers) ];
      Aggregate.counter_family ~name:"fq_fleet_reloads_total"
        ~help:"Rolling reloads completed." [ ([], t.reloads) ];
      Aggregate.counter_family ~name:"fq_journal_compactions_total"
        ~help:"Parent-side journal-into-snapshot compactions." [ ([], t.compactions) ];
      Aggregate.counter_family ~name:"fq_fleet_journal_records_folded_total"
        ~help:"Worker journal records folded into the parent cache." [ ([], t.folded) ];
      Aggregate.gauge_family ~name:"fq_snapshot_last_save_timestamp_seconds"
        ~help:"Unix time of the last successful snapshot save (0 until the first)."
        [ ([], t.last_save) ] ]

let up_count t =
  Array.fold_left
    (fun acc w -> if is_up w then acc + 1 else acc)
    0 t.ws

(* The parent's handlers for Server's control-op table: it answers for
   the fleet (topology, health, metrics, reload, snapshot, shutdown) and
   refuses evaluation — workers serve queries, the parent serves the
   fleet.  Tracing happens where evaluation does, so its ring is empty. *)
let control t =
  { Server.health =
      (fun () ->
        [ ("fleet", Json.Bool true);
          ("workers", Json.Int t.cfg.workers);
          ("up", Json.Int (up_count t));
          ("reloads", Json.Int t.reloads);
          ("draining", Json.Bool t.stopping) ]);
    metrics =
      (fun () ->
        [ ("version", Json.Int Aggregate.exposition_version);
          ("exposition", Json.Str (exposition t)) ]);
    traces = (fun _ -> [ ("sample_every", Json.Int 0); ("traces", Json.List []) ]);
    topology = (fun () -> (true, worker_infos t));
    reload =
      (fun path ->
        Result.map
          (fun rolled -> [ ("workers_reloaded", Json.Int rolled) ])
          (rolling_reload t ~path));
    save =
      (fun () ->
        let _folded : int = compact t ~why:"snapshot request" in
        Ok (Decide_cache.stats t.cache).Decide_cache.entries);
    shutdown = (fun () -> t.stopping <- true);
    evaluate =
      (fun req ->
        Some
          (Protocol.malformed_response ~id:(Protocol.request_id req)
             "fleet: evaluation is served by workers — connect via fq batch --connect, \
              which discovers them from fleet-status"));
    count = ignore }

let max_conns = 64

let close_conn c =
  (try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close c.c_fd with Unix.Unix_error _ -> ()

(* A reply the peer does not take within a second is dropped. *)
let send_line fd json =
  let line = Json.to_string json ^ "\n" in
  try ignore (Unix.write_substring fd line 0 (String.length line)) with Unix.Unix_error _ -> ()

(* One control-plane step, bounded so supervision never waits on a
   client: wait up to a tick for activity, accept, and answer at most one
   line on each open connection — reading only the descriptors select
   reported ready, so a silent or half-sent line never blocks. *)
let control_tick t ctl listen_fd =
  let listening = List.length t.conns < max_conns in
  let fds = List.map (fun c -> c.c_fd) t.conns in
  let timeout = if List.exists (fun c -> Server.buffered c.c_reader) t.conns then 0. else 0.2 in
  match Unix.select (if listening then listen_fd :: fds else fds) [] [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | ready, _, _ ->
    (if List.mem listen_fd ready then
       match Unix.accept listen_fd with
       | fd, _ ->
         (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.0 with Unix.Unix_error _ -> ());
         let c_reader = Server.reader ~max_bytes:Server.max_line_bytes fd in
         t.conns <- t.conns @ [ { c_fd = fd; c_reader } ]
       | exception Unix.Unix_error _ -> ());
    t.conns <-
      List.filter
        (fun c ->
          let refills = if List.mem c.c_fd ready then 1 else 0 in
          match Server.answer ctl c.c_reader ~refills ~send:(send_line c.c_fd) with
          | `Eof ->
            close_conn c;
            false
          | `Answered | `Pending -> true)
        t.conns

(* ----------------------------- shutdown ----------------------------- *)

(* Graceful drain: ask every live worker to shut down (the worker path
   answers its admitted requests before exiting; one that cannot be
   asked gets SIGTERM), wait out the grace period, SIGKILL stragglers,
   fold every journal —
   destructively now, every owner is dead — and publish the snapshot. *)
let graceful_shutdown t =
  Array.iter
    (fun w ->
      if w.w_pid <> None then
        match ask t w ~retries:0 (Protocol.Shutdown { id = "fleet-shutdown" }) with
        | Ok _ -> ()
        | Error _ -> signal_worker w Sys.sigterm)
    t.ws;
  let deadline = now_ms () +. drain_grace_ms in
  let rec wait () =
    reap t (now_ms ());
    if Array.exists (fun w -> w.w_pid <> None) t.ws then
      if now_ms () <= deadline then begin
        Unix.sleepf 0.05;
        wait ()
      end
      else
        Array.iter
          (fun w ->
            Option.iter
              (fun pid ->
                signal_worker w Sys.sigkill;
                (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
                w.w_pid <- None)
              w.w_pid)
          t.ws
  in
  wait ();
  (* reap already folded each journal as its worker died; this pass only
     catches a journal whose worker we never managed to reap *)
  let _late : int = fold_journals t ~destructive:true in
  save_snapshot t ~why:"shutdown";
  let restarts = Array.fold_left (fun acc w -> acc + w.w_restarts) 0 t.ws in
  logf t "shutdown complete — %d workers, %d restarts, %d reloads, %d journal records folded"
    t.cfg.workers restarts t.reloads t.folded

(* -------------------------------- boot ------------------------------ *)

let run cfg =
  if cfg.workers < 1 then Error "fleet: need at least one worker"
  else begin
    let serve = cfg.serve in
    let journal_base = Server.journal_path serve in
    let ws =
      Array.init cfg.workers (fun i ->
          let name = "w" ^ string_of_int i in
          { w_name = name;
            w_addr = worker_addr serve.Server.addr i;
            w_journal = Option.map (fun j -> j ^ "." ^ name) journal_base;
            w_pid = None;
            w_status = W_backoff;
            w_restarts = 0;
            w_crashes = [];
            w_next_spawn = 0.;
            w_backoff_ms = float_of_int cfg.base_backoff_ms;
            w_probe_fails = 0 })
    in
    let t =
      { cfg;
        cache = Decide_cache.create ();
        ws;
        state = serve.Server.state;
        state_path = serve.Server.state_file;
        stopping = false;
        listen_fd = None;
        conns = [];
        reloads = 0;
        compactions = 0;
        folded = 0;
        last_save = 0.;
        last_probe = 0.;
        log = serve.Server.log }
    in
    let sigs = Server.trap_signals () in
    (* warm boot: the snapshot, plus any journals a previous fleet left
       behind when it died uncleanly — fold them before the workers load
       the snapshot, so nothing a dead fleet decided is lost *)
    Result.bind (Server.load_snapshot t.cache serve) @@ fun loaded ->
    let leftover = fold_journals t ~destructive:true in
    if leftover > 0 then begin
      logf t "recovered %d journal records from a previous fleet" leftover;
      save_snapshot t ~why:"crash recovery"
    end;
    Option.iter
      (fun (r : Journal.recovery) -> logf t "warm start, %d cached verdicts loaded" r.applied)
      loaded;
    (* bind before the first fork: an unbindable address fails the boot
       with no worker left behind (children close the inherited fd) *)
    Result.bind (Server.bind_socket serve.Server.addr) @@ fun listen_fd ->
    t.listen_fd <- Some listen_fd;
    respawn_due t (now_ms ());
    logf t "supervising %d workers on %s (%s)" cfg.workers
      (Server.addr_to_string serve.Server.addr)
      (String.concat ", "
         (Array.to_list (Array.map (fun w -> Server.addr_to_string w.w_addr) t.ws)));
    let ctl = control t in
    while not t.stopping do
      if Atomic.exchange sigs.term false then begin
        logf t "SIGTERM received, draining";
        t.stopping <- true
      end;
      if Atomic.exchange sigs.hup false then
        (match rolling_reload t ~path:None with
        | Ok _ -> ()
        | Error e -> logf t "SIGHUP reload failed: %s" e);
      if Atomic.exchange sigs.usr1 false then ignore (compact t ~why:"SIGUSR1" : int);
      if not t.stopping then begin
        let now = now_ms () in
        reap t now;
        respawn_due t now;
        probes t now;
        control_tick t ctl listen_fd
      end
    done;
    List.iter close_conn t.conns;
    t.conns <- [];
    graceful_shutdown t;
    Server.unbind serve.Server.addr listen_fd;
    Ok 0
  end
