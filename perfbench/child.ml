(* An fq serve child process: spawned by fork+exec of the built binary
   (never Server.run on a thread of this process), torn down with the
   shutdown op and waitpid.  Spawns happen before this process starts any
   thread or domain. *)

open Finite_queries

type t = { pid : int; addr : Server.addr; log : string; mutable reaped : bool }

let live : t list ref = ref []

let now () = Unix.gettimeofday ()

let tail_of path =
  match In_channel.with_open_text path In_channel.input_all with
  | s ->
    let n = String.length s in
    if n > 600 then String.sub s (n - 600) 600 else s
  | exception Sys_error _ -> ""

let fail t fmt =
  Printf.ksprintf (fun msg -> failwith (Printf.sprintf "%s\n--- server log ---\n%s" msg (tail_of t.log))) fmt

(* Spawn [fq serve ARGS --socket SOCK] and return once a ping is answered,
   with the seconds that took: exec, state load, statistics, snapshot
   load and journal replay all happen before the first ping is read. *)
let spawn ~fq ~dir ~tag args =
  let sock = Filename.concat dir (tag ^ ".sock") in
  let log = Filename.concat dir (tag ^ ".log") in
  (try Sys.remove sock with Sys_error _ -> ());
  let log_fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let argv = Array.of_list ((fq :: "serve" :: args) @ [ "--socket"; sock ]) in
  let t0 = now () in
  let pid = Unix.create_process fq argv Unix.stdin log_fd log_fd in
  Unix.close log_fd;
  let t = { pid; addr = Server.Unix_path sock; log; reaped = false } in
  live := t :: !live;
  match Client.connect ~retries:30_000 ~delay_ms:1 ~timeout_ms:60_000 t.addr with
  | Error e -> fail t "fq serve did not come up: %s" e
  | Ok c ->
    let r = Client.request c (Protocol.Ping { id = "boot" }) in
    let setup_s = now () -. t0 in
    Client.close c;
    (match r with Ok (_, Protocol.R_ok _) -> () | _ -> fail t "fq serve did not answer ping");
    (t, setup_s)

let connect t =
  match Client.connect ~retries:100 ~delay_ms:10 ~timeout_ms:60_000 t.addr with
  | Ok c -> c
  | Error e -> fail t "cannot connect: %s" e

(* /proc/PID/stat utime + stime, in milliseconds (USER_HZ is 100). *)
let cpu_ms t =
  let s = In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" t.pid) In_channel.input_all in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  float_of_string f.(11) *. 10. +. float_of_string f.(12) *. 10.

(* VmHWM of a process, in MB. *)
let peak_rss_mb pid =
  let lines =
    In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) In_channel.input_lines
  in
  match List.find_opt (String.starts_with ~prefix:"VmHWM:") lines with
  | None -> nan
  | Some l ->
    Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f kB" (fun kb -> kb /. 1024.)

let reap t ~within =
  let deadline = now () +. within in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.005;
      wait ()
    | 0, _ ->
      Unix.kill t.pid Sys.sigkill;
      ignore (Unix.waitpid [] t.pid);
      None
    | _, status -> Some status
  in
  let status = wait () in
  t.reaped <- true;
  status

(* Graceful teardown: the shutdown op, then waitpid.  A nonzero exit or a
   server that does not exit fails the run. *)
let shutdown t =
  let c = connect t in
  let r = Client.request c (Protocol.Shutdown { id = "bye" }) in
  Client.close c;
  (match r with Ok (_, Protocol.R_ok _) -> () | _ -> fail t "shutdown was not acknowledged");
  match reap t ~within:30. with
  | Some (Unix.WEXITED 0) -> ()
  | Some (Unix.WEXITED n) -> fail t "fq serve exited with code %d" n
  | Some (Unix.WSIGNALED n | Unix.WSTOPPED n) -> fail t "fq serve died on signal %d" n
  | None -> fail t "fq serve did not exit after shutdown"

(* Last resort on an error path: no child outlives the benchmark. *)
let kill_all () =
  List.iter
    (fun t ->
      if not t.reaped then begin
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
        t.reaped <- true
      end)
    !live

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()
