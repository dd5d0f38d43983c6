(* Client load against a served workload: a closed loop with one request
   in flight, or one connection pipelining up to [depth] requests.  A
   request's latency runs from just before its send until its reply has
   been read and classified; every reply is judged against the oracle. *)

open Finite_queries

type tally = {
  mutable samples : (float * float) list;  (* (reply time, latency in us), newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable first_error : string option;
  mutable last_reply : float;  (* wall time of the last reply read *)
}

let tally () = { samples = []; attempted = 0; failed = 0; first_error = None; last_reply = 0. }

let failure t msg =
  t.failed <- t.failed + 1;
  if t.first_error = None then t.first_error <- Some msg

let merge ts =
  let t = tally () in
  List.iter
    (fun u ->
      t.samples <- List.rev_append u.samples t.samples;
      t.attempted <- t.attempted + u.attempted;
      t.failed <- t.failed + u.failed;
      if t.first_error = None then t.first_error <- u.first_error;
      t.last_reply <- Float.max t.last_reply u.last_reply)
    ts;
  t

let request ~id ~fuel (q : Oracle.query) =
  Protocol.Eval
    { id; domain = None; formula = q.Oracle.text; fuel = Some fuel; timeout_ms = None;
      resume = None; trace = None }

(* A transport error ends the run: the server is gone or wedged. *)
let transport = function Ok v -> v | Error e -> failwith ("connection failed: " ^ e)

(* Count one attempted op and judge its outcome against the oracle. *)
let check t (q : Oracle.query) o =
  t.attempted <- t.attempted + 1;
  match Oracle.check q.Oracle.expect o with
  | Ok () -> ()
  | Error e -> failure t (Printf.sprintf "%s: %s" q.Oracle.text e)

let judge t q = function
  | Protocol.R_outcome o -> check t q o
  | reply ->
    t.attempted <- t.attempted + 1;
    failure t
      (match reply with
      | Protocol.R_rejected { reason; _ } -> "rejected: " ^ reason
      | Protocol.R_malformed r -> "malformed: " ^ r
      | _ -> "eval answered with a bare ok")

let record t ~t0 ~t1 =
  t.samples <- (t1, (t1 -. t0) *. 1e6) :: t.samples;
  t.last_reply <- t1

(* One request in flight: send op [i], wait for its reply, repeat. *)
let closed_loop conn ~fuel ~until ~next t =
  let i = ref 0 in
  while Unix.gettimeofday () < until do
    let q = next !i and id = string_of_int !i in
    let t0 = Unix.gettimeofday () in
    transport (Client.send conn (request ~id ~fuel q));
    let rid, reply = transport (Client.recv conn) in
    record t ~t0 ~t1:(Unix.gettimeofday ());
    if rid <> id then failwith "reply id mismatch";
    judge t q reply;
    incr i
  done

(* Keep up to [depth] requests in flight until [until], then drain. *)
let pipelined conn ~depth ~fuel ~until ~next t =
  let pending = Hashtbl.create (2 * depth) in
  let i = ref 0 in
  let rec loop () =
    while Hashtbl.length pending < depth && Unix.gettimeofday () < until do
      let q = next !i and id = string_of_int !i in
      incr i;
      Hashtbl.replace pending id (Unix.gettimeofday (), q);
      transport (Client.send conn (request ~id ~fuel q))
    done;
    if Hashtbl.length pending > 0 then begin
      let id, reply = transport (Client.recv conn) in
      let t1 = Unix.gettimeofday () in
      (match Hashtbl.find_opt pending id with
      | None -> failwith ("reply to unknown id " ^ id)
      | Some (t0, q) ->
        Hashtbl.remove pending id;
        record t ~t0 ~t1;
        judge t q reply);
      loop ()
    end
  in
  loop ()

(* Run [work] on one system thread per item and re-raise the first
   failure after all have joined. *)
let in_threads items work =
  let errors = ref [] and lock = Mutex.create () in
  let run x =
    try work x with e -> Mutex.protect lock (fun () -> errors := Printexc.to_string e :: !errors)
  in
  List.iter Thread.join (List.map (Thread.create run) items);
  match !errors with [] -> () | e :: _ -> failwith e
