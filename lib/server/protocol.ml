(* Wire protocol: NDJSON requests/responses over a Unix or TCP socket. *)

module Json = Fq_core.Json
module Outcome = Fq_eval.Outcome

let domains : (string * Fq_domain.Domain.t) list =
  [ ("equality", (module Fq_domain.Eq_domain));
    ("nat_order", (module Fq_domain.Nat_order));
    ("nat_succ", (module Fq_domain.Nat_succ));
    ("presburger", (module Fq_domain.Presburger));
    ("arithmetic", (module Fq_domain.Arithmetic));
    ("traces", (module Fq_domain.Traces)) ]


type request =
  | Eval of {
      id : string;
      domain : string option;
      formula : string;
      fuel : int option;
      timeout_ms : int option;
      resume : Outcome.resume option;
      trace : string option;
    }
  | Explain of { id : string; domain : string option; formula : string; trace : string option }
  | Metrics of { id : string }
  | Ping of { id : string }
  | Snapshot of { id : string }
  | Shutdown of { id : string }
  | Reload of { id : string; path : string option }
  | Health of { id : string }
  | Traces of { id : string; limit : int option }
  | Fleet_status of { id : string }

let request_id = function
  | Eval { id; _ } | Explain { id; _ } | Metrics { id } | Ping { id } | Snapshot { id }
  | Shutdown { id } | Reload { id; _ } | Health { id } | Traces { id; _ }
  | Fleet_status { id } ->
    id

(* ----------------------------- requests ----------------------------- *)

let request_of_json j =
  let str name = Option.bind (Json.member name j) Json.to_str_opt in
  let int name = Option.bind (Json.member name j) Json.to_int_opt in
  let id =
    (* a numeric id is accepted and canonicalized to its decimal string *)
    match Json.member "id" j with
    | Some (Json.Str s) -> s
    | Some (Json.Int n) -> string_of_int n
    | _ -> ""
  in
  let with_formula k =
    match str "formula" with
    | Some formula -> k formula
    | None -> Error "protocol: missing formula"
  in
  match str "op" with
  | Some "eval" ->
    with_formula @@ fun formula ->
    Result.map
      (fun resume ->
        Eval
          { id;
            domain = str "domain";
            formula;
            fuel = int "fuel";
            timeout_ms = int "timeout_ms";
            resume;
            trace = str "trace" })
      (match Json.member "resume" j with
      | None | Some Json.Null -> Ok None
      | Some r -> Result.map Option.some (Outcome.resume_of_json r))
  | Some "explain" ->
    with_formula @@ fun formula ->
    Ok (Explain { id; domain = str "domain"; formula; trace = str "trace" })
  | Some "metrics" -> Ok (Metrics { id })
  | Some "ping" -> Ok (Ping { id })
  | Some "snapshot" -> Ok (Snapshot { id })
  | Some "shutdown" -> Ok (Shutdown { id })
  | Some "reload" -> Ok (Reload { id; path = str "path" })
  | Some "health" -> Ok (Health { id })
  | Some "traces" -> Ok (Traces { id; limit = int "limit" })
  | Some "fleet-status" -> Ok (Fleet_status { id })
  | Some op -> Error (Printf.sprintf "protocol: unknown op %S" op)
  | None -> Error "protocol: missing op"

let parse_request line = Result.bind (Json.parse line) request_of_json

let request_to_json req =
  let base op id rest = Json.Obj (("op", Json.Str op) :: ("id", Json.Str id) :: rest) in
  let opt name v f rest = match v with None -> rest | Some v -> (name, f v) :: rest in
  match req with
  | Eval { id; domain; formula; fuel; timeout_ms; resume; trace } ->
    base "eval" id
      (("formula", Json.Str formula)
      :: opt "domain" domain
           (fun d -> Json.Str d)
           (opt "fuel" fuel
              (fun n -> Json.Int n)
              (opt "timeout_ms" timeout_ms
                 (fun n -> Json.Int n)
                 (opt "resume" resume Outcome.resume_to_json
                    (opt "trace" trace (fun t -> Json.Str t) [])))))
  | Explain { id; domain; formula; trace } ->
    base "explain" id
      (("formula", Json.Str formula)
      :: opt "domain" domain
           (fun d -> Json.Str d)
           (opt "trace" trace (fun t -> Json.Str t) []))
  | Metrics { id } -> base "metrics" id []
  | Ping { id } -> base "ping" id []
  | Snapshot { id } -> base "snapshot" id []
  | Shutdown { id } -> base "shutdown" id []
  | Reload { id; path } -> base "reload" id (opt "path" path (fun p -> Json.Str p) [])
  | Health { id } -> base "health" id []
  | Traces { id; limit } -> base "traces" id (opt "limit" limit (fun n -> Json.Int n) [])
  | Fleet_status { id } -> base "fleet-status" id []

(* ----------------------------- responses ---------------------------- *)

let with_id id fields = Json.Obj (("id", Json.Str id) :: fields)

(* [trace] prepends a "trace" field right after the id; Outcome.of_json
   reads only the fields it knows, so traced replies still classify (and
   print) byte-identically to local [fq eval --json] output. *)
let outcome_response ~id ?trace outcome =
  let tr fields =
    match trace with None -> fields | Some t -> ("trace", Json.Str t) :: fields
  in
  match Outcome.to_json outcome with
  | Json.Obj fields -> with_id id (tr fields)
  | j -> with_id id (tr [ ("outcome", j) ]) (* unreachable: to_json builds an object *)

let reject_response ~id ~reason ~retry_after_ms ~resume =
  with_id id
    [ ("status", Json.Str "rejected");
      ("reason", Json.Str reason);
      ("retry_after_ms", Json.Int retry_after_ms);
      ("resume", Outcome.resume_to_json resume) ]

let malformed_response ~id reason =
  with_id id [ ("status", Json.Str "malformed"); ("reason", Json.Str reason) ]

let ok_response ~id fields = with_id id (("ok", Json.Bool true) :: fields)

(* -------------------------- fleet status ---------------------------- *)

type worker_info = {
  worker : string;
  worker_addr : string;
  up : bool;
  pid : int option;
  restarts : int;
}

let fleet_status_response ~id ~fleet workers =
  let member w =
    Json.Obj
      (("worker", Json.Str w.worker)
      :: ("addr", Json.Str w.worker_addr)
      :: ("up", Json.Bool w.up)
      :: (match w.pid with None -> [] | Some p -> [ ("pid", Json.Int p) ])
      @ [ ("restarts", Json.Int w.restarts) ])
  in
  ok_response ~id
    [ ("fleet", Json.Bool fleet); ("workers", Json.List (List.map member workers)) ]

let fleet_status_of_json j =
  match Json.member "ok" j with
  | Some (Json.Bool true) -> (
    let fleet =
      match Json.member "fleet" j with Some (Json.Bool b) -> b | _ -> false
    in
    match Json.member "workers" j with
    | Some (Json.List ws) ->
      let parse_worker w =
        let str name = Option.bind (Json.member name w) Json.to_str_opt in
        let int name = Option.bind (Json.member name w) Json.to_int_opt in
        match (str "worker", str "addr") with
        | Some worker, Some worker_addr ->
          Some
            { worker;
              worker_addr;
              up = (match Json.member "up" w with Some (Json.Bool b) -> b | _ -> false);
              pid = int "pid";
              restarts = (match int "restarts" with Some n -> n | None -> 0) }
        | _ -> None
      in
      let workers = List.filter_map parse_worker ws in
      if List.length workers = List.length ws then Ok (fleet, workers)
      else Error "protocol: malformed fleet-status worker entry"
    | _ -> Error "protocol: fleet-status reply missing workers"
  )
  | _ -> Error "protocol: fleet-status reply not ok"

type reply =
  | R_outcome of Outcome.t
  | R_rejected of { reason : string; retry_after_ms : int; resume : Outcome.resume option }
  | R_malformed of string
  | R_ok of Json.t

let classify_reply j =
  let id =
    match Option.bind (Json.member "id" j) Json.to_str_opt with Some s -> s | None -> ""
  in
  let reason () =
    match Option.bind (Json.member "reason" j) Json.to_str_opt with
    | Some r -> r
    | None -> "unknown"
  in
  match Option.bind (Json.member "status" j) Json.to_str_opt with
  | Some "rejected" ->
    let retry_after_ms =
      match Option.bind (Json.member "retry_after_ms" j) Json.to_int_opt with
      | Some n -> n
      | None -> 0
    in
    let resume =
      match Json.member "resume" j with
      | None -> None
      | Some r -> Result.to_option (Outcome.resume_of_json r)
    in
    Ok (id, R_rejected { reason = reason (); retry_after_ms; resume })
  | Some "malformed" -> Ok (id, R_malformed (reason ()))
  | Some _ -> Result.map (fun o -> (id, R_outcome o)) (Outcome.of_json j)
  | None -> (
    match Json.member "ok" j with
    | Some _ -> Ok (id, R_ok j)
    | None -> Error ("protocol: unclassifiable reply " ^ Json.to_string j))
