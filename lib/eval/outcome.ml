(* The first-class evaluation outcome.

   Before this module the Complete/Partial/Unsupported taxonomy lived as
   an ad-hoc record inside Query and was re-flattened by every front end
   (fq eval printed it, fq batch re-classified it, exit codes were mapped
   in bin/fq.ml).  Here the taxonomy, its stable JSON schema, and the
   0/3/4 exit-code mapping live once; eval, batch, and the serve wire
   protocol all consume this module unchanged. *)

module Budget = Fq_core.Budget
module Json = Fq_core.Json
module Bigint = Fq_numeric.Bigint
module Value = Fq_db.Value
module Row = Fq_db.Row
module Relation = Fq_db.Relation

type resume = { seen : int; found : Relation.t }

type verdict =
  | Complete of { answer : Relation.t; tier : string }
  | Partial of { tuples : Relation.t; reason : Budget.failure; resume : resume }
  | Failed of { reason : string }

type t = {
  verdict : verdict;
  usage : Budget.usage;
  attempts : (string * string) list;
}

let failed reason =
  { verdict = Failed { reason }; usage = { Budget.ticks = 0; elapsed_ms = 0. }; attempts = [] }

(* ---------------------------- exit codes ---------------------------- *)

let exit_partial = 3
let exit_unsupported = 4

let exit_of_error msg =
  match Budget.failure_of_string msg with
  | Some (Budget.Unsupported _) -> exit_unsupported
  | Some _ -> exit_partial
  | None -> 1

let status o =
  match o.verdict with
  | Complete _ -> "complete"
  | Partial _ -> "partial"
  | Failed { reason } -> (
    match Budget.failure_of_string reason with
    | Some (Budget.Unsupported _) -> "unsupported"
    | _ -> "error")

let exit_code o =
  match o.verdict with
  | Complete _ -> 0
  | Partial _ -> exit_partial
  | Failed { reason } -> exit_of_error reason

(* ------------------------------- JSON ------------------------------- *)

let value_to_json = function
  | Value.Int n -> (
    match Bigint.to_int_opt n with
    | Some i -> Json.Int i
    | None -> Json.Intlit (Bigint.to_string n))
  | Value.Str s -> Json.Str s

let value_of_json = function
  | Json.Int i -> Ok (Value.int i)
  | Json.Intlit s -> (
    match Bigint.of_string s with
    | n -> Ok (Value.big n)
    | exception _ -> Error (Printf.sprintf "outcome: bad integer literal %S" s))
  | Json.Str s -> Ok (Value.str s)
  | j -> Error ("outcome: bad value " ^ Json.to_string j)

let relation_to_json r =
  let rows =
    Array.to_list (Relation.rows r)
    |> List.map (fun row -> Json.List (List.map value_to_json (Row.to_list row)))
  in
  Json.Obj [ ("arity", Json.Int (Relation.arity r)); ("rows", Json.List rows) ]

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    Result.bind (f x) (fun y -> Result.map (fun ys -> y :: ys) (map_result f rest))

(* every row is checked against the arity here, so a malformed token is
   an [Error] reply, never an exception in the reader *)
let relation_of_json j =
  match (Option.bind (Json.member "arity" j) Json.to_int_opt, Json.member "rows" j) with
  | Some arity, Some (Json.List rows) when arity >= 0 ->
    Result.map
      (fun rows -> Relation.of_rows ~arity (Array.of_list (List.map Row.of_list rows)))
      (map_result
         (function
           | Json.List vs when List.length vs = arity -> map_result value_of_json vs
           | j -> Error ("outcome: bad row " ^ Json.to_string j))
         rows)
  | _ -> Error ("outcome: bad relation " ^ Json.to_string j)

let resume_to_json { seen; found } =
  Json.Obj [ ("seen", Json.Int seen); ("found", relation_to_json found) ]

let resume_of_json j =
  match (Option.bind (Json.member "seen" j) Json.to_int_opt, Json.member "found" j) with
  | Some seen, Some rel -> Result.map (fun found -> { seen; found }) (relation_of_json rel)
  | _ -> Error ("outcome: bad resume token " ^ Json.to_string j)

let usage_to_json (u : Budget.usage) =
  Json.Obj
    [ ("ticks", Json.Int u.Budget.ticks); ("elapsed_ms", Json.Float u.Budget.elapsed_ms) ]

let usage_of_json j =
  match
    ( Option.bind (Json.member "ticks" j) Json.to_int_opt,
      Option.bind (Json.member "elapsed_ms" j) Json.to_float_opt )
  with
  | Some ticks, Some elapsed_ms -> Ok { Budget.ticks; elapsed_ms }
  | _ -> Error ("outcome: bad usage " ^ Json.to_string j)

let attempts_to_json attempts =
  Json.List
    (List.map
       (fun (tier, reason) ->
         Json.Obj [ ("tier", Json.Str tier); ("reason", Json.Str reason) ])
       attempts)

let attempts_of_json = function
  | None -> Ok []
  | Some (Json.List items) ->
    map_result
      (fun item ->
        match
          ( Option.bind (Json.member "tier" item) Json.to_str_opt,
            Option.bind (Json.member "reason" item) Json.to_str_opt )
        with
        | Some tier, Some reason -> Ok (tier, reason)
        | _ -> Error ("outcome: bad attempt " ^ Json.to_string item))
      items
  | Some j -> Error ("outcome: bad attempts " ^ Json.to_string j)

let to_json o =
  let tail =
    [ ("usage", usage_to_json o.usage); ("attempts", attempts_to_json o.attempts) ]
  in
  match o.verdict with
  | Complete { answer; tier } ->
    Json.Obj
      (("status", Json.Str "complete")
      :: ("tier", Json.Str tier)
      :: ("answer", relation_to_json answer)
      :: tail)
  | Partial { tuples; reason; resume } ->
    Json.Obj
      (("status", Json.Str "partial")
      :: ("reason", Json.Str (Budget.error_string reason))
      :: ("tuples", relation_to_json tuples)
      :: ("resume", resume_to_json resume)
      :: tail)
  | Failed { reason } ->
    Json.Obj (("status", Json.Str (status o)) :: ("reason", Json.Str reason) :: tail)

let of_json j =
  let field name = Json.member name j in
  let str name = Option.bind (field name) Json.to_str_opt in
  Result.bind
    (match field "usage" with
    | None -> Ok { Budget.ticks = 0; elapsed_ms = 0. }
    | Some u -> usage_of_json u)
  @@ fun usage ->
  Result.bind (attempts_of_json (field "attempts")) @@ fun attempts ->
  let finish verdict = Ok { verdict; usage; attempts } in
  match str "status" with
  | Some "complete" -> (
    match (str "tier", field "answer") with
    | Some tier, Some rel ->
      Result.bind (relation_of_json rel) (fun answer -> finish (Complete { answer; tier }))
    | _ -> Error ("outcome: bad complete " ^ Json.to_string j))
  | Some "partial" -> (
    match (str "reason", field "tuples", field "resume") with
    | Some reason, Some rel, Some res -> (
      match Budget.failure_of_string reason with
      | None -> Error (Printf.sprintf "outcome: unknown partial reason %S" reason)
      | Some reason ->
        Result.bind (relation_of_json rel) @@ fun tuples ->
        Result.bind (resume_of_json res) @@ fun resume ->
        finish (Partial { tuples; reason; resume }))
    | _ -> Error ("outcome: bad partial " ^ Json.to_string j))
  | Some ("unsupported" | "error") -> (
    match str "reason" with
    | Some reason -> finish (Failed { reason })
    | None -> Error ("outcome: missing reason " ^ Json.to_string j))
  | Some s -> Error (Printf.sprintf "outcome: unknown status %S" s)
  | None -> Error ("outcome: missing status " ^ Json.to_string j)

(* ----------------------------- rendering ---------------------------- *)

let pp fmt r =
  Format.fprintf fmt "@[<v>";
  (match r.verdict with
  | Complete { answer; tier } ->
    Format.fprintf fmt "complete (%s, %d tuples): %a@," tier (Relation.cardinal answer)
      Relation.pp answer
  | Partial { tuples; reason; resume } ->
    Format.fprintf fmt "partial (%a after %d candidates): %d tuples so far@," Budget.pp_failure
      reason resume.seen (Relation.cardinal tuples)
  | Failed { reason } -> Format.fprintf fmt "failed: %s@," reason);
  List.iter (fun (tier, why) -> Format.fprintf fmt "tier %s passed: %s@," tier why) r.attempts;
  Format.fprintf fmt "spent: %d ticks, %.1f ms@]" r.usage.Budget.ticks r.usage.Budget.elapsed_ms
