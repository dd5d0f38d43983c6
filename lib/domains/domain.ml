module Formula = Fq_logic.Formula
module Term = Fq_logic.Term
module Signature = Fq_logic.Signature
module Value = Fq_db.Value

module type S = sig
  val name : string
  val signature : Signature.t
  val member : Value.t -> bool
  val constant : string -> Value.t option
  val const_name : Value.t -> string
  val eval_fun : string -> Value.t list -> Value.t option
  val eval_pred : string -> Value.t list -> bool option
  val enumerate : unit -> Value.t Seq.t
  val seeds : Value.t list -> Value.t Seq.t
  val decide : Formula.t -> (bool, string) result
end

type t = (module S)

let ( let* ) = Result.bind

let rec eval_ground_env (module D : S) env t =
  match t with
  | Term.Var v -> (
    match List.assoc_opt v env with
    | Some value -> Ok value
    | None -> Error (Printf.sprintf "unbound variable %s" v))
  | Term.Const c -> (
    match D.constant c with
    | Some value -> Ok value
    | None -> Error (Printf.sprintf "constant %S has no %s interpretation" c D.name))
  | Term.App (f, args) ->
    let* values = eval_args (module D : S) env args in
    (match D.eval_fun f values with
    | Some value -> Ok value
    | None -> Error (Printf.sprintf "no %s function %s/%d" D.name f (List.length args)))

and eval_args d env = function
  | [] -> Ok []
  | t :: rest ->
    let* v = eval_ground_env d env t in
    let* vs = eval_args d env rest in
    Ok (v :: vs)

let eval_ground d t = eval_ground_env d [] t

let holds_qf (module D : S) ~env f =
  let rec go f =
    match f with
    | Formula.True -> Ok true
    | Formula.False -> Ok false
    | Formula.Eq (t, u) ->
      let* a = eval_ground_env (module D : S) env t in
      let* b = eval_ground_env (module D : S) env u in
      Ok (Value.equal a b)
    | Formula.Atom (p, args) ->
      let* values = eval_args (module D : S) env args in
      (match D.eval_pred p values with
      | Some b -> Ok b
      | None -> Error (Printf.sprintf "no %s predicate %s/%d" D.name p (List.length args)))
    | Formula.Not g ->
      let* b = go g in
      Ok (not b)
    | Formula.And (g, h) ->
      let* a = go g in
      if not a then Ok false else go h
    | Formula.Or (g, h) ->
      let* a = go g in
      if a then Ok true else go h
    | Formula.Imp (g, h) ->
      let* a = go g in
      if not a then Ok true else go h
    | Formula.Iff (g, h) ->
      let* a = go g in
      let* b = go h in
      Ok (a = b)
    | Formula.Exists _ | Formula.Forall _ ->
      Error "holds_qf: quantifiers require a decision procedure"
  in
  go f

let with_decide (module D : S) decide : t =
  (module struct
    let name = D.name
    let signature = D.signature
    let member = D.member
    let constant = D.constant
    let const_name = D.const_name
    let eval_fun = D.eval_fun
    let eval_pred = D.eval_pred
    let enumerate = D.enumerate
    let seeds = D.seeds
    let decide = decide
  end)
