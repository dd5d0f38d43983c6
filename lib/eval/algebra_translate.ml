module Formula = Fq_logic.Formula
module Term = Fq_logic.Term
module Value = Fq_db.Value
module Relation = Fq_db.Relation
module Relalg = Fq_db.Relalg
module Schema = Fq_db.Schema
module State = Fq_db.State

type compiled = {
  plan : Relalg.t;
  columns : string list;
}

exception Unsupported of string

let ( let* ) = Result.bind

(* position of [x] in [cols] *)
let col_of cols x =
  let rec go i = function
    | [] -> raise (Unsupported (Printf.sprintf "internal: missing column %s" x))
    | c :: _ when c = x -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 cols

let dedup xs =
  List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs |> List.rev

let compile ?stats ~domain ~state ?(extra_adom = []) f =
  let (module D : Fq_domain.Domain.S) = domain in
  let schema = State.schema state in
  let stats =
    match stats with Some s -> s | None -> Fq_db.Optimizer.Stats.of_state state
  in
  let interpret_const c =
    if Term.is_scheme_const c then
      match State.constant state c with
      | v -> v
      | exception Not_found ->
        raise (Unsupported (Printf.sprintf "scheme constant %s is uninterpreted" c))
    else
      match D.constant c with
      | Some v -> v
      | None -> raise (Unsupported (Printf.sprintf "constant %S has no %s value" c D.name))
  in
  let adom_values =
    List.sort_uniq Value.compare
      (Translate.active_domain ~domain ~state f @ extra_adom)
  in
  let adom = Relalg.Lit (Relation.of_values adom_values) in
  (* plan whose columns are [vars], every variable ranging over adom *)
  let adom_power vars =
    match vars with
    | [] -> Relalg.Lit (Relation.make ~arity:0 [ [] ])
    | v :: rest ->
      ignore v;
      List.fold_left (fun acc _ -> Relalg.Product (acc, adom)) adom rest
  in
  (* extend a compiled plan to the given (superset) column list, in order *)
  let extend { plan; columns } target =
    let missing = List.filter (fun v -> not (List.mem v columns)) target in
    let widened = if missing = [] then plan else Relalg.Product (plan, adom_power missing) in
    let wide_cols = columns @ missing in
    let projection = List.map (col_of wide_cols) target in
    { plan = Relalg.Project (projection, widened); columns = target }
  in
  let arg_of cols = function
    | Term.Var x -> Relalg.Col (col_of cols x)
    | Term.Const c -> Relalg.Const (interpret_const c)
    | Term.App (fn, _) ->
      raise (Unsupported (Printf.sprintf "function term %s(...) has no algebraic form" fn))
  in
  let rec go f =
    match f with
    | Formula.True -> { plan = Relalg.Lit (Relation.make ~arity:0 [ [] ]); columns = [] }
    | Formula.False -> { plan = Relalg.Lit (Relation.empty ~arity:0); columns = [] }
    | Formula.Atom (r, args) when Schema.mem_relation schema r ->
      compile_db_atom r args
    | Formula.Atom (p, args) ->
      (* domain predicate over adom^k *)
      let vars = dedup (List.concat_map Term.vars args) in
      let base = adom_power vars in
      let cond = Relalg.Domain_pred (p, List.map (arg_of vars) args) in
      { plan = Relalg.Select (cond, base); columns = vars }
    | Formula.Eq (t, u) ->
      let vars = dedup (Term.vars t @ Term.vars u) in
      let base = adom_power vars in
      let cond = Relalg.Eq (arg_of vars t, arg_of vars u) in
      { plan = Relalg.Select (cond, base); columns = vars }
    | Formula.Not g ->
      let { plan; columns } = go g in
      { plan = Relalg.Diff (adom_power columns, plan); columns }
    | Formula.And (g, h) ->
      let cg = go g in
      let ch = go h in
      natural_join cg ch
    | Formula.Or (g, h) ->
      let cg = go g in
      let ch = go h in
      let target = dedup (cg.columns @ ch.columns) in
      let eg = extend cg target and eh = extend ch target in
      { plan = Relalg.Union (eg.plan, eh.plan); columns = target }
    | Formula.Exists (x, g) ->
      let cg = extend (go g) (dedup (Formula.free_vars g @ [ x ])) in
      (* [extend] appends x over adom when g does not mention it, keeping
         active-domain semantics faithful even for vacuous quantifiers *)
      let keep = List.filter (fun v -> v <> x) cg.columns in
      { plan = Relalg.Project (List.map (col_of cg.columns) keep, cg.plan); columns = keep }
    | Formula.Forall (x, g) -> go (Formula.Not (Formula.Exists (x, Formula.Not g)))
    | Formula.Imp (g, h) -> go (Formula.Or (Formula.Not g, h))
    | Formula.Iff (g, h) ->
      go (Formula.Or (Formula.And (g, h), Formula.And (Formula.Not g, Formula.Not h)))
  and compile_db_atom r args =
    let vars = dedup (List.concat_map Term.vars args) in
    List.iter
      (fun t ->
        match t with
        | Term.App (fn, _) ->
          raise (Unsupported (Printf.sprintf "function term %s(...) inside %s" fn r))
        | Term.Var _ | Term.Const _ -> ())
      args;
    (* select constants and repeated variables, then project to the first
       occurrence of each variable *)
    let conds =
      List.concat
        (List.mapi
           (fun i t ->
             match t with
             | Term.Const c -> [ Relalg.Eq (Relalg.Col i, Relalg.Const (interpret_const c)) ]
             | Term.Var x ->
               (* equate with the first occurrence of x *)
               let first =
                 let rec find j = function
                   | Term.Var y :: _ when y = x -> j
                   | _ :: rest -> find (j + 1) rest
                   | [] -> assert false
                 in
                 find 0 args
               in
               if first < i then [ Relalg.Eq (Relalg.Col i, Relalg.Col first) ] else []
             | Term.App _ -> [])
           args)
    in
    let selected =
      List.fold_left (fun acc c -> Relalg.Select (c, acc)) (Relalg.Rel r) conds
    in
    let projection =
      List.map
        (fun x ->
          let rec find j = function
            | Term.Var y :: _ when y = x -> j
            | _ :: rest -> find (j + 1) rest
            | [] -> assert false
          in
          find 0 args)
        vars
    in
    { plan = Relalg.Project (projection, selected); columns = vars }
  and natural_join cg ch =
    let shared = List.filter (fun v -> List.mem v cg.columns) ch.columns in
    (* shared columns become hash-join keys; without shared columns the
       join degenerates to a product *)
    let pairs =
      List.map (fun v -> (col_of cg.columns v, col_of ch.columns v)) shared
    in
    let selected =
      match pairs with
      | [] -> Relalg.Product (cg.plan, ch.plan)
      | _ -> Relalg.Join (pairs, cg.plan, ch.plan)
    in
    let target = dedup (cg.columns @ ch.columns) in
    let all_cols = cg.columns @ ch.columns in
    let projection =
      List.map
        (fun v ->
          (* first occurrence within the concatenated columns *)
          let rec find j = function
            | c :: _ when c = v -> j
            | _ :: rest -> find (j + 1) rest
            | [] -> assert false
          in
          find 0 all_cols)
        target
    in
    { plan = Relalg.Project (projection, selected); columns = target }
  in
  match go f with
  | compiled ->
    Ok { compiled with plan = Fq_db.Optimizer.optimize_for ~stats ~schema compiled.plan }
  | exception Unsupported msg -> Error msg

(* shadowing wrapper: compilation cost shows up as its own span *)
let compile ?stats ~domain ~state ?extra_adom f =
  Fq_core.Telemetry.with_span "adom.compile" (fun () ->
      compile ?stats ~domain ~state ?extra_adom f)

let eval_compiled ~domain ~state { plan; columns = _ } =
  let (module D : Fq_domain.Domain.S) = domain in
  let domain_pred p values =
    match D.eval_pred p values with
    | Some b -> b
    | None -> invalid_arg (Printf.sprintf "no %s predicate %s" D.name p)
  in
  match Relalg.eval ~state ~domain_pred plan with
  | rel -> Ok rel
  | exception Invalid_argument msg -> Error msg

let run ?stats ~domain ~state ?extra_adom f =
  let* compiled = compile ?stats ~domain ~state ?extra_adom f in
  eval_compiled ~domain ~state compiled
