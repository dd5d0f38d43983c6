module Formula = Fq_logic.Formula
module Term = Fq_logic.Term

type db = (string * Crel.t) list

exception Unsupported of string

let ( let* ) = Result.bind

let rat_of_const c =
  match Rat.of_string c with
  | r -> r
  | exception _ -> raise (Unsupported (Printf.sprintf "constant %S is not a rational" c))

let term_of = function
  | Term.Var x -> Crel.V x
  | Term.Const c -> Crel.C (rat_of_const c)
  | Term.App (f, args) ->
    raise (Unsupported (Printf.sprintf "function %s/%d over (Q,<)" f (List.length args)))

let dedup xs =
  List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs |> List.rev

(* extend a relation to a superset of columns (new ones unconstrained) *)
let extend target r =
  let missing = List.filter (fun c -> not (List.mem c (Crel.columns r))) target in
  let widened = if missing = [] then r else Crel.join r (Crel.full ~columns:missing) in
  Crel.reorder ~columns:target widened

let atom_rel op t u =
  let vars = dedup (List.filter_map (function Crel.V x -> Some x | Crel.C _ -> None) [ t; u ]) in
  Crel.select { Crel.lhs = t; op; rhs = u } (Crel.full ~columns:vars)

let compile ~db f =
  let rec go f =
    (* one work unit per connective: the complement/join recursion can blow
       up doubly exponentially in the quantifier alternation depth *)
    Fq_core.Budget.tick_ambient ();
    match f with
    | Formula.True -> Crel.full ~columns:[]
    | Formula.False -> Crel.empty ~columns:[]
    | Formula.Eq (t, u) -> atom_rel Crel.Eq (term_of t) (term_of u)
    | Formula.Atom ("<", [ t; u ]) -> atom_rel Crel.Lt (term_of t) (term_of u)
    | Formula.Atom ("<=", [ t; u ]) -> atom_rel Crel.Le (term_of t) (term_of u)
    | Formula.Atom (">", [ t; u ]) -> atom_rel Crel.Lt (term_of u) (term_of t)
    | Formula.Atom (">=", [ t; u ]) -> atom_rel Crel.Le (term_of u) (term_of t)
    | Formula.Atom (r, args) -> db_atom r args
    | Formula.Not g ->
      (* complement relative to the subformula's own free columns *)
      Crel.complement (go g)
    | Formula.And (g, h) -> Crel.join (go g) (go h)
    | Formula.Or (g, h) ->
      let cg = go g and ch = go h in
      let target = dedup (Crel.columns cg @ Crel.columns ch) in
      Crel.union (extend target cg) (extend target ch)
    | Formula.Imp (g, h) -> go (Formula.Or (Formula.Not g, h))
    | Formula.Iff (g, h) ->
      go (Formula.Or (Formula.And (g, h), Formula.And (Formula.Not g, Formula.Not h)))
    | Formula.Exists (x, g) ->
      let cg = go g in
      let keep = List.filter (fun c -> c <> x) (Crel.columns cg) in
      Crel.project ~keep cg
    | Formula.Forall (x, g) -> go (Formula.Not (Formula.Exists (x, Formula.Not g)))
  and db_atom r args =
    match List.assoc_opt r db with
    | None -> raise (Unsupported (Printf.sprintf "unknown constraint relation %s" r))
    | Some rel ->
      let cols = Crel.columns rel in
      if List.length cols <> List.length args then
        raise
          (Unsupported
             (Printf.sprintf "relation %s has arity %d, used with %d arguments" r
                (List.length cols) (List.length args)));
      (* rename stored columns apart, equate with the argument terms, then
         project onto the argument variables *)
      let fresh = List.mapi (fun i c -> (c, Printf.sprintf "%s__arg%d" r i)) cols in
      let renamed = Crel.rename fresh rel in
      let arg_terms = List.map term_of args in
      let with_args =
        List.fold_left2
          (fun acc (_, f) t -> Crel.select { Crel.lhs = Crel.V f; op = Crel.Eq; rhs = t } acc)
          (Crel.join renamed
             (Crel.full
                ~columns:
                  (dedup
                     (List.filter_map (function Crel.V x -> Some x | Crel.C _ -> None) arg_terms))))
          fresh arg_terms
      in
      let keep =
        dedup (List.filter_map (function Crel.V x -> Some x | Crel.C _ -> None) arg_terms)
      in
      Crel.project ~keep with_args
  in
  match go f with
  | rel ->
    (* order the columns by first occurrence of the free variables *)
    let free = Formula.free_vars f in
    let cols = Crel.columns rel in
    let target = List.filter (fun v -> List.mem v cols) free in
    if List.sort compare target = List.sort compare cols then
      Ok (Crel.reorder ~columns:target rel)
    else Ok rel
  | exception Unsupported msg -> Error msg

let query ~db f = Fq_core.Budget.protect (fun () -> compile ~db f)

let holds ~db f ~env =
  Fq_core.Budget.protect (fun () ->
      let* rel = compile ~db f in
      let cols = Crel.columns rel in
      let* tuple =
        List.fold_right
          (fun c acc ->
            let* acc = acc in
            match List.assoc_opt c env with
            | Some r -> Ok (r :: acc)
            | None -> Error (Printf.sprintf "no value for free variable %s" c))
          cols (Ok [])
      in
      Ok (Crel.mem rel tuple))

let decide ~db f =
  Fq_core.Budget.protect (fun () ->
      let* rel = compile ~db f in
      if Crel.columns rel <> [] then Error "not a sentence"
      else Ok (not (Crel.is_empty rel)))
