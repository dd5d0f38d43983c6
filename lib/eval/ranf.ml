module Formula = Fq_logic.Formula
module Term = Fq_logic.Term
module Value = Fq_db.Value
module Relation = Fq_db.Relation
module Relalg = Fq_db.Relalg
module Schema = Fq_db.Schema
module State = Fq_db.State
module Sset = Fq_logic.Formula.Sset

exception Not_ranf of string

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* SRNF → RANF: distribute conjunctive guards into disjunctions whose   *)
(* disjuncts bind unequal variable sets.                                *)
(* ------------------------------------------------------------------ *)

let rec push_guards f =
  match f with
  | Formula.True | Formula.False | Formula.Atom _ | Formula.Eq _ -> f
  | Formula.Not g -> Formula.Not (push_guards g)
  | Formula.Exists (v, g) -> Formula.Exists (v, push_guards g)
  | Formula.Or (g, h) -> Formula.Or (push_guards g, push_guards h)
  | Formula.And _ ->
    let conjuncts = List.map push_guards (Formula.conjuncts f) in
    (* find a disjunction whose sides have unequal free sets and
       distribute the remaining conjuncts into it *)
    let needs_distribution = function
      | Formula.Or (a, b) -> not (Sset.equal (Formula.free_var_set a) (Formula.free_var_set b))
      | _ -> false
    in
    (match List.partition needs_distribution conjuncts with
    | [], _ -> Formula.conj conjuncts
    | Formula.Or (a, b) :: more_or, rest ->
      let others = more_or @ rest in
      push_guards
        (Formula.Or (Formula.conj (a :: others), Formula.conj (b :: others)))
    | _ -> assert false)
  | Formula.Imp _ | Formula.Iff _ | Formula.Forall _ ->
    invalid_arg "Ranf.push_guards: input must be in SRNF"

let to_ranf f = push_guards (Safe_range.srnf f)

(* ------------------------------------------------------------------ *)
(* Translation                                                          *)
(* ------------------------------------------------------------------ *)

let dedup xs =
  List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs |> List.rev

let col_of cols x =
  let rec go i = function
    | [] -> raise (Not_ranf (Printf.sprintf "variable %s is not range-restricted here" x))
    | c :: _ when c = x -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 cols

type compiled = Algebra_translate.compiled = {
  plan : Relalg.t;
  columns : string list;
}

let compile ?stats ~domain ~state f =
  let (module D : Fq_domain.Domain.S) = domain in
  let schema = State.schema state in
  let stats =
    match stats with Some s -> s | None -> Fq_db.Optimizer.Stats.of_state state
  in
  let interpret_const c =
    if Term.is_scheme_const c then
      match State.constant state c with
      | v -> v
      | exception Not_found -> raise (Not_ranf (Printf.sprintf "scheme constant %s uninterpreted" c))
    else
      match D.constant c with
      | Some v -> v
      | None -> raise (Not_ranf (Printf.sprintf "constant %S has no %s value" c D.name))
  in
  let arg_of cols = function
    | Term.Var x -> Relalg.Col (col_of cols x)
    | Term.Const c -> Relalg.Const (interpret_const c)
    | Term.App (fn, _) -> raise (Not_ranf (Printf.sprintf "function term %s(...)" fn))
  in
  (* Guard-pushing retries must terminate even on adversarial inputs; the
     counter bounds the total number of retries per compilation. *)
  let retries = ref 0 in
  let count_retry () =
    incr retries;
    if !retries > 200 then raise (Not_ranf "guard pushing did not converge")
  in
  (* natural join of two compiled plans, as a hash equijoin on the
     shared columns (a product when none are shared) *)
  let natural_join cg ch =
    let shared = List.filter (fun v -> List.mem v cg.columns) ch.columns in
    let pairs =
      List.map (fun v -> (col_of cg.columns v, col_of ch.columns v)) shared
    in
    let selected =
      match pairs with
      | [] -> Relalg.Product (cg.plan, ch.plan)
      | _ -> Relalg.Join (pairs, cg.plan, ch.plan)
    in
    let target = dedup (cg.columns @ ch.columns) in
    let all = cg.columns @ ch.columns in
    let projection =
      List.map
        (fun v ->
          let rec find j = function
            | c :: _ when c = v -> j
            | _ :: rest -> find (j + 1) rest
            | [] -> assert false
          in
          find 0 all)
        target
    in
    { plan = Relalg.Project (projection, selected); columns = target }
  in
  (* anti-join: tuples of [cur] with no match in [neg] (free(neg) ⊆ cur) *)
  let anti_join cur neg =
    if not (List.for_all (fun v -> List.mem v cur.columns) neg.columns) then
      raise (Not_ranf "negation is not guarded by its conjunction");
    let joined = natural_join cur neg in
    let matching =
      { plan =
          Relalg.Project (List.map (col_of joined.columns) cur.columns, joined.plan);
        columns = cur.columns }
    in
    { cur with plan = Relalg.Diff (cur.plan, matching.plan) }
  in
  let rec go f =
    match f with
    | Formula.True -> { plan = Relalg.Lit (Relation.make ~arity:0 [ [] ]); columns = [] }
    | Formula.False -> { plan = Relalg.Lit (Relation.empty ~arity:0); columns = [] }
    | Formula.Atom (r, args) when Schema.mem_relation schema r -> db_atom r args
    | Formula.Atom (p, args) ->
      raise
        (Not_ranf
           (Printf.sprintf "domain predicate %s/%d generates no bindings" p (List.length args)))
    | Formula.Eq (Term.Var x, Term.Const c) | Formula.Eq (Term.Const c, Term.Var x) ->
      { plan = Relalg.Lit (Relation.make ~arity:1 [ [ interpret_const c ] ]); columns = [ x ] }
    | Formula.Eq (Term.Const a, Term.Const b) ->
      if Value.equal (interpret_const a) (interpret_const b) then go Formula.True
      else go Formula.False
    | Formula.Eq _ -> raise (Not_ranf "unguarded equality between variables")
    | Formula.Not g ->
      (* only a closed negation is self-contained *)
      let cg = go g in
      if cg.columns <> [] then raise (Not_ranf "unguarded negation")
      else { plan = Relalg.Diff (Relalg.Lit (Relation.make ~arity:0 [ [] ]), cg.plan); columns = [] }
    | Formula.Or (g, h) ->
      let cg = go g and ch = go h in
      if List.sort compare cg.columns <> List.sort compare ch.columns then
        raise (Not_ranf "disjuncts bind different variables (push_guards missed a case)")
      else
        let reordered =
          { plan = Relalg.Project (List.map (col_of ch.columns) cg.columns, ch.plan);
            columns = cg.columns }
        in
        { cg with plan = Relalg.Union (cg.plan, reordered.plan) }
    | Formula.Exists (x, g) ->
      let cg = go g in
      if not (List.mem x cg.columns) then
        raise (Not_ranf (Printf.sprintf "quantified variable %s is not restricted" x))
      else
        let keep = List.filter (fun v -> v <> x) cg.columns in
        { plan = Relalg.Project (List.map (col_of cg.columns) keep, cg.plan); columns = keep }
    | Formula.And _ -> compile_and (Formula.conjuncts f)
    | Formula.Imp _ | Formula.Iff _ | Formula.Forall _ ->
      invalid_arg "Ranf.compile: input not normalized (internal error)"
  and db_atom r args =
    let vars = dedup (List.concat_map Term.vars args) in
    List.iter
      (function
        | Term.App (fn, _) -> raise (Not_ranf (Printf.sprintf "function term %s(...)" fn))
        | Term.Var _ | Term.Const _ -> ())
      args;
    let conds =
      List.concat
        (List.mapi
           (fun i t ->
             match t with
             | Term.Const c -> [ Relalg.Eq (Relalg.Col i, Relalg.Const (interpret_const c)) ]
             | Term.Var x ->
               let rec first j = function
                 | Term.Var y :: _ when y = x -> j
                 | _ :: rest -> first (j + 1) rest
                 | [] -> assert false
               in
               let fst_occ = first 0 args in
               if fst_occ < i then [ Relalg.Eq (Relalg.Col i, Relalg.Col fst_occ) ] else []
             | Term.App _ -> [])
           args)
    in
    let selected = List.fold_left (fun acc c -> Relalg.Select (c, acc)) (Relalg.Rel r) conds in
    let projection =
      List.map
        (fun x ->
          let rec first j = function
            | Term.Var y :: _ when y = x -> j
            | _ :: rest -> first (j + 1) rest
            | [] -> assert false
          in
          first 0 args)
        vars
    in
    { plan = Relalg.Project (projection, selected); columns = vars }
  and compile_and conjuncts =
    (* classify conjuncts *)
    let is_generator = function
      | Formula.Atom (r, _) when Schema.mem_relation schema r -> true
      | Formula.Eq (Term.Var _, Term.Const _) | Formula.Eq (Term.Const _, Term.Var _) -> true
      | Formula.And _ | Formula.Or _ | Formula.Exists _ | Formula.True | Formula.False -> true
      | Formula.Eq (Term.Const _, Term.Const _) -> true
      | _ -> false
    in
    let generators, residual = List.partition is_generator conjuncts in
    if generators = [] then raise (Not_ranf "conjunction has no generating conjunct");
    (* Generators that compile on their own come first; a generator whose
       own variables are not all generated inside it (e.g. ∃z (F(x,z) ∧
       z ≠ y) under the guard F(x,y)) gets the self-compilable guard
       pushed under its quantifier prefix: G ∧ ∃z ψ ≡ G ∧ ∃z (G ∧ ψ). *)
    let rec guard_into g c =
      match c with
      | Formula.Exists (v, body) -> Formula.Exists (v, guard_into g body)
      | Formula.Or (a, b) -> Formula.Or (guard_into g a, guard_into g b)
      | Formula.And (a, b) -> Formula.And (guard_into g a, b)
      | c -> Formula.And (g, c)
    in
    let compiled_or_failed =
      List.map (fun g -> match go g with p -> Ok (g, p) | exception Not_ranf m -> Error (g, m)) generators
    in
    let self_ok = List.filter_map Result.to_option compiled_or_failed in
    if self_ok = [] then
      raise (Not_ranf "conjunction has no self-contained generating conjunct");
    let guard_formula = Formula.conj (List.map fst self_ok) in
    let base =
      List.fold_left
        (fun acc (_, p) -> natural_join acc p)
        (snd (List.hd self_ok))
        (List.tl self_ok)
    in
    let base =
      List.fold_left
        (fun acc r ->
          match r with
          | Ok _ -> acc
          | Error (g, _) ->
            count_retry ();
            natural_join acc (go (guard_into guard_formula g)))
        base compiled_or_failed
    in
    (* apply residual conjuncts until a fixpoint: variable equalities can
       extend the column set, everything else selects or anti-joins *)
    let rec apply cur pending progress stuck =
      match pending with
      | [] ->
        if stuck = [] then cur
        else if progress then apply cur (List.rev stuck) false []
        else
          raise
            (Not_ranf
               (Printf.sprintf "unguarded conjunct: %s"
                  (Formula.to_string (List.hd stuck))))
      | c :: rest -> (
        match c with
        | Formula.Eq (Term.Var x, Term.Var y) ->
          let hx = List.mem x cur.columns and hy = List.mem y cur.columns in
          if hx && hy then
            apply
              { cur with
                plan =
                  Relalg.Select
                    ( Relalg.Eq (Relalg.Col (col_of cur.columns x), Relalg.Col (col_of cur.columns y)),
                      cur.plan ) }
              rest true stuck
          else if hx || hy then begin
            (* extend with a copy of the known column *)
            let known, fresh = if hx then (x, y) else (y, x) in
            let proj = List.map (col_of cur.columns) cur.columns @ [ col_of cur.columns known ] in
            apply
              { plan = Relalg.Project (proj, cur.plan); columns = cur.columns @ [ fresh ] }
              rest true stuck
          end
          else apply cur rest progress (c :: stuck)
        | Formula.Atom (p, args) ->
          (* domain predicate: selection over present columns *)
          if List.for_all (fun v -> List.mem v cur.columns) (dedup (List.concat_map Term.vars args))
          then
            apply
              { cur with
                plan = Relalg.Select (Relalg.Domain_pred (p, List.map (arg_of cur.columns) args), cur.plan) }
              rest true stuck
          else apply cur rest progress (c :: stuck)
        | Formula.Not (Formula.Eq (t, u)) ->
          let vars = dedup (Term.vars t @ Term.vars u) in
          if List.for_all (fun v -> List.mem v cur.columns) vars then
            apply
              { cur with
                plan =
                  Relalg.Select
                    (Relalg.Not (Relalg.Eq (arg_of cur.columns t, arg_of cur.columns u)), cur.plan) }
              rest true stuck
          else apply cur rest progress (c :: stuck)
        | Formula.Not (Formula.Atom (p, args)) when not (Schema.mem_relation schema p) ->
          let vars = dedup (List.concat_map Term.vars args) in
          if List.for_all (fun v -> List.mem v cur.columns) vars then
            apply
              { cur with
                plan =
                  Relalg.Select
                    (Relalg.Not (Relalg.Domain_pred (p, List.map (arg_of cur.columns) args)), cur.plan) }
              rest true stuck
          else apply cur rest progress (c :: stuck)
        | Formula.Not g ->
          (* guarded negation: anti-join when g's variables are covered.
             ψ itself need not be safe-range — on tuples of the current
             plan the generators hold, so ¬ψ ≡ ¬(generators ∧ ψ), and the
             right-hand side is compilable. *)
          if Sset.for_all (fun v -> List.mem v cur.columns) (Formula.free_var_set g) then begin
            let neg =
              try go g
              with Not_ranf _ ->
                count_retry ();
                go (guard_into guard_formula g)
            in
            apply (anti_join cur neg) rest true stuck
          end
          else apply cur rest progress (c :: stuck)
        | _ -> apply cur rest progress (c :: stuck))
    in
    apply base residual false []
  in
  let normalized = to_ranf f in
  match go normalized with
  | compiled ->
    (* order columns by first occurrence among the original free variables *)
    let free = Formula.free_vars f in
    if List.sort compare free <> List.sort compare compiled.columns then
      Error
        (Printf.sprintf "not safe-range: free variables %s vs restricted %s"
           (String.concat "," free)
           (String.concat "," compiled.columns))
    else
      let plan = Relalg.Project (List.map (col_of compiled.columns) free, compiled.plan) in
      Ok { plan = Fq_db.Optimizer.optimize_for ~stats ~schema plan; columns = free }
  | exception Not_ranf msg -> Error ("not RANF-compilable: " ^ msg)

(* shadowing wrapper: compilation cost shows up as its own span *)
let compile ?stats ~domain ~state f =
  Fq_core.Telemetry.with_span "ranf.compile" (fun () -> compile ?stats ~domain ~state f)

let run ?stats ~domain ~state f =
  let* compiled = compile ?stats ~domain ~state f in
  Algebra_translate.eval_compiled ~domain ~state compiled
