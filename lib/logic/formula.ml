module Sset = Set.Make (String)

type t =
  | True
  | False
  | Atom of string * Term.t list
  | Eq of Term.t * Term.t
  | Not of t
  | And of t * t
  | Or of t * t
  | Imp of t * t
  | Iff of t * t
  | Exists of string * t
  | Forall of string * t

let rec conj = function
  | [] -> True
  | [ f ] -> f
  | f :: fs -> And (f, conj fs)

let rec disj = function
  | [] -> False
  | [ f ] -> f
  | f :: fs -> Or (f, disj fs)

let exists_many vs f = List.fold_right (fun v acc -> Exists (v, acc)) vs f
let forall_many vs f = List.fold_right (fun v acc -> Forall (v, acc)) vs f
let neq t u = Not (Eq (t, u))

let rec compare f g =
  let tag = function
    | True -> 0
    | False -> 1
    | Atom _ -> 2
    | Eq _ -> 3
    | Not _ -> 4
    | And _ -> 5
    | Or _ -> 6
    | Imp _ -> 7
    | Iff _ -> 8
    | Exists _ -> 9
    | Forall _ -> 10
  in
  match (f, g) with
  | True, True | False, False -> 0
  | Atom (p, ts), Atom (q, us) ->
    let c = String.compare p q in
    if c <> 0 then c else List.compare Term.compare ts us
  | Eq (t1, u1), Eq (t2, u2) ->
    let c = Term.compare t1 t2 in
    if c <> 0 then c else Term.compare u1 u2
  | Not a, Not b -> compare a b
  | And (a1, b1), And (a2, b2)
  | Or (a1, b1), Or (a2, b2)
  | Imp (a1, b1), Imp (a2, b2)
  | Iff (a1, b1), Iff (a2, b2) ->
    let c = compare a1 a2 in
    if c <> 0 then c else compare b1 b2
  | Exists (v, a), Exists (w, b) | Forall (v, a), Forall (w, b) ->
    let c = String.compare v w in
    if c <> 0 then c else compare a b
  | _ -> Stdlib.compare (tag f) (tag g)

let equal f g = compare f g = 0

let rec free_var_set = function
  | True | False -> Sset.empty
  | Atom (_, ts) -> List.fold_left (fun acc t -> Sset.union acc (Term.var_set t)) Sset.empty ts
  | Eq (t, u) -> Sset.union (Term.var_set t) (Term.var_set u)
  | Not f -> free_var_set f
  | And (f, g) | Or (f, g) | Imp (f, g) | Iff (f, g) ->
    Sset.union (free_var_set f) (free_var_set g)
  | Exists (v, f) | Forall (v, f) -> Sset.remove v (free_var_set f)

let free_vars f =
  (* Order of first occurrence: walk the formula keeping track of bound
     variables on the path. *)
  let rec go bound acc = function
    | True | False -> acc
    | Atom (_, ts) ->
      List.fold_left
        (fun acc t ->
          List.fold_left
            (fun acc v -> if Sset.mem v bound || List.mem v acc then acc else v :: acc)
            acc (Term.vars t))
        acc ts
    | Eq (t, u) -> go bound (go bound acc (Atom ("", [ t ]))) (Atom ("", [ u ]))
    | Not f -> go bound acc f
    | And (f, g) | Or (f, g) | Imp (f, g) | Iff (f, g) -> go bound (go bound acc f) g
    | Exists (v, f) | Forall (v, f) -> go (Sset.add v bound) acc f
  in
  List.rev (go Sset.empty [] f)

let rec all_vars = function
  | True | False -> Sset.empty
  | Atom (_, ts) -> List.fold_left (fun acc t -> Sset.union acc (Term.var_set t)) Sset.empty ts
  | Eq (t, u) -> Sset.union (Term.var_set t) (Term.var_set u)
  | Not f -> all_vars f
  | And (f, g) | Or (f, g) | Imp (f, g) | Iff (f, g) -> Sset.union (all_vars f) (all_vars g)
  | Exists (v, f) | Forall (v, f) -> Sset.add v (all_vars f)

let is_sentence f = Sset.is_empty (free_var_set f)

let rec fold_atoms f acc = function
  | True | False -> acc
  | Atom _ as a -> f acc a
  | Eq _ as a -> f acc a
  | Not g -> fold_atoms f acc g
  | And (g, h) | Or (g, h) | Imp (g, h) | Iff (g, h) -> fold_atoms f (fold_atoms f acc g) h
  | Exists (_, g) | Forall (_, g) -> fold_atoms f acc g

let consts f =
  let add acc t = List.fold_left (fun acc c -> if List.mem c acc then acc else c :: acc) acc (Term.consts t) in
  let acc =
    fold_atoms
      (fun acc -> function
        | Atom (_, ts) -> List.fold_left add acc ts
        | Eq (t, u) -> add (add acc t) u
        | _ -> acc)
      [] f
  in
  List.rev acc

let preds f =
  let acc =
    fold_atoms
      (fun acc -> function
        | Atom (p, ts) when not (List.mem (p, List.length ts) acc) -> (p, List.length ts) :: acc
        | _ -> acc)
      [] f
  in
  List.rev acc

let funs f =
  let add acc t =
    List.fold_left (fun acc fa -> if List.mem fa acc then acc else fa :: acc) acc (Term.funs t)
  in
  let acc =
    fold_atoms
      (fun acc -> function
        | Atom (_, ts) -> List.fold_left add acc ts
        | Eq (t, u) -> add (add acc t) u
        | _ -> acc)
      [] f
  in
  List.rev acc

let rec size = function
  | True | False -> 1
  | Atom (_, ts) -> 1 + List.fold_left (fun acc t -> acc + Term.size t) 0 ts
  | Eq (t, u) -> 1 + Term.size t + Term.size u
  | Not f -> 1 + size f
  | And (f, g) | Or (f, g) | Imp (f, g) | Iff (f, g) -> 1 + size f + size g
  | Exists (_, f) | Forall (_, f) -> 1 + size f

let rec quantifier_depth = function
  | True | False | Atom _ | Eq _ -> 0
  | Not f -> quantifier_depth f
  | And (f, g) | Or (f, g) | Imp (f, g) | Iff (f, g) ->
    Stdlib.max (quantifier_depth f) (quantifier_depth g)
  | Exists (_, f) | Forall (_, f) -> 1 + quantifier_depth f

let conjuncts f =
  let rec go acc = function
    | True -> acc
    | And (g, h) -> go (go acc h) g
    | g -> g :: acc
  in
  go [] f

let disjuncts f =
  let rec go acc = function
    | False -> acc
    | Or (g, h) -> go (go acc h) g
    | g -> g :: acc
  in
  go [] f

let fresh_var ~avoid base =
  if not (Sset.mem base avoid) then base
  else
    let rec go i =
      let cand = base ^ string_of_int i in
      if Sset.mem cand avoid then go (i + 1) else cand
    in
    go 1

let rec subst bindings f =
  let bindings = List.filter (fun (v, t) -> not (Term.equal (Term.Var v) t)) bindings in
  if bindings = [] then f
  else
    match f with
    | True | False -> f
    | Atom (p, ts) -> Atom (p, List.map (Term.subst bindings) ts)
    | Eq (t, u) -> Eq (Term.subst bindings t, Term.subst bindings u)
    | Not g -> Not (subst bindings g)
    | And (g, h) -> And (subst bindings g, subst bindings h)
    | Or (g, h) -> Or (subst bindings g, subst bindings h)
    | Imp (g, h) -> Imp (subst bindings g, subst bindings h)
    | Iff (g, h) -> Iff (subst bindings g, subst bindings h)
    | Exists (v, g) -> subst_quant bindings (fun v g -> Exists (v, g)) v g
    | Forall (v, g) -> subst_quant bindings (fun v g -> Forall (v, g)) v g

and subst_quant bindings rebuild v g =
  let bindings = List.filter (fun (w, _) -> w <> v) bindings in
  if bindings = [] then rebuild v g
  else
    let range_vars =
      List.fold_left (fun acc (_, t) -> Sset.union acc (Term.var_set t)) Sset.empty bindings
    in
    if Sset.mem v range_vars then begin
      (* Rename the bound variable to avoid capturing a substituted term. *)
      let avoid = Sset.union range_vars (all_vars g) in
      let v' = fresh_var ~avoid v in
      let g' = subst [ (v, Term.Var v') ] g in
      rebuild v' (subst bindings g')
    end
    else rebuild v (subst bindings g)

let rename_bound ~avoid f =
  let rec go used f =
    match f with
    | True | False | Atom _ | Eq _ -> (used, f)
    | Not g ->
      let used, g = go used g in
      (used, Not g)
    | And (g, h) ->
      let used, g = go used g in
      let used, h = go used h in
      (used, And (g, h))
    | Or (g, h) ->
      let used, g = go used g in
      let used, h = go used h in
      (used, Or (g, h))
    | Imp (g, h) ->
      let used, g = go used g in
      let used, h = go used h in
      (used, Imp (g, h))
    | Iff (g, h) ->
      let used, g = go used g in
      let used, h = go used h in
      (used, Iff (g, h))
    | Exists (v, g) ->
      let v' = fresh_var ~avoid:used v in
      let g = if v = v' then g else subst [ (v, Term.Var v') ] g in
      let used, g = go (Sset.add v' used) g in
      (used, Exists (v', g))
    | Forall (v, g) ->
      let v' = fresh_var ~avoid:used v in
      let g = if v = v' then g else subst [ (v, Term.Var v') ] g in
      let used, g = go (Sset.add v' used) g in
      (used, Forall (v', g))
  in
  snd (go (Sset.union avoid (free_var_set f)) f)

let alpha_normalize f =
  (* Bound variables are renamed to [prefix ^ binder-depth], so two
     alpha-equivalent formulas normalize to the same term — the key
     property behind the decision cache. The prefix is grown until no
     variable of [f] starts with it, making the canonical names fresh. *)
  let avoid = all_vars f in
  let prefix =
    let starts_with p v = String.length v >= String.length p && String.sub v 0 (String.length p) = p in
    let rec grow p = if Sset.exists (starts_with p) avoid then grow (p ^ "%") else p in
    grow "%"
  in
  let rec term env t =
    match t with
    | Term.Var v -> (
      match List.assoc_opt v env with Some w -> Term.Var w | None -> t)
    | Term.Const _ -> t
    | Term.App (fn, ts) -> Term.App (fn, List.map (term env) ts)
  in
  let rec go env depth f =
    match f with
    | True | False -> f
    | Atom (p, ts) -> Atom (p, List.map (term env) ts)
    | Eq (t, u) -> Eq (term env t, term env u)
    | Not g -> Not (go env depth g)
    | And (g, h) -> And (go env depth g, go env depth h)
    | Or (g, h) -> Or (go env depth g, go env depth h)
    | Imp (g, h) -> Imp (go env depth g, go env depth h)
    | Iff (g, h) -> Iff (go env depth g, go env depth h)
    | Exists (v, g) ->
      let w = prefix ^ string_of_int depth in
      Exists (w, go ((v, w) :: env) (depth + 1) g)
    | Forall (v, g) ->
      let w = prefix ^ string_of_int depth in
      Forall (w, go ((v, w) :: env) (depth + 1) g)
  in
  go [] 0 f

let hash f =
  let cmb h k = ((h * 0x01000193) lxor k) land max_int in
  let rec go h = function
    | True -> cmb h 1
    | False -> cmb h 2
    | Atom (p, ts) ->
      List.fold_left (fun h t -> cmb h (Term.hash t)) (cmb (cmb h 3) (Hashtbl.hash p)) ts
    | Eq (t, u) -> cmb (cmb (cmb h 4) (Term.hash t)) (Term.hash u)
    | Not g -> go (cmb h 5) g
    | And (g, h') -> go (go (cmb h 6) g) h'
    | Or (g, h') -> go (go (cmb h 7) g) h'
    | Imp (g, h') -> go (go (cmb h 8) g) h'
    | Iff (g, h') -> go (go (cmb h 9) g) h'
    | Exists (v, g) -> go (cmb (cmb h 10) (Hashtbl.hash v)) g
    | Forall (v, g) -> go (cmb (cmb h 11) (Hashtbl.hash v)) g
  in
  go 0x811c9dc5 f

let subst_const c t f =
  (* Rename bound variables clashing with [t]'s variables, then replace the
     constant everywhere. *)
  let f = rename_bound ~avoid:(Term.var_set t) f in
  let rec go f =
    match f with
    | True | False -> f
    | Atom (p, ts) -> Atom (p, List.map (Term.subst_const c t) ts)
    | Eq (a, b) -> Eq (Term.subst_const c t a, Term.subst_const c t b)
    | Not g -> Not (go g)
    | And (g, h) -> And (go g, go h)
    | Or (g, h) -> Or (go g, go h)
    | Imp (g, h) -> Imp (go g, go h)
    | Iff (g, h) -> Iff (go g, go h)
    | Exists (v, g) -> Exists (v, go g)
    | Forall (v, g) -> Forall (v, go g)
  in
  go f

let rec map_atoms fn f =
  match f with
  | True | False -> f
  | Atom _ | Eq _ -> fn f
  | Not g -> Not (map_atoms fn g)
  | And (g, h) -> And (map_atoms fn g, map_atoms fn h)
  | Or (g, h) -> Or (map_atoms fn g, map_atoms fn h)
  | Imp (g, h) -> Imp (map_atoms fn g, map_atoms fn h)
  | Iff (g, h) -> Iff (map_atoms fn g, map_atoms fn h)
  | Exists (v, g) -> Exists (v, map_atoms fn g)
  | Forall (v, g) -> Forall (v, map_atoms fn g)

(* Precedence-aware printing: Iff(1) < Imp(2) < Or(3) < And(4) < Not/Q(5). *)
let pp fmt f =
  let rec go prec fmt f =
    let paren p body =
      if p < prec then Format.fprintf fmt "(%t)" body else body fmt
    in
    match f with
    | True -> Format.pp_print_string fmt "true"
    | False -> Format.pp_print_string fmt "false"
    | Atom (p, []) -> Format.fprintf fmt "%s()" p
    | Atom (p, [ t; u ]) when List.mem p [ "<"; "<="; ">"; ">=" ] ->
      paren 6 (fun fmt -> Format.fprintf fmt "%a %s %a" Term.pp t p Term.pp u)
    | Atom ("dvd", [ t; u ]) ->
      paren 6 (fun fmt -> Format.fprintf fmt "%a | %a" Term.pp t Term.pp u)
    | Atom (p, ts) ->
      Format.fprintf fmt "%s(%a)" p
        (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ") Term.pp)
        ts
    | Eq (t, u) -> paren 6 (fun fmt -> Format.fprintf fmt "%a = %a" Term.pp t Term.pp u)
    | Not (Eq (t, u)) ->
      paren 6 (fun fmt -> Format.fprintf fmt "%a != %a" Term.pp t Term.pp u)
    | Not g -> paren 5 (fun fmt -> Format.fprintf fmt "~%a" (go 5) g)
    | And (g, h) -> paren 4 (fun fmt -> Format.fprintf fmt "%a /\\ %a" (go 4) g (go 5) h)
    | Or (g, h) -> paren 3 (fun fmt -> Format.fprintf fmt "%a \\/ %a" (go 3) g (go 4) h)
    | Imp (g, h) -> paren 2 (fun fmt -> Format.fprintf fmt "%a -> %a" (go 3) g (go 2) h)
    | Iff (g, h) -> paren 1 (fun fmt -> Format.fprintf fmt "%a <-> %a" (go 2) g (go 2) h)
    | Exists (v, g) ->
      let vs, body = strip_exists [ v ] g in
      paren 1 (fun fmt ->
          Format.fprintf fmt "exists %s. %a" (String.concat " " (List.rev vs)) (go 1) body)
    | Forall (v, g) ->
      let vs, body = strip_forall [ v ] g in
      paren 1 (fun fmt ->
          Format.fprintf fmt "forall %s. %a" (String.concat " " (List.rev vs)) (go 1) body)
  and strip_exists acc = function
    | Exists (v, g) -> strip_exists (v :: acc) g
    | g -> (acc, g)
  and strip_forall acc = function
    | Forall (v, g) -> strip_forall (v :: acc) g
    | g -> (acc, g)
  in
  go 0 fmt f

let to_string f = Format.asprintf "%a" pp f
