open Formula

let rec simplify f =
  match f with
  | True | False | Atom _ -> f
  | Eq (t, u) -> if Term.equal t u then True else f
  | Not g -> (
    match simplify g with
    | True -> False
    | False -> True
    | Not h -> h
    | g -> Not g)
  | And (g, h) -> (
    match (simplify g, simplify h) with
    | False, _ | _, False -> False
    | True, h -> h
    | g, True -> g
    | g, h -> if equal g h then g else And (g, h))
  | Or (g, h) -> (
    match (simplify g, simplify h) with
    | True, _ | _, True -> True
    | False, h -> h
    | g, False -> g
    | g, h -> if equal g h then g else Or (g, h))
  | Imp (g, h) -> (
    match (simplify g, simplify h) with
    | False, _ -> True
    | True, h -> h
    | _, True -> True
    | g, False -> simplify (Not g)
    | g, h -> if equal g h then True else Imp (g, h))
  | Iff (g, h) -> (
    match (simplify g, simplify h) with
    | True, h -> h
    | g, True -> g
    | False, h -> simplify (Not h)
    | g, False -> simplify (Not g)
    | g, h -> if equal g h then True else Iff (g, h))
  | Exists (v, g) -> (
    match simplify g with
    | True -> True (* domains are nonempty *)
    | False -> False
    | g -> if Sset.mem v (free_var_set g) then Exists (v, g) else g)
  | Forall (v, g) -> (
    match simplify g with
    | True -> True
    | False -> False
    | g -> if Sset.mem v (free_var_set g) then Forall (v, g) else g)

let rec nnf f =
  match f with
  | True | False | Atom _ | Eq _ -> f
  | Not g -> nnf_neg g
  | And (g, h) -> And (nnf g, nnf h)
  | Or (g, h) -> Or (nnf g, nnf h)
  | Imp (g, h) -> Or (nnf_neg g, nnf h)
  | Iff (g, h) -> Or (And (nnf g, nnf h), And (nnf_neg g, nnf_neg h))
  | Exists (v, g) -> Exists (v, nnf g)
  | Forall (v, g) -> Forall (v, nnf g)

and nnf_neg f =
  match f with
  | True -> False
  | False -> True
  | Atom _ | Eq _ -> Not f
  | Not g -> nnf g
  | And (g, h) -> Or (nnf_neg g, nnf_neg h)
  | Or (g, h) -> And (nnf_neg g, nnf_neg h)
  | Imp (g, h) -> And (nnf g, nnf_neg h)
  | Iff (g, h) -> Or (And (nnf g, nnf_neg h), And (nnf_neg g, nnf h))
  | Exists (v, g) -> Forall (v, nnf_neg g)
  | Forall (v, g) -> Exists (v, nnf_neg g)

let prenex f =
  let f = nnf f in
  let f = rename_bound ~avoid:Sset.empty f in
  (* After renaming apart, quantifiers can be pulled without capture. *)
  let rec pull f =
    match f with
    | True | False | Atom _ | Eq _ | Not _ -> ([], f)
    | Exists (v, g) ->
      let prefix, m = pull g in
      ((v, `Exists) :: prefix, m)
    | Forall (v, g) ->
      let prefix, m = pull g in
      ((v, `Forall) :: prefix, m)
    | And (g, h) ->
      let pg, mg = pull g in
      let ph, mh = pull h in
      (pg @ ph, And (mg, mh))
    | Or (g, h) ->
      let pg, mg = pull g in
      let ph, mh = pull h in
      (pg @ ph, Or (mg, mh))
    | Imp _ | Iff _ -> assert false (* eliminated by nnf *)
  in
  let prefix, m = pull f in
  List.fold_right
    (fun (v, q) acc -> match q with `Exists -> Exists (v, acc) | `Forall -> Forall (v, acc))
    prefix m

let miniscope f =
  let rec push f =
    match f with
    | True | False | Atom _ | Eq _ | Not _ -> f
    | And (g, h) -> And (push g, push h)
    | Or (g, h) -> Or (push g, push h)
    | Exists (x, g) -> push_exists x (push g)
    | Forall (x, g) -> push_forall x (push g)
    | Imp _ | Iff _ -> assert false (* eliminated by nnf *)
  and push_exists x g =
    if not (Sset.mem x (free_var_set g)) then g
    else
      match g with
      | Or (a, b) -> Or (push_exists x a, push_exists x b)
      | And (a, b) when not (Sset.mem x (free_var_set a)) -> And (a, push_exists x b)
      | And (a, b) when not (Sset.mem x (free_var_set b)) -> And (push_exists x a, b)
      | g -> Exists (x, g)
  and push_forall x g =
    if not (Sset.mem x (free_var_set g)) then g
    else
      match g with
      | And (a, b) -> And (push_forall x a, push_forall x b)
      | Or (a, b) when not (Sset.mem x (free_var_set a)) -> Or (a, push_forall x b)
      | Or (a, b) when not (Sset.mem x (free_var_set b)) -> Or (push_forall x a, b)
      | g -> Forall (x, g)
  in
  push (nnf f)

let matrix f =
  let rec go acc = function
    | Exists (v, g) -> go ((v, `Exists) :: acc) g
    | Forall (v, g) -> go ((v, `Forall) :: acc) g
    | g -> (List.rev acc, g)
  in
  go [] f

let bad_input name = invalid_arg (name ^ ": input must be quantifier-free and in NNF")

let rec dnf f =
  match f with
  | True -> [ [] ]
  | False -> []
  | Atom _ | Eq _ | Not (Atom _) | Not (Eq _) -> [ [ f ] ]
  | Or (g, h) -> dnf g @ dnf h
  | And (g, h) ->
    (* The cross product is the exponential seat of clause normal forms —
       checkpoint each emitted clause so a governed caller can cut the
       expansion short instead of hanging. *)
    let dg = dnf g and dh = dnf h in
    List.concat_map
      (fun cg ->
        List.map
          (fun ch ->
            Fq_core.Budget.tick_ambient ();
            cg @ ch)
          dh)
      dg
  | Not _ | Imp _ | Iff _ | Exists _ | Forall _ -> bad_input "Transform.dnf"

let eliminate_quantifiers ~exists_conj f =
  (* Innermost-first elimination. [elim f] returns a quantifier-free
     formula equivalent to [f], assuming [f] is in NNF. *)
  let rec elim f =
    match f with
    | True | False | Atom _ | Eq _ | Not _ -> f
    | And (g, h) -> And (elim g, elim h)
    | Or (g, h) -> Or (elim g, elim h)
    | Exists (v, g) -> elim_exists v (elim g)
    | Forall (v, g) -> simplify (nnf (Not (elim_exists v (nnf (Not (elim g))))))
    | Imp _ | Iff _ -> assert false
  and elim_exists v g =
    let g = simplify g in
    if not (Sset.mem v (free_var_set g)) then g
    else
      let clauses = dnf (nnf g) in
      let eliminated =
        List.map
          (fun lits ->
            Fq_core.Budget.tick_ambient ();
            exists_conj v lits)
          clauses
      in
      simplify (disj eliminated)
  in
  (* miniscoping first keeps the per-quantifier DNF matrices small *)
  simplify (elim (miniscope (simplify f)))
