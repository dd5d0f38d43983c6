module B = Fq_numeric.Bigint
module Budget = Fq_core.Budget
module Fault = Fq_core.Fault
module Telemetry = Fq_core.Telemetry
module L = Linear_term
module Formula = Fq_logic.Formula
module Term = Fq_logic.Term
module Transform = Fq_logic.Transform

type atom =
  | Lt of L.t
  | Dvd of B.t * L.t
  | Ndvd of B.t * L.t

type qf =
  | T
  | F
  | A of atom
  | Conj of qf * qf
  | Disj of qf * qf

(* ---------------------- smart constructors ------------------------- *)

(* Ground atoms evaluate at construction time, keeping intermediate
   formulas small: Cooper's expansion is a large disjunction of
   substitution instances, most of which are ground in the inner loops. *)
let atom a =
  match a with
  | Lt t when L.is_const t -> if B.sign (L.const_part t) > 0 then T else F
  | Dvd (d, t) when L.is_const t -> if B.divisible ~by:d (L.const_part t) then T else F
  | Ndvd (d, t) when L.is_const t -> if B.divisible ~by:d (L.const_part t) then F else T
  | a -> A a

let conj a b =
  match (a, b) with
  | F, _ | _, F -> F
  | T, x | x, T -> x
  | a, b -> Conj (a, b)

let disj a b =
  match (a, b) with
  | T, _ | _, T -> T
  | F, x | x, F -> x
  | a, b -> Disj (a, b)

let rec qf_not = function
  | T -> F
  | F -> T
  | A (Lt t) -> atom (Lt (L.sub (L.of_int 1) t))
  | A (Dvd (d, t)) -> atom (Ndvd (d, t))
  | A (Ndvd (d, t)) -> atom (Dvd (d, t))
  | Conj (a, b) -> disj (qf_not a) (qf_not b)
  | Disj (a, b) -> conj (qf_not a) (qf_not b)

(* --------------------- conversion from formulas -------------------- *)

let ( let* ) = Result.bind

let lt a b = atom (Lt (L.sub b a))
let le a b = atom (Lt (L.succ (L.sub b a)))
let eq a b = conj (le a b) (le b a)

let dvd_atom k t =
  let* k = L.of_term k in
  let* t = L.of_term t in
  if not (L.is_const k) then Error "divisibility with a non-constant divisor"
  else
    let d = L.const_part k in
    if B.is_zero d then Ok (eq t L.zero) else Ok (atom (Dvd (B.abs d, t)))

let of_atom_formula f =
  match f with
  | Formula.Eq (a, b) ->
    let* a = L.of_term a in
    let* b = L.of_term b in
    Ok (eq a b)
  | Formula.Atom ("<", [ a; b ]) ->
    let* a = L.of_term a in
    let* b = L.of_term b in
    Ok (lt a b)
  | Formula.Atom ("<=", [ a; b ]) ->
    let* a = L.of_term a in
    let* b = L.of_term b in
    Ok (le a b)
  | Formula.Atom (">", [ a; b ]) ->
    let* a = L.of_term a in
    let* b = L.of_term b in
    Ok (lt b a)
  | Formula.Atom (">=", [ a; b ]) ->
    let* a = L.of_term a in
    let* b = L.of_term b in
    Ok (le b a)
  | Formula.Atom ("dvd", [ k; t ]) -> dvd_atom k t
  | Formula.Atom (p, args) ->
    Error (Printf.sprintf "non-Presburger predicate %s/%d" p (List.length args))
  | _ -> Error "expected an atom"

let of_formula f =
  let rec go f =
    match f with
    | Formula.True -> Ok T
    | Formula.False -> Ok F
    | Formula.Not g ->
      let* g = go g in
      Ok (qf_not g)
    | Formula.And (g, h) ->
      let* g = go g in
      let* h = go h in
      Ok (conj g h)
    | Formula.Or (g, h) ->
      let* g = go g in
      let* h = go h in
      Ok (disj g h)
    | Formula.Imp (g, h) ->
      let* g = go g in
      let* h = go h in
      Ok (disj (qf_not g) h)
    | Formula.Iff (g, h) ->
      let* g = go g in
      let* h = go h in
      Ok (disj (conj g h) (conj (qf_not g) (qf_not h)))
    | Formula.Exists _ | Formula.Forall _ -> Error "of_formula: quantifier"
    | Formula.Atom _ | Formula.Eq _ -> of_atom_formula f
  in
  go f

let to_formula qf =
  let atom_to_formula = function
    | Lt t -> Formula.Atom ("<", [ Term.Const "0"; L.to_term t ])
    | Dvd (d, t) -> Formula.Atom ("dvd", [ Term.Const (B.to_string d); L.to_term t ])
    | Ndvd (d, t) ->
      Formula.Not (Formula.Atom ("dvd", [ Term.Const (B.to_string d); L.to_term t ]))
  in
  let rec go = function
    | T -> Formula.True
    | F -> Formula.False
    | A a -> atom_to_formula a
    | Conj (a, b) -> Formula.And (go a, go b)
    | Disj (a, b) -> Formula.Or (go a, go b)
  in
  go qf

(* --------------------------- elimination --------------------------- *)

let rec map_atoms fn = function
  | T -> T
  | F -> F
  | A a -> fn a
  | Conj (a, b) -> conj (map_atoms fn a) (map_atoms fn b)
  | Disj (a, b) -> disj (map_atoms fn a) (map_atoms fn b)

let rec fold_atoms fn acc = function
  | T | F -> acc
  | A a -> fn acc a
  | Conj (a, b) | Disj (a, b) -> fold_atoms fn (fold_atoms fn acc a) b

let term_of_atom = function Lt t -> t | Dvd (_, t) -> t | Ndvd (_, t) -> t

let subst_x x u = map_atoms (fun a ->
    match a with
    | Lt t -> atom (Lt (L.subst x u t))
    | Dvd (d, t) -> atom (Dvd (d, L.subst x u t))
    | Ndvd (d, t) -> atom (Ndvd (d, L.subst x u t)))

let eliminate x phi =
  let coeffs =
    fold_atoms
      (fun acc a ->
        let c = L.coeff x (term_of_atom a) in
        if B.is_zero c then acc else B.abs c :: acc)
      [] phi
  in
  match coeffs with
  | [] -> phi (* x does not occur *)
  | _ ->
    let l = B.lcm_list coeffs in
    (* Normalize x's coefficient to ±1, reading x as "l·x": multiply each
       atom through by l/|c| and add the divisibility constraint l | x. *)
    let unify a =
      let t = term_of_atom a in
      let c = L.coeff x t in
      if B.is_zero c then atom a
      else
        let m = B.div l (B.abs c) in
        let scaled = L.add (L.scale m (L.remove x t)) (L.scale (B.div (B.mul m c) l) (L.var x)) in
        match a with
        | Lt _ -> atom (Lt scaled)
        | Dvd (d, _) -> atom (Dvd (B.mul m d, scaled))
        | Ndvd (d, _) -> atom (Ndvd (B.mul m d, scaled))
    in
    let phi1 = conj (map_atoms unify phi) (atom (Dvd (l, L.var x))) in
    (* δ: lcm of all divisors; B: lower-bound terms b with "b < x" atoms. *)
    let delta =
      fold_atoms
        (fun acc a -> match a with Dvd (d, _) | Ndvd (d, _) -> B.lcm acc d | Lt _ -> acc)
        B.one phi1
    in
    let bset =
      fold_atoms
        (fun acc a ->
          match a with
          | Lt t when B.equal (L.coeff x t) B.one ->
            let b = L.neg (L.remove x t) in
            if List.exists (L.equal b) acc then acc else b :: acc
          | Lt _ | Dvd _ | Ndvd _ -> acc)
        [] phi1
    in
    let minus_inf =
      map_atoms
        (fun a ->
          match a with
          | Lt t ->
            let c = L.coeff x t in
            if B.is_zero c then atom a else if B.sign c > 0 then F else T
          | Dvd _ | Ndvd _ -> atom a)
        phi1
    in
    let delta_int =
      match B.to_int_opt delta with
      | Some d -> d
      | None ->
        (* The expansion below enumerates δ residues; a δ beyond the native
           range cannot be materialized, so this input is outside the
           procedure's fragment — a structured refusal, not a crash. *)
        Budget.unsupported
          (Printf.sprintf "Cooper: divisor lcm %s exceeds the native expansion range"
             (B.to_string delta))
    in
    (* The δ·(1+|B|) substitution instances are Cooper's exponential seat —
       checkpoint each one so a governed caller can cut the expansion
       short. *)
    let rec expand j acc =
      if j > delta_int then acc
      else begin
        Budget.tick_ambient ();
        Fault.hit "qe.cooper";
        Telemetry.count "qe.cooper.steps";
        let jt = L.of_int j in
        let from_minus_inf = subst_x x jt minus_inf in
        let from_bounds =
          List.fold_left
            (fun acc b ->
              Budget.tick_ambient ();
              Fault.hit "qe.cooper";
              Telemetry.count "qe.cooper.steps";
              disj acc (subst_x x (L.add b jt) phi1))
            F bset
        in
        expand (j + 1) (disj acc (disj from_minus_inf from_bounds))
      end
    in
    expand 1 F

(* ----------------------------- driver ------------------------------ *)

let qe_exn f =
  let rec go f =
    match f with
    | Formula.True -> Ok T
    | Formula.False -> Ok F
    | Formula.Atom _ | Formula.Eq _ -> of_atom_formula f
    | Formula.Not g ->
      let* g = go g in
      Ok (qf_not g)
    | Formula.And (g, h) ->
      let* g = go g in
      let* h = go h in
      Ok (conj g h)
    | Formula.Or (g, h) ->
      let* g = go g in
      let* h = go h in
      Ok (disj g h)
    | Formula.Imp (g, h) ->
      let* g = go g in
      let* h = go h in
      Ok (disj (qf_not g) h)
    | Formula.Iff (g, h) ->
      let* g = go g in
      let* h = go h in
      Ok (disj (conj g h) (conj (qf_not g) (qf_not h)))
    | Formula.Exists (x, g) ->
      let* g = go g in
      Ok (eliminate x g)
    | Formula.Forall (x, g) ->
      let* g = go g in
      Ok (qf_not (eliminate x (qf_not g)))
  in
  go f

let qe f =
  Budget.protect (fun () -> Telemetry.with_span "qe.cooper" (fun () -> qe_exn f))

let eval_qf ~env qf =
  let eval_atom = function
    | Lt t -> Result.map (fun v -> B.sign v > 0) (L.eval ~env t)
    | Dvd (d, t) -> Result.map (B.divisible ~by:d) (L.eval ~env t)
    | Ndvd (d, t) -> Result.map (fun v -> not (B.divisible ~by:d v)) (L.eval ~env t)
  in
  let rec go = function
    | T -> Ok true
    | F -> Ok false
    | A a -> eval_atom a
    | Conj (a, b) -> Result.bind (go a) (fun x -> if x then go b else Ok false)
    | Disj (a, b) -> Result.bind (go a) (fun x -> if x then Ok true else go b)
  in
  go qf

let decide f =
  Budget.protect (fun () ->
      Telemetry.with_span "qe.cooper" @@ fun () ->
      if not (Formula.is_sentence f) then
        Error
          (Printf.sprintf "formula has free variables: %s"
             (String.concat ", " (Formula.free_vars f)))
      else
        let* qf = qe_exn f in
        eval_qf ~env:[] qf)

let rec atom_count = function
  | T | F -> 0
  | A _ -> 1
  | Conj (a, b) | Disj (a, b) -> atom_count a + atom_count b
