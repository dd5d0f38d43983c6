module B = Fq_numeric.Bigint
module Budget = Fq_core.Budget
module Fault = Fq_core.Fault
module Telemetry = Fq_core.Telemetry
module Formula = Fq_logic.Formula
module Term = Fq_logic.Term
module Transform = Fq_logic.Transform
module Signature = Fq_logic.Signature
module Value = Fq_db.Value

let name = "nat_order"

let signature =
  Signature.make ~name
    ~preds:[ ("<", 2); ("<=", 2); (">", 2); (">=", 2) ]
    ~funs:[ ("+", 2); ("s", 1) ]
    ()

let member v = match Value.as_int v with Some n -> B.sign n >= 0 | None -> false
let is_nat_numeral s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s
let constant c = if is_nat_numeral c then Some (Value.big (B.of_string c)) else None
let const_name v = match v with Value.Int n -> B.to_string n | Value.Str s -> s

let eval_fun f args =
  match (f, List.filter_map Value.as_int args) with
  | "+", [ a; b ] when List.length args = 2 -> Some (Value.big (B.add a b))
  | "s", [ a ] when List.length args = 1 -> Some (Value.big (B.succ a))
  | _ -> None

let eval_pred p args =
  match (p, List.filter_map Value.as_int args) with
  | "<", [ a; b ] when List.length args = 2 -> Some (B.compare a b < 0)
  | "<=", [ a; b ] when List.length args = 2 -> Some (B.compare a b <= 0)
  | ">", [ a; b ] when List.length args = 2 -> Some (B.compare a b > 0)
  | ">=", [ a; b ] when List.length args = 2 -> Some (B.compare a b >= 0)
  | _ -> None

let enumerate () = Seq.map Value.int (Seq.ints 0)

(* ------------------- offset terms: base + integer ------------------- *)

(* Internal term language of the elimination: an optional variable plus an
   integer offset (offsets may go negative during substitution; variables
   themselves range over ℕ, and candidates carry 0 <= _ guards). *)
type ot = { base : string option; off : B.t }

exception Unsupported of string

(* Offsets are signed: [term_of_ot] prints a negative one as [v + -k],
   and the elimination re-reads its own output. *)
let is_int_numeral c =
  is_nat_numeral c
  || (c <> "" && c.[0] = '-' && is_nat_numeral (String.sub c 1 (String.length c - 1)))

let rec ot_of_term = function
  | Term.Var v -> { base = Some v; off = B.zero }
  | Term.Const c when is_int_numeral c -> { base = None; off = B.of_string c }
  | Term.Const c -> raise (Unsupported (Printf.sprintf "constant %S" c))
  | Term.App ("s", [ t ]) ->
    let o = ot_of_term t in
    { o with off = B.succ o.off }
  | Term.App ("+", [ t; Term.Const c ]) when is_int_numeral c ->
    let o = ot_of_term t in
    { o with off = B.add o.off (B.of_string c) }
  | Term.App ("+", [ Term.Const c; t ]) when is_int_numeral c ->
    let o = ot_of_term t in
    { o with off = B.add o.off (B.of_string c) }
  | Term.App (f, args) -> raise (Unsupported (Printf.sprintf "term %s/%d" f (List.length args)))

let term_of_ot { base; off } =
  match base with
  | None -> Term.Const (B.to_string off)
  | Some v ->
    if B.is_zero off then Term.Var v
    else Term.App ("+", [ Term.Var v; Term.Const (B.to_string off) ])

let ot_plus o k = { o with off = B.add o.off k }

(* Substitute candidate [c] for variable [x] in an offset term. *)
let ot_subst x c o =
  if o.base = Some x then { base = c.base; off = B.add c.off o.off } else o

(* ------------------------- internal atoms -------------------------- *)

type atom =
  | Lt of ot * ot
  | Eq of ot * ot
  | Ne of ot * ot

let atom_of_literal lit =
  match lit with
  | Formula.Eq (t, u) -> Eq (ot_of_term t, ot_of_term u)
  | Formula.Not (Formula.Eq (t, u)) -> Ne (ot_of_term t, ot_of_term u)
  | Formula.Atom ("<", [ t; u ]) -> Lt (ot_of_term t, ot_of_term u)
  | Formula.Not (Formula.Atom ("<", [ t; u ])) ->
    (* ¬(t < u) ⟺ u ≤ t ⟺ u < t + 1 *)
    Lt (ot_of_term u, ot_plus (ot_of_term t) B.one)
  | Formula.Atom ("<=", [ t; u ]) -> Lt (ot_of_term t, ot_plus (ot_of_term u) B.one)
  | Formula.Not (Formula.Atom ("<=", [ t; u ])) -> Lt (ot_of_term u, ot_of_term t)
  | Formula.Atom (">", [ t; u ]) -> Lt (ot_of_term u, ot_of_term t)
  | Formula.Not (Formula.Atom (">", [ t; u ])) -> Lt (ot_of_term t, ot_plus (ot_of_term u) B.one)
  | Formula.Atom (">=", [ t; u ]) -> Lt (ot_of_term u, ot_plus (ot_of_term t) B.one)
  | Formula.Not (Formula.Atom (">=", [ t; u ])) -> Lt (ot_of_term t, ot_of_term u)
  | f -> raise (Unsupported (Printf.sprintf "literal %s" (Formula.to_string f)))

(* Evaluate or residualize an atom back to a formula. *)
let formula_of_atom a =
  let ground cmp a b = if cmp (B.compare a b) 0 then Formula.True else Formula.False in
  match a with
  | Lt (t, u) when t.base = None && u.base = None -> ground ( < ) t.off u.off
  | Eq (t, u) when t.base = None && u.base = None -> ground ( = ) t.off u.off
  | Ne (t, u) when t.base = None && u.base = None -> ground ( <> ) t.off u.off
  | Lt (t, u) when t.base = u.base -> if B.compare t.off u.off < 0 then Formula.True else Formula.False
  | Eq (t, u) when t.base = u.base -> if B.equal t.off u.off then Formula.True else Formula.False
  | Ne (t, u) when t.base = u.base -> if B.equal t.off u.off then Formula.False else Formula.True
  | Lt (t, u) -> Formula.Atom ("<", [ term_of_ot t; term_of_ot u ])
  | Eq (t, u) -> Formula.Eq (term_of_ot t, term_of_ot u)
  | Ne (t, u) -> Formula.neq (term_of_ot t) (term_of_ot u)

let mentions x (o : ot) = o.base = Some x

let subst_atom x c = function
  | Lt (t, u) -> Lt (ot_subst x c t, ot_subst x c u)
  | Eq (t, u) -> Eq (ot_subst x c t, ot_subst x c u)
  | Ne (t, u) -> Ne (ot_subst x c t, ot_subst x c u)

(* [∃x ∈ ℕ. ⋀ atoms], test-point method; see the interface comment. *)
let exists_conj x lits =
  let atoms = List.map atom_of_literal lits in
  (* An equality pins x down: substitute, guarding nonnegativity. *)
  let rec find_eq seen = function
    | [] -> None
    | Eq (t, u) :: rest when mentions x t && not (mentions x u) ->
      Some ({ base = u.base; off = B.sub u.off t.off }, List.rev_append seen rest)
    | Eq (t, u) :: rest when mentions x u && not (mentions x t) ->
      Some ({ base = t.base; off = B.sub t.off u.off }, List.rev_append seen rest)
    | a :: rest -> find_eq (a :: seen) rest
  in
  let instantiate c rest =
    (* 0 ≤ c, i.e. -1 < c, plus the instantiated atoms *)
    let guard = Lt ({ base = None; off = B.minus_one }, c) in
    Formula.conj (List.map (fun a -> formula_of_atom (subst_atom x c a)) (guard :: rest))
  in
  match find_eq [] atoms with
  | Some (c, rest) -> instantiate c rest
  | None ->
    (* Lower bounds t < x + k give candidates (t - k) + 1 + s; 0 + s is
       always a candidate; s ranges over 0..K where K counts the
       disequalities on x. Atoms with x on both sides were resolved by
       [formula_of_atom]'s same-base cases only at output time, so handle
       them here: Lt/Eq/Ne with both sides mentioning x are ground in the
       difference of offsets. *)
    let resolved_both, atoms =
      List.partition
        (fun a ->
          match a with
          | Lt (t, u) | Eq (t, u) | Ne (t, u) -> mentions x t && mentions x u)
        atoms
    in
    let both_ok =
      List.for_all
        (fun a ->
          match a with
          | Lt (t, u) -> B.compare t.off u.off < 0
          | Eq (t, u) -> B.equal t.off u.off
          | Ne (t, u) -> not (B.equal t.off u.off))
        resolved_both
    in
    if not both_ok then Formula.False
    else begin
      let lowers =
        List.filter_map
          (function
            | Lt (t, u) when mentions x u && not (mentions x t) ->
              (* t < x + k ⟺ x > t - k: candidate base point (t - k) + 1 *)
              Some { base = t.base; off = B.succ (B.sub t.off u.off) }
            | _ -> None)
          atoms
      in
      let k_count =
        List.length
          (List.filter (function Ne (t, u) -> mentions x t || mentions x u | _ -> false) atoms)
      in
      let zero_cand = { base = None; off = B.zero } in
      let candidates =
        List.concat_map
          (fun cand -> List.init (k_count + 1) (fun s -> ot_plus cand (B.of_int s)))
          (zero_cand :: lowers)
      in
      let x_atoms, rest_atoms =
        List.partition
          (fun a ->
            match a with Lt (t, u) | Eq (t, u) | Ne (t, u) -> mentions x t || mentions x u)
          atoms
      in
      let rest = Formula.conj (List.map formula_of_atom rest_atoms) in
      (* The (K+1)·(1+|lowers|) test points are where nested eliminations
         blow up; checkpoint each instantiation against the ambient
         governor. *)
      let cases =
        List.map
          (fun c ->
            Budget.tick_ambient ();
            Fault.hit "qe.nat_order";
            Telemetry.count "qe.nat_order.steps";
            instantiate c x_atoms)
          candidates
      in
      Transform.simplify (Formula.And (rest, Formula.disj cases))
    end

let qe f =
  Budget.protect (fun () ->
      Telemetry.with_span "qe.nat_order" @@ fun () ->
      if not (Signature.is_pure signature f) then Error "not a pure N_< formula"
      else
        match Transform.eliminate_quantifiers ~exists_conj f with
        | qf -> Ok qf
        | exception Unsupported msg -> Error ("unsupported construct: " ^ msg))

let decide f =
  Budget.protect (fun () ->
  if not (Formula.is_sentence f) then
    Error
      (Printf.sprintf "formula has free variables: %s"
         (String.concat ", " (Formula.free_vars f)))
  else
    Result.bind (qe f) (fun qf ->
        let rec eval = function
          | Formula.True -> Ok true
          | Formula.False -> Ok false
          | Formula.Not g -> Result.map not (eval g)
          | Formula.And (g, h) ->
            Result.bind (eval g) (fun a -> if a then eval h else Ok false)
          | Formula.Or (g, h) ->
            Result.bind (eval g) (fun a -> if a then Ok true else eval h)
          | (Formula.Atom _ | Formula.Eq _) as a -> (
            (* ground atoms over numerals *)
            match formula_of_atom (atom_of_literal a) with
            | Formula.True -> Ok true
            | Formula.False -> Ok false
            | f -> Error (Printf.sprintf "non-ground residue: %s" (Formula.to_string f)))
          | f -> Error (Printf.sprintf "unexpected residue: %s" (Formula.to_string f))
        in
        eval qf))

let seeds _ = Seq.empty
