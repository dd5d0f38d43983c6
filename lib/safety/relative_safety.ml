module Formula = Fq_logic.Formula
module Term = Fq_logic.Term
module Value = Fq_db.Value
module Relation = Fq_db.Relation

type verdict =
  | Finite of Relation.t
  | Infinite
  | Unknown of Relation.t

let ( let* ) = Result.bind

let via_active_domain ~state f =
  let domain : Fq_domain.Domain.t = (module Fq_domain.Eq_domain) in
  let* f' = Fq_eval.Translate.formula ~domain ~state f in
  let xs = Formula.free_vars f' in
  if xs = [] then Ok true
  else begin
    (* In the pure-equality domain a "loose" element can be swapped for any
       other, so the answer is finite iff it stays inside the active
       domain: ∀x̄ (φ' → ⋀ᵢ ⋁_{a ∈ adom} xᵢ = a). *)
    let adom = Fq_eval.Translate.active_domain ~domain ~state f in
    let (module D : Fq_domain.Domain.S) = domain in
    let inside x =
      Formula.disj
        (List.map (fun a -> Formula.Eq (Term.Var x, Term.Const (D.const_name a))) adom)
    in
    let sentence =
      Formula.forall_many xs (Formula.Imp (f', Formula.conj (List.map inside xs)))
    in
    Fq_domain.Eq_domain.decide sentence
  end

let via_finitization ~domain ~decide ~state f =
  Finitization.equivalence_in_state ~decide ~domain ~state f

let via_extended_active ~state f =
  Ext_active.finite_in_state ~domain:(module Fq_domain.Nat_succ) ~state f

let rec bounded ~budget ?max_certified ~domain ~state f =
  (* When a complete relative-safety procedure exists for the domain, use
     it to recognize the infinite case outright; otherwise (in particular
     over T) fall back to pure enumeration. *)
  match decide_for ~domain ~state f with
  | Ok false -> Ok Infinite
  | Ok true | Error _ -> (
    let* outcome = Fq_eval.Enumerate.run_budgeted ~budget ?max_certified ~domain ~state f in
    match outcome with
    | Fq_eval.Enumerate.Complete rel -> Ok (Finite rel)
    | Fq_eval.Enumerate.Partial { tuples; _ } -> Ok (Unknown tuples))

and decide_for ~domain ~state f =
  let (module D : Fq_domain.Domain.S) = domain in
  match D.name with
  | "equality" -> via_active_domain ~state f
  | "nat_order" -> via_finitization ~domain ~decide:Fq_domain.Nat_order.decide ~state f
  | "presburger" -> via_finitization ~domain ~decide:Fq_domain.Presburger.decide ~state f
  | "nat_succ" -> via_extended_active ~state f
  | "traces" ->
    Error
      "relative safety over the trace domain T is undecidable (Theorem 3.3); use \
       Relative_safety.bounded for a budget-bounded semi-decision"
  | name -> Error (Printf.sprintf "no relative-safety procedure for domain %s" name)
