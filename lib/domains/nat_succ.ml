module B = Fq_numeric.Bigint
module Budget = Fq_core.Budget
module Fault = Fq_core.Fault
module Telemetry = Fq_core.Telemetry
module Formula = Fq_logic.Formula
module Term = Fq_logic.Term
module Transform = Fq_logic.Transform
module Signature = Fq_logic.Signature
module Value = Fq_db.Value

let name = "nat_succ"

let signature = Signature.make ~name ~funs:[ ("s", 1) ] ()

let member v = match Value.as_int v with Some n -> B.sign n >= 0 | None -> false
let is_nat_numeral s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s
let constant c = if is_nat_numeral c then Some (Value.big (B.of_string c)) else None
let const_name v = match v with Value.Int n -> B.to_string n | Value.Str s -> s

let eval_fun f args =
  match (f, List.filter_map Value.as_int args) with
  | "s", [ a ] when List.length args = 1 -> Some (Value.big (B.succ a))
  | _ -> None

let eval_pred _ _ = None
let enumerate () = Seq.map Value.int (Seq.ints 0)

(* --------------- offset terms, as in the paper: y^(n) --------------- *)

type ot = { base : string option; off : B.t }
(* [base = None]: the numeral [off] (must be >= 0 for a real element);
   [base = Some y]: the term s^off(y), where [off] may temporarily be
   negative during elimination (the paper's y^(-n)). *)

exception Unsupported of string

let rec ot_of_term = function
  | Term.Var v -> { base = Some v; off = B.zero }
  | Term.Const c when is_nat_numeral c -> { base = None; off = B.of_string c }
  | Term.Const c -> raise (Unsupported (Printf.sprintf "constant %S" c))
  | Term.App ("s", [ t ]) ->
    let o = ot_of_term t in
    { o with off = B.succ o.off }
  | Term.App (f, args) -> raise (Unsupported (Printf.sprintf "term %s/%d" f (List.length args)))

let rec iterate_s n t = if n <= 0 then t else iterate_s (n - 1) (Term.App ("s", [ t ]))

let term_of_ot { base; off } =
  match base with
  | None -> Term.Const (B.to_string off)
  | Some v ->
    let n =
      match B.to_int_opt off with
      | Some n when n >= 0 -> n
      | _ -> raise (Unsupported "negative successor offset in output")
    in
    iterate_s n (Term.Var v)

type atom =
  | Eq of ot * ot
  | Ne of ot * ot

let atom_of_literal = function
  | Formula.Eq (t, u) -> Eq (ot_of_term t, ot_of_term u)
  | Formula.Not (Formula.Eq (t, u)) -> Ne (ot_of_term t, ot_of_term u)
  | f -> raise (Unsupported (Printf.sprintf "literal %s" (Formula.to_string f)))

(* Normalize so both offsets are nonnegative and minimal, then residualize.
   s^a(y) = s^b(z) ⟺ s^(a-m)(y) = s^(b-m)(z) with m = min a b — sound over
   ℕ because successor is injective; conversely equal terms need equal
   "depth" relative to their bases. For a numeral side, s^a(y) = n means
   y = n - a, false when n < a. *)
let formula_of_atom a =
  let mk eq t u = if eq then Formula.Eq (t, u) else Formula.neq t u in
  let resolve eq x y =
    match (x.base, y.base) with
    | None, None -> if B.equal x.off y.off = eq then Formula.True else Formula.False
    | Some v, Some w when v = w ->
      if B.equal x.off y.off = eq then Formula.True else Formula.False
    | Some _, Some _ ->
      let m = B.min x.off y.off in
      mk eq
        (term_of_ot { x with off = B.sub x.off m })
        (term_of_ot { y with off = B.sub y.off m })
    | Some _, None ->
      (* s^a(v) = n: v = n - a, impossible when n < a *)
      if B.compare y.off x.off < 0 then if eq then Formula.False else Formula.True
      else mk eq (term_of_ot { x with off = B.zero }) (Term.Const (B.to_string (B.sub y.off x.off)))
    | None, Some _ ->
      if B.compare x.off y.off < 0 then if eq then Formula.False else Formula.True
      else mk eq (Term.Const (B.to_string (B.sub x.off y.off))) (term_of_ot { y with off = B.zero })
  in
  match a with
  | Eq (t, u) -> resolve true t u
  | Ne (t, u) -> resolve false t u

let mentions x (o : ot) = o.base = Some x

let subst_atom x c = function
  | Eq (t, u) -> Eq ((if mentions x t then { base = c.base; off = B.add c.off t.off } else t),
                     if mentions x u then { base = c.base; off = B.add c.off u.off } else u)
  | Ne (t, u) -> Ne ((if mentions x t then { base = c.base; off = B.add c.off t.off } else t),
                     if mentions x u then { base = c.base; off = B.add c.off u.off } else u)

(* The paper's elimination for ∃x over a conjunction of literals. *)
let exists_conj x lits =
  Budget.tick_ambient ();
  Fault.hit "qe.nat_succ";
  Telemetry.count "qe.nat_succ.steps";
  let atoms = List.map atom_of_literal lits in
  (* Split atoms with x on both sides: ground in the offset difference. *)
  let both, atoms =
    List.partition
      (fun a -> match a with Eq (t, u) | Ne (t, u) -> mentions x t && mentions x u)
      atoms
  in
  let both_ok =
    List.for_all
      (fun a ->
        match a with
        | Eq (t, u) -> B.equal t.off u.off
        | Ne (t, u) -> not (B.equal t.off u.off))
      both
  in
  if not both_ok then Formula.False
  else
    let rec find_eq seen = function
      | [] -> None
      | Eq (t, u) :: rest when mentions x t && not (mentions x u) ->
        Some ({ base = u.base; off = B.sub u.off t.off }, List.rev_append seen rest)
      | Eq (t, u) :: rest when mentions x u && not (mentions x t) ->
        Some ({ base = t.base; off = B.sub t.off u.off }, List.rev_append seen rest)
      | a :: rest -> find_eq (a :: seen) rest
    in
    match find_eq [] atoms with
    | Some (c, rest) ->
      (* x := c. When c = s^(-n)(y), add the paper's guards
         y ≠ 0 ∧ … ∧ y ≠ n-1; when c is a negative numeral, fail. *)
      let guards =
        if B.sign c.off >= 0 then []
        else
          match c.base with
          | None -> [ Formula.False ]
          | Some y ->
            let n =
              match B.to_int_opt (B.neg c.off) with
              | Some n -> n
              | None -> raise (Unsupported "huge negative offset")
            in
            List.init n (fun i -> Formula.neq (Term.Var y) (Term.Const (string_of_int i)))
      in
      Formula.conj (guards @ List.map (fun a -> formula_of_atom (subst_atom x c a)) rest)
    | None ->
      (* Only disequalities constrain x: each excludes at most one value,
         so the infinite domain always has a witness. Drop them. *)
      let rest =
        List.filter (fun a -> match a with Eq (t, u) | Ne (t, u) -> not (mentions x t || mentions x u)) atoms
      in
      Formula.conj (List.map formula_of_atom rest)

let qe f =
  Budget.protect (fun () ->
      Telemetry.with_span "qe.nat_succ" @@ fun () ->
      if not (Signature.is_pure signature f) then Error "not a pure N' formula"
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
          | Formula.And (g, h) -> Result.bind (eval g) (fun a -> if a then eval h else Ok false)
          | Formula.Or (g, h) -> Result.bind (eval g) (fun a -> if a then Ok true else eval h)
          | (Formula.Atom _ | Formula.Eq _) as a -> (
            match formula_of_atom (atom_of_literal a) with
            | Formula.True -> Ok true
            | Formula.False -> Ok false
            | f -> Error (Printf.sprintf "non-ground residue: %s" (Formula.to_string f)))
          | f -> Error (Printf.sprintf "unexpected residue: %s" (Formula.to_string f))
        in
        eval qf))

(* Offsets in the QE output stay within 2^q of the input's offsets: each
   elimination step at most doubles... conservatively, each of the q
   eliminations can add the current maximal offset, so (max_off + 1) * 2^q
   bounds everything. *)
let qe_offset_bound f =
  let rec max_off = function
    | Term.App ("s", [ t ]) -> 1 + max_off t
    | Term.App (_, args) -> List.fold_left (fun m t -> max m (max_off t)) 0 args
    | Term.Var _ | Term.Const _ -> 0
  in
  let rec formula_off = function
    | Formula.True | Formula.False -> 0
    | Formula.Atom (_, ts) -> List.fold_left (fun m t -> max m (max_off t)) 0 ts
    | Formula.Eq (t, u) -> max (max_off t) (max_off u)
    | Formula.Not g -> formula_off g
    | Formula.And (g, h) | Formula.Or (g, h) | Formula.Imp (g, h) | Formula.Iff (g, h) ->
      max (formula_off g) (formula_off h)
    | Formula.Exists (_, g) | Formula.Forall (_, g) -> formula_off g
  in
  let q = Formula.quantifier_depth f in
  let base = formula_off f + 1 in
  let rec pow2 n = if n <= 0 then 1 else 2 * pow2 (n - 1) in
  base * pow2 q

let seeds _ = Seq.empty
