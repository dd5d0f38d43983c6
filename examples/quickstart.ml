(* Quickstart: the paper's Section 1 father/son database.

   Builds the one-relation scheme, runs the two example queries M(x) and
   G(x,z) with the Section 1.1 enumerate-and-decide algorithm, contrasts
   them with the unsafe union M(x) ∨ G(x,z), and shows the syntactic
   safe-range check and the relative-safety decision.

   Run with: dune exec examples/quickstart.exe *)

open Finite_queries

let parse = Parser.formula_exn
let s = Value.str

let () =
  (* The scheme: one binary father/son relation F. *)
  let schema = Schema.make [ ("F", 2) ] in
  let family =
    Relation.make ~arity:2
      [ [ s "adam"; s "cain" ]; [ s "adam"; s "abel" ]; [ s "cain"; s "enoch" ];
        [ s "enoch"; s "irad" ] ]
  in
  let state = State.make ~schema [ ("F", family) ] in
  let domain : Domain.t = (module Eq_domain) in
  Format.printf "Database state:@.%a@." State.pp state;

  (* M(x): "those x's who have more than one son" *)
  let m = parse "exists y z. y != z /\\ F(x, y) /\\ F(x, z)" in
  (* G(x,z): "grandfathers/grandsons" *)
  let g = parse "exists y. F(x, y) /\\ F(y, z)" in
  (* the unsafe union of the two (footnote 4) *)
  let union = Formula.Or (m, Formula.subst [] g) in

  let show name f =
    Format.printf "@.Query %s: %a@." name Formula.pp f;
    (* 1. syntactic safety: the safe-range effective syntax *)
    (match Safe_range.check ~schema:[ ("F", 2) ] f with
    | Safe_range.Safe_range -> Format.printf "  safe-range: yes (finite in every state)@."
    | Safe_range.Not_safe_range why -> Format.printf "  safe-range: no (%s)@." why);
    (* 2. relative safety: finite in this particular state? *)
    (match Relative_safety.via_active_domain ~state f with
    | Ok true -> Format.printf "  relative safety: finite in this state@."
    | Ok false -> Format.printf "  relative safety: INFINITE in this state@."
    | Error e -> Format.printf "  relative safety: error (%s)@." e);
    (* 3. answer via the Section 1.1 enumeration algorithm *)
    let budget = Budget.of_fuel ~share:false 5_000 in
    match Enumerate.run_budgeted ~budget ~domain ~state f with
    | Ok (Enumerate.Complete r) -> Format.printf "  answer: %a@." Relation.pp r
    | Ok (Enumerate.Partial { tuples; _ }) ->
      Format.printf "  answer: ran out of fuel; partial answer has %d tuples@."
        (Relation.cardinal tuples)
    | Error e -> Format.printf "  answer: error (%s)@." e
  in
  show "M(x)" m;
  show "G(x,z)" g;
  show "M(x) \\/ G(x,z)" union;

  (* the same unsafe union is finite in a state where no father has two
     sons — relative safety is a per-state question *)
  let single =
    State.make ~schema
      [ ("F", Relation.make ~arity:2 [ [ s "adam"; s "cain" ]; [ s "cain"; s "enoch" ] ]) ]
  in
  Format.printf "@.In a state where every father has one son:@.";
  (match Relative_safety.via_active_domain ~state:single union with
  | Ok b -> Format.printf "  M(x) \\/ G(x,z) finite there: %b@." b
  | Error e -> Format.printf "  error: %s@." e);

  (* the algebra compiler: polynomial-time evaluation for safe queries *)
  Format.printf "@.Algebra plans (safe-range fragment):@.";
  List.iter
    (fun (name, f) ->
      match Algebra_translate.compile ~domain ~state f with
      | Ok { plan; columns } ->
        Format.printf "  %s over columns (%s):@.    %a@.    = %a@." name
          (String.concat ", " columns) Relalg.pp plan Relation.pp
          (Relalg.eval ~state plan)
      | Error e -> Format.printf "  %s: %s@." name e)
    [ ("M(x)", m); ("G(x,z)", g) ]
