(* Tests for Fq_db: values, schemas, relations, states, relational
   algebra. *)

open Fq_db

let v = Value.int
let s = Value.str

let rel = Alcotest.testable Relation.pp Relation.equal

let father_schema = Schema.make [ ("F", 2) ]

let father_rel =
  Relation.make ~arity:2
    [ [ s "adam"; s "cain" ]; [ s "adam"; s "abel" ]; [ s "cain"; s "enoch" ] ]

let state = State.make ~schema:father_schema [ ("F", father_rel) ]

(* ------------------------------ values ----------------------------- *)

let test_value_order () =
  Alcotest.(check bool) "ints before strings" true (Value.compare (v 999) (s "a") < 0);
  Alcotest.(check bool) "int order" true (Value.compare (v 1) (v 2) < 0);
  Alcotest.(check bool) "string order" true (Value.compare (s "a") (s "b") < 0);
  Alcotest.(check string) "const of int" "42" (Value.to_const (v 42));
  Alcotest.(check string) "const of str" "abc" (Value.to_const (s "abc"))

(* ------------------------------ schema ----------------------------- *)

let test_schema () =
  let sch = Schema.make ~constants:[ "c" ] [ ("R", 2); ("S", 1) ] in
  Alcotest.(check (option int)) "arity" (Some 2) (Schema.arity sch "R");
  Alcotest.(check (option int)) "unknown" None (Schema.arity sch "T");
  Alcotest.(check bool) "constant with @" true (Schema.mem_constant sch "@c");
  Alcotest.(check bool) "constant without @" true (Schema.mem_constant sch "c");
  Alcotest.check_raises "duplicate names" (Invalid_argument "Schema.make: duplicate names")
    (fun () -> ignore (Schema.make [ ("R", 1); ("R", 2) ]))

(* ----------------------------- relations --------------------------- *)

let test_relation_basics () =
  Alcotest.(check int) "cardinal" 3 (Relation.cardinal father_rel);
  Alcotest.(check bool) "mem" true (Relation.mem [ s "adam"; s "cain" ] father_rel);
  Alcotest.(check bool) "not mem" false (Relation.mem [ s "cain"; s "adam" ] father_rel);
  Alcotest.(check int) "dedup on make" 1
    (Relation.cardinal (Relation.make ~arity:1 [ [ v 1 ]; [ v 1 ] ]));
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Relation: tuple of length 1 in relation of arity 2") (fun () ->
      ignore (Relation.make ~arity:2 [ [ v 1 ] ]))

(* The algebra over relations is Relalg.eval; these pin its operator
   semantics on literal plans. *)
let eval_lit plan = Relalg.eval ~state plan

let test_relation_ops () =
  let r1 = Relation.make ~arity:1 [ [ v 1 ]; [ v 2 ] ] in
  let r2 = Relation.make ~arity:1 [ [ v 2 ]; [ v 3 ] ] in
  let a = Relalg.Lit r1 and b = Relalg.Lit r2 in
  Alcotest.check rel "union" (Relation.make ~arity:1 [ [ v 1 ]; [ v 2 ]; [ v 3 ] ])
    (eval_lit (Relalg.Union (a, b)));
  Alcotest.check rel "diff" (Relation.make ~arity:1 [ [ v 1 ] ]) (eval_lit (Relalg.Diff (a, b)));
  Alcotest.check rel "inter" (Relation.make ~arity:1 [ [ v 2 ] ])
    (eval_lit (Relalg.Diff (a, Relalg.Diff (a, b))));
  Alcotest.(check int) "product arity" 2 (Relation.arity (eval_lit (Relalg.Product (a, b))));
  Alcotest.(check int) "product size" 4 (Relation.cardinal (eval_lit (Relalg.Product (a, b))));
  Alcotest.check rel "project column 1"
    (Relation.make ~arity:1 [ [ s "cain" ]; [ s "abel" ]; [ s "enoch" ] ])
    (eval_lit (Relalg.Project ([ 1 ], Relalg.Lit father_rel)));
  Alcotest.check rel "project duplicate columns"
    (Relation.make ~arity:2 [ [ v 1; v 1 ]; [ v 2; v 2 ] ])
    (eval_lit (Relalg.Project ([ 0; 0 ], a)));
  Alcotest.(check int) "nullary true" 1 (Relation.cardinal (Relation.make ~arity:0 [ [] ]))

let test_relation_values () =
  Alcotest.(check int) "distinct values" 4 (List.length (Relation.values father_rel))

let test_relation_rows () =
  let r1 = Relation.make ~arity:2 [ [ v 2; v 3 ]; [ v 1; v 2 ] ] in
  let rows = Relation.rows r1 in
  Alcotest.(check int) "rows length" 2 (Array.length rows);
  Alcotest.(check bool) "rows sorted" true (Row.compare rows.(0) rows.(1) < 0);
  Alcotest.check rel "of_rows round-trips" r1 (Relation.of_rows ~arity:2 rows);
  Alcotest.(check bool) "mem_row" true (Relation.mem_row (Row.of_list [ v 1; v 2 ]) r1);
  Alcotest.(check bool) "not mem_row" false
    (Relation.mem_row (Row.of_list [ v 3; v 1 ]) r1);
  Alcotest.(check bool) "row hash consistent with equal" true
    (Row.hash (Row.of_list [ v 1; v 2 ]) = Row.hash rows.(0))

let test_relation_equijoin () =
  let a = Relalg.Lit (Relation.make ~arity:2 [ [ v 1; v 2 ]; [ v 2; v 3 ]; [ v 5; v 9 ] ]) in
  let b = Relalg.Lit (Relation.make ~arity:2 [ [ v 2; v 7 ]; [ v 3; v 8 ] ]) in
  Alcotest.check rel "equijoin on a.1 = b.0"
    (Relation.make ~arity:4 [ [ v 1; v 2; v 2; v 7 ]; [ v 2; v 3; v 3; v 8 ] ])
    (eval_lit (Relalg.Join ([ (1, 0) ], a, b)));
  Alcotest.check rel "no pairs degenerates to product"
    (Relation.make ~arity:4
       [ [ v 1; v 2; v 2; v 7 ]; [ v 1; v 2; v 3; v 8 ]; [ v 2; v 3; v 2; v 7 ];
         [ v 2; v 3; v 3; v 8 ]; [ v 5; v 9; v 2; v 7 ]; [ v 5; v 9; v 3; v 8 ] ])
    (eval_lit (Relalg.Join ([], a, b)));
  Alcotest.(check bool) "disjoint keys join empty" true
    (Relation.is_empty (eval_lit (Relalg.Join ([ (0, 1) ], a, b))))

(* ------------------------------ state ------------------------------ *)

let test_state () =
  Alcotest.(check int) "relation lookup" 3 (Relation.cardinal (State.relation state "F"));
  Alcotest.(check int) "active domain" 4 (List.length (State.active_domain state));
  (* unlisted relation of the scheme is empty *)
  let sch2 = Schema.make [ ("F", 2); ("G", 1) ] in
  let st2 = State.make ~schema:sch2 [ ("F", father_rel) ] in
  Alcotest.(check bool) "unlisted empty" true (Relation.is_empty (State.relation st2 "G"));
  Alcotest.check_raises "unknown relation" Not_found (fun () ->
      ignore (State.relation state "Z"));
  (* constants *)
  let sch3 = Schema.make ~constants:[ "c" ] [] in
  let st3 = State.make ~schema:sch3 ~constants:[ ("c", v 7) ] [] in
  Alcotest.(check bool) "constant via @" true (Value.equal (v 7) (State.constant st3 "@c"));
  Alcotest.check_raises "uninterpreted constant"
    (Invalid_argument "State: scheme constant c is uninterpreted") (fun () ->
      ignore (State.make ~schema:sch3 []))

(* ------------------------------ algebra ---------------------------- *)

let test_relalg_eval () =
  let open Relalg in
  (* grandfathers: project(0,3) of select(#1 = #2) of F x F *)
  let plan =
    Project ([ 0; 3 ], Select (Eq (Col 1, Col 2), Product (Rel "F", Rel "F")))
  in
  Alcotest.check rel "grandfather join"
    (Relation.make ~arity:2 [ [ s "adam"; s "enoch" ] ])
    (eval ~state plan);
  (* selection with constant *)
  Alcotest.check rel "select constant"
    (Relation.make ~arity:2 [ [ s "adam"; s "cain" ]; [ s "adam"; s "abel" ] ])
    (eval ~state (Select (Eq (Col 0, Const (s "adam")), Rel "F")));
  (* difference: fathers who are not sons *)
  let fathers = Project ([ 0 ], Rel "F") in
  let sons = Project ([ 1 ], Rel "F") in
  Alcotest.check rel "diff" (Relation.make ~arity:1 [ [ s "adam" ] ])
    (eval ~state (Diff (fathers, sons)))

let test_relalg_domain_pred () =
  let open Relalg in
  let nums = Lit (Relation.make ~arity:1 [ [ v 1 ]; [ v 2 ]; [ v 3 ] ]) in
  let lt a b = Fq_numeric.Bigint.compare a b < 0 in
  let domain_pred p vals =
    match (p, vals) with
    | "<", [ Value.Int a; Value.Int b ] -> lt a b
    | _ -> invalid_arg "pred"
  in
  let plan = Select (Domain_pred ("<", [ Col 0; Col 1 ]), Product (nums, nums)) in
  Alcotest.(check int) "pairs below diagonal" 3
    (Relation.cardinal (eval ~state ~domain_pred plan))

let test_relalg_join () =
  let open Relalg in
  (* grandfathers again, via the explicit hash-join node *)
  let plan = Project ([ 0; 3 ], Join ([ (1, 0) ], Rel "F", Rel "F")) in
  Alcotest.check rel "grandfather via Join"
    (Relation.make ~arity:2 [ [ s "adam"; s "enoch" ] ])
    (eval ~state plan);
  Alcotest.(check (result int string)) "join arity" (Ok 4)
    (arity_check ~schema:father_schema (Join ([ (1, 0) ], Rel "F", Rel "F")));
  Alcotest.(check bool) "join pair out of range" true
    (Result.is_error
       (arity_check ~schema:father_schema (Join ([ (2, 0) ], Rel "F", Rel "F"))))

let test_relalg_arity_check () =
  let open Relalg in
  let ok plan = Relalg.arity_check ~schema:father_schema plan in
  Alcotest.(check (result int string)) "rel arity" (Ok 2) (ok (Rel "F"));
  Alcotest.(check bool) "unknown rel" true (Result.is_error (ok (Rel "Z")));
  Alcotest.(check bool) "bad projection" true
    (Result.is_error (ok (Project ([ 5 ], Rel "F"))));
  Alcotest.(check bool) "union mismatch" true
    (Result.is_error (ok (Union (Rel "F", Project ([ 0 ], Rel "F")))));
  Alcotest.(check (result int string)) "product" (Ok 4) (ok (Product (Rel "F", Rel "F")))

(* ------------------------------ codec ------------------------------ *)

let test_codec_parse () =
  match Codec.parse_state ~relations:[ "F/2=a,b;b,c"; "N/1=3;5" ] ~constants:[ "c=w" ] with
  | Error e -> Alcotest.fail e
  | Ok st ->
    Alcotest.(check int) "F rows" 2 (Relation.cardinal (State.relation st "F"));
    Alcotest.(check bool) "numbers parsed" true
      (Relation.mem [ v 3 ] (State.relation st "N"));
    Alcotest.(check bool) "constant" true (Value.equal (s "w") (State.constant st "@c"))

let test_codec_errors () =
  let is_err r = Alcotest.(check bool) "error" true (Result.is_error r) in
  is_err (Codec.parse_relation "F=a,b");
  is_err (Codec.parse_relation "F/x=a,b");
  is_err (Codec.parse_relation "F/2=a" (* arity mismatch *));
  is_err (Codec.parse_constant "noequals");
  is_err (Codec.parse_state ~relations:[ "F/1=a"; "F/1=b" ] ~constants:[] (* duplicate *))

let test_codec_roundtrip () =
  match Codec.parse_state ~relations:[ "F/2=a,b;b,c"; "E/1=" ] ~constants:[ "k=7" ] with
  | Error e -> Alcotest.fail e
  | Ok st ->
    let rels, consts = Codec.state_to_strings st in
    (match Codec.parse_state ~relations:rels ~constants:consts with
    | Error e -> Alcotest.fail e
    | Ok st2 ->
      Alcotest.(check bool) "relations round-trip" true
        (Relation.equal (State.relation st "F") (State.relation st2 "F"));
      Alcotest.(check bool) "empty relation round-trips" true
        (Relation.is_empty (State.relation st2 "E"));
      Alcotest.(check bool) "constants round-trip" true
        (Value.equal (State.constant st "@k") (State.constant st2 "@k")))

let () =
  Alcotest.run "fq_db"
    [ ("value", [ Alcotest.test_case "ordering" `Quick test_value_order ]);
      ("schema", [ Alcotest.test_case "basics" `Quick test_schema ]);
      ( "relation",
        [ Alcotest.test_case "basics" `Quick test_relation_basics;
          Alcotest.test_case "operations" `Quick test_relation_ops;
          Alcotest.test_case "values" `Quick test_relation_values;
          Alcotest.test_case "row access" `Quick test_relation_rows;
          Alcotest.test_case "equijoin" `Quick test_relation_equijoin ] );
      ("state", [ Alcotest.test_case "basics" `Quick test_state ]);
      ( "relalg",
        [ Alcotest.test_case "eval" `Quick test_relalg_eval;
          Alcotest.test_case "domain predicates" `Quick test_relalg_domain_pred;
          Alcotest.test_case "join node" `Quick test_relalg_join;
          Alcotest.test_case "arity check" `Quick test_relalg_arity_check ] );
      ( "codec",
        [ Alcotest.test_case "parse" `Quick test_codec_parse;
          Alcotest.test_case "errors" `Quick test_codec_errors;
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip ] ) ]
