(* A database of computational experiments over the trace domain T — the
   application the paper's conclusion motivates: "this domain is arguably
   a natural choice in several applications related to storing results of
   computations".

   We store experiment records (machine, input) in a relation, query their
   traces through the interpreted predicate P, and watch both sides of
   Theorem 3.3: for halting experiments the trace query has a finite,
   certifiable answer; for diverging ones the answer grows without bound,
   and no procedure can tell us so in general.

   Run with: dune exec examples/computation_db.exe *)

open Finite_queries

let parse = Parser.formula_exn
let s = Value.str

let () =
  let domain : Domain.t = (module Traces) in
  let scan = Encode.encode Zoo.scan_right in
  let looper = Encode.encode Zoo.loop in
  let parity = Encode.encode Zoo.parity in

  (* The scheme: Exp(machine, input) — scheduled experiment runs. *)
  let schema = Schema.make [ ("Exp", 2) ] in
  let experiments =
    Relation.make ~arity:2
      [ [ s scan; s "11" ]; [ s parity; s "11" ]; [ s parity; s "111" ];
        [ s looper; s "1" ] ]
  in
  let state = State.make ~schema [ ("Exp", experiments) ] in
  Format.printf "Experiment registry (machine word, input word):@.%a@." State.pp state;

  (* Which experiments have already produced a trace? *)
  let q = parse "exists p. Exp(m, w) /\\ P(m, w, p)" in
  Format.printf "@.Experiments with at least one trace (all of them, by definition):@.";
  (match
     Enumerate.run_budgeted ~budget:(Budget.of_fuel ~share:false 400) ~max_certified:6 ~domain
       ~state q
   with
  | Ok (Enumerate.Complete r) -> Format.printf "  %a@." Relation.pp r
  | Ok (Enumerate.Partial { tuples; _ }) ->
    Format.printf "  (fuel exhausted) partial: %d rows@." (Relation.cardinal tuples)
  | Error e -> Format.printf "  error: %s@." e);

  (* All traces of the halting experiments: P(m, w, p) for registered
     (m, w). Finite iff every registered machine halts on its input —
     here it is not, because of the looper. *)
  let traces_q = parse "Exp(m, w) /\\ P(m, w, p)" in
  Format.printf
    "@.All traces of registered experiments (the looper makes this infinite):@.";
  (match
     Relative_safety.bounded ~budget:(Budget.of_fuel ~share:false 600) ~max_certified:4 ~domain
       ~state traces_q
   with
  | Ok (Relative_safety.Finite r) ->
    Format.printf "  finite, %d rows (unexpected!)@." (Relation.cardinal r)
  | Ok (Relative_safety.Unknown partial) ->
    Format.printf "  not certified finite; %d trace rows and counting...@."
      (Relation.cardinal partial)
  | Ok Relative_safety.Infinite -> Format.printf "  infinite@."
  | Error e -> Format.printf "  error: %s@." e);

  (* Theorem 3.3 on individual instances: the reduction halting -> finite. *)
  Format.printf "@.Theorem 3.3, instance by instance (query P(M, @@c, x) in state c = w):@.";
  List.iter
    (fun (name, machine, input) ->
      match Halting_reduction.check ~budget:(Budget.of_fuel 2_000) ~machine ~input with
      | Ok (Halting_reduction.Halts { steps; answer }) ->
        Format.printf
          "  %s on %S: halts after %d steps -> finite answer, %d traces (certified)@." name
          input steps (Relation.cardinal answer)
      | Ok (Halting_reduction.Diverges_beyond { trace_count }) ->
        Format.printf "  %s on %S: no halt within fuel -> at least %d answer tuples@." name
          input trace_count
      | Error e -> Format.printf "  %s on %S: error (%s)@." name input e)
    [ ("scan_right", scan, "11"); ("parity", parity, "11"); ("parity", parity, "111");
      ("loop", looper, "1") ];

  (* The decidable theory at work (Corollary A.4): first-order questions
     about the registry are answerable even though finiteness is not. *)
  Format.printf "@.Some decided sentences of the theory of traces:@.";
  List.iter
    (fun (label, sentence) ->
      match Traces.decide (parse sentence) with
      | Ok b -> Format.printf "  %-60s %b@." label b
      | Error e -> Format.printf "  %-60s error (%s)@." label e)
    [ ( "scan_right has a 3-snapshot computation on \"11\"",
        Printf.sprintf
          "exists p1 p2 p3. P(\"%s\", \"11\", p1) /\\ P(\"%s\", \"11\", p2) /\\ P(\"%s\", \
           \"11\", p3) /\\ p1 != p2 /\\ p1 != p3 /\\ p2 != p3"
          scan scan scan );
      ( "some machine halts instantly on \"1\"",
        "exists m. (exists p. P(m, \"1\", p)) /\\ (forall p q. P(m, \"1\", p) /\\ P(m, \
         \"1\", q) -> p = q)" );
      ("a trace determines its machine", "exists m n w p. P(m, w, p) /\\ P(n, w, p) /\\ m != n")
    ]
