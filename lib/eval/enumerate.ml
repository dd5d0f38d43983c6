module Budget = Fq_core.Budget
module Fault = Fq_core.Fault
module Telemetry = Fq_core.Telemetry
module Formula = Fq_logic.Formula
module Term = Fq_logic.Term
module Value = Fq_db.Value
module Relation = Fq_db.Relation

type budgeted =
  | Complete of Relation.t
  | Partial of { tuples : Relation.t; seen : int; reason : Budget.failure }

let ( let* ) = Result.bind

(* Fair k-tuple enumeration: stage n yields the tuples over the first n+1
   elements whose maximal index is exactly n. *)
let tuples ~arity enum =
  if arity = 0 then Seq.return []
  else begin
    (* the materialized prefix of the enumeration, in a doubling buffer
       (appending element-by-element with Array.append is quadratic) *)
    let buf = ref (Array.make 16 (Value.int 0)) in
    let len = ref 0 in
    let seq = ref (enum ()) in
    let element i =
      while !len <= i do
        match !seq () with
        | Seq.Nil -> invalid_arg "Enumerate.tuples: enumeration ran dry"
        | Seq.Cons (v, rest) ->
          if !len = Array.length !buf then begin
            let bigger = Array.make (2 * !len) v in
            Array.blit !buf 0 bigger 0 !len;
            buf := bigger
          end;
          !buf.(!len) <- v;
          incr len;
          seq := rest
      done;
      !buf.(i)
    in
    (* index tuples over [0..n] with at least one coordinate = n *)
    let rec index_tuples k n =
      if k = 0 then Seq.return ([], false)
      else
        Seq.concat_map
          (fun i ->
            Seq.map
              (fun (rest, saw_n) -> (i :: rest, saw_n || i = n))
              (index_tuples (k - 1) n))
          (Seq.init (n + 1) Fun.id)
    in
    let stage n =
      index_tuples arity n
      |> Seq.filter_map (fun (idx, saw_n) ->
             if saw_n then Some (List.map element idx) else None)
    in
    Seq.concat_map stage (Seq.ints 0)
  end

let substitute domain vars tuple f =
  let (module D : Fq_domain.Domain.S) = domain in
  Formula.subst (List.map2 (fun v value -> (v, Term.Const (D.const_name value))) vars tuple) f

let not_in_relation domain vars rel =
  (* ⋀_{ā ∈ rel} ⋁_i xᵢ ≠ aᵢ *)
  let (module D : Fq_domain.Domain.S) = domain in
  Formula.conj
    (List.map
       (fun tup ->
         Formula.disj
           (List.map2 (fun v value -> Formula.neq (Term.Var v) (Term.Const (D.const_name value))) vars tup))
       (Relation.tuples rel))

let decide domain f =
  Fault.hit "decide";
  let (module D : Fq_domain.Domain.S) = domain in
  D.decide f

let certified_complete ?cache ~domain ~state f rel =
  let domain =
    match cache with
    | Some c -> Fq_domain.Decide_cache.domain c domain
    | None -> domain
  in
  let* f' = Translate.formula ~domain ~state f in
  let vars = Formula.free_vars f in
  if vars = [] then Ok true
  else
    let more = Formula.exists_many vars (Formula.And (f', not_in_relation domain vars rel)) in
    Result.map not (decide domain more)

(* A decision procedure running under the ambient budget reports
   exhaustion through its string-error channel; recover the structure so
   the scan can close with [Partial] instead of a hard error. *)
let classify_error e =
  match Budget.failure_of_string e with
  | Some reason -> Budget.Exhausted reason
  | None -> Failure e

let run_budgeted ?(max_certified = 12) ?cache ?resume ~budget ~domain ~state f =
  let domain =
    match cache with
    | Some c -> Fq_domain.Decide_cache.domain c domain
    | None -> domain
  in
  let* f' = Translate.formula ~domain ~state f in
  let vars = Formula.free_vars f in
  let exception Decide_failed of string in
  let decide_exn g =
    match decide domain g with
    | Ok b -> b
    | Error e -> (
      match classify_error e with
      | Budget.Exhausted _ as ex -> raise ex
      | _ -> raise (Decide_failed e))
  in
  if vars = [] then begin
    match Budget.guard budget (fun () -> Telemetry.with_span "enumerate.sentence" (fun () -> decide_exn f')) with
    | Ok holds -> Ok (Complete (Relation.make ~arity:0 (if holds then [ [] ] else [])))
    | Error reason -> Ok (Partial { tuples = Relation.empty ~arity:0; seen = 0; reason })
    | exception Decide_failed e -> Error e
  end
  else begin
    let arity = List.length vars in
    let seen0, found0 =
      match resume with
      | None -> (0, Relation.empty ~arity)
      | Some (seen, rel) ->
        Telemetry.count "enumerate.resume_reentries";
        (seen, rel)
    in
    let seen = ref seen0 in
    let found = ref found0 in
    let scan () =
      if seen0 > 0 then Fault.hit "enumerate.resume";
      (* A resumed scan ([seen0 > 0]) necessarily passed this satisfiability
         gate in the round that consumed its first candidate — don't pay the
         decide again. *)
      if seen0 = 0 && not (decide_exn (Formula.exists_many vars f')) then
        Complete (Relation.empty ~arity)
      else begin
        let (module D : Fq_domain.Domain.S) = domain in
        (* Any enumeration order is sound; visiting the active domain first
           finds the answers of domain-independent queries without scanning
           far into the domain. *)
        let adom_all = Translate.active_domain ~domain ~state f in
        let adom = List.filter D.member adom_all in
        let enum_with_adom () =
          Seq.append (List.to_seq adom) (Seq.append (D.seeds adom_all) (D.enumerate ()))
        in
        (* The candidate order is deterministic, so a resumed run re-enters
           the same enumeration and just skips the consumed prefix. *)
        let candidates = Seq.drop seen0 (tuples ~arity enum_with_adom) in
        let exception Complete_at of Relation.t in
        let exclusion_clause tuple =
          Formula.disj
            (List.map2
               (fun v value -> Formula.neq (Term.Var v) (Term.Const (D.const_name value)))
               vars tuple)
        in
        (* The completeness sentence's exclusion conjunct ⋀_{ā} ⋁ᵢ xᵢ ≠ aᵢ is
           extended by one clause per found tuple instead of being rebuilt
           from the whole relation each time (which is quadratic in the
           answer size). *)
        let excl =
          ref
            (match Relation.tuples found0 with
            | [] -> Formula.True
            | tups -> Formula.conj (List.map exclusion_clause tups))
        in
        let certified_done () =
          Telemetry.with_span "enumerate.certify" @@ fun () ->
          Fault.hit "enumerate.certify";
          Telemetry.count "enumerate.certifications";
          let more = Formula.exists_many vars (Formula.And (f', !excl)) in
          not (decide_exn more)
        in
        let visit tuple =
          Budget.tick budget;
          Fault.hit "enumerate.scan";
          Telemetry.count "enumerate.candidates";
          (* [seen] advances only once the candidate is fully decided: a
             trip inside the decision procedure leaves the resume token
             pointing at this candidate, so no candidate is ever skipped
             undecided. *)
          let sat = decide_exn (substitute domain vars tuple f') in
          incr seen;
          if sat then
            if Relation.mem tuple !found then () (* adom values repeat in the enumeration *)
            else begin
              found := Relation.add tuple !found;
              let clause = exclusion_clause tuple in
              excl := (match !excl with Formula.True -> clause | prev -> Formula.And (prev, clause));
              (* The completeness sentence grows with every found tuple and
                 can overwhelm the decision procedure; past the certification
                 cap we stop claiming completeness. *)
              if Relation.cardinal !found > max_certified then
                raise (Budget.Exhausted (Budget.Oversize max_certified));
              if certified_done () then raise (Complete_at !found)
            end
        in
        (* A budget trip inside the certification decide loses only the
           certificate, not the scan position — so a resumed run with found
           tuples re-checks completeness before consuming more candidates. *)
        let resumed_complete =
          seen0 > 0 && Relation.cardinal found0 > 0 && certified_done ()
        in
        if resumed_complete then Complete found0
        else
          match Seq.iter visit candidates with
          | () ->
            (* enumeration ran dry — cannot happen on infinite domains *)
            Partial { tuples = !found; seen = !seen; reason = Budget.Fuel_exhausted }
          | exception Complete_at rel -> Complete rel
      end
    in
    match Budget.guard budget (fun () -> Telemetry.with_span "enumerate.scan" scan) with
    | Ok v -> Ok v
    | Error reason -> Ok (Partial { tuples = !found; seen = !seen; reason })
    | exception Decide_failed e -> Error e
  end
