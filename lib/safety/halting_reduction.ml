module Word = Fq_words.Word
module Trace = Fq_tm.Trace
module Encode = Fq_tm.Encode
module Run = Fq_tm.Run
module Relation = Fq_db.Relation
module Value = Fq_db.Value

let instance ~machine ~input =
  (Diagonal.totality_query machine, Diagonal.state_for input)

type evidence =
  | Halts of { steps : int; answer : Relation.t }
  | Diverges_beyond of { trace_count : int }

let ( let* ) = Result.bind

let check ~budget ~machine ~input =
  if not (Word.is_machine_shaped machine) then
    Error (Printf.sprintf "%S is not machine-shaped" machine)
  else if not (Word.is_input input) then
    Error (Printf.sprintf "%S is not an input word" input)
  else
    let query, state = instance ~machine ~input in
    match Run.run_b ~budget (Encode.decode machine) input with
    | Run.Done { steps; _ } ->
      (* finite side: the answer is exactly the trace set; certify it with
         the decision procedure *)
      let traces = List.of_seq (Trace.traces ~machine ~input) in
      let answer = Relation.make ~arity:1 (List.map (fun t -> [ Value.str t ]) traces) in
      let domain : Fq_domain.Domain.t = (module Fq_domain.Traces) in
      let* complete = Fq_eval.Enumerate.certified_complete ~domain ~state query answer in
      if not complete then Error "internal: trace set not certified complete"
      else if Relation.cardinal answer <> steps + 1 then
        Error "internal: trace count differs from steps + 1"
      else Ok (Halts { steps; answer })
    | Run.Stopped { steps; _ } ->
      (* diverging side: exhibit unboundedly many answer tuples — as many
         as the budget let the simulation reach *)
      let count = Trace.count_traces_upto ~bound:(max 1 steps) ~machine ~input in
      Ok (Diverges_beyond { trace_count = count })
