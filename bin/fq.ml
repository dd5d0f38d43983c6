(* fq — command-line front end to the Finite Queries library.

   Subcommands:
     fq decide   — decide a pure domain sentence
     fq safety   — syntactic safe-range check of a query
     fq relsafe  — relative safety of a query in a state
     fq eval     — answer a query in a state (Section 1.1 algorithm)
     fq batch    — supervised parallel evaluation of many queries
                   (local domain pool, or --connect to a running server)
     fq serve    — persistent query service on a Unix/TCP socket
     fq fleet    — supervised multi-process fleet of fq serve workers
     fq tm       — run a Turing machine / list the zoo / show traces
     fq diag     — the Theorem 3.1 diagonalization demo
     fq halting  — the Theorem 3.3 reduction on an instance *)

open Finite_queries
open Cmdliner

(* ------------------------- shared arguments ------------------------ *)

(* the one domain registry, shared with the serve protocol *)
let domains = Protocol.domains

let domain_conv =
  let parse s =
    match List.assoc_opt s domains with
    | Some d -> Ok d
    | None ->
      Error (`Msg (Printf.sprintf "unknown domain %S (try: %s)" s
                     (String.concat ", " (List.map fst domains))))
  in
  let print fmt (d : Domain.t) =
    let (module D : Domain.S) = d in
    Format.pp_print_string fmt D.name
  in
  Arg.conv (parse, print)

let domain_arg =
  let doc = "Domain to interpret the formula over (equality, nat_order, nat_succ, presburger, arithmetic, traces)." in
  Arg.(value & opt domain_conv (module Presburger : Domain.S) & info [ "d"; "domain" ] ~doc)

let formula_arg =
  let doc = "The formula, in the library's concrete syntax." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FORMULA" ~doc)

let parse_formula s =
  match Parser.formula s with
  | Ok f -> Ok f
  | Error e -> Error (Printf.sprintf "parse error: %s" e)

(* state description: --relation "F/2=a,b;b,c" (strings) or numbers;
   --constant "c=w" *)
let relation_arg =
  let doc = "A relation of the state: NAME/ARITY=v1,v2;v1,v2;... Values that parse as nonnegative integers become numbers; everything else is a string." in
  Arg.(value & opt_all string [] & info [ "r"; "relation" ] ~doc)

let constant_arg =
  let doc = "A scheme constant of the state: NAME=VALUE." in
  Arg.(value & opt_all string [] & info [ "c"; "constant" ] ~doc)

let parse_state rel_specs const_specs =
  Codec.parse_state ~relations:rel_specs ~constants:const_specs

(* --------------------------- stats profiles ------------------------- *)

(* A stats profile file has one "FINGERPRINT COUNT MEAN" line per plan
   node (blank lines and # comments skipped) — the format `fq explain
   --stats-out` writes from the relalg.node_card.<fp> histograms of a
   run. Feeding it back with --stats gives the cost-based optimizer
   observed cardinalities in place of its textbook estimates. *)
let read_profile path =
  match open_in path with
  | exception Sys_error msg -> Error (Printf.sprintf "stats file: %s" msg)
  | ic ->
    let rec go acc lineno =
      match input_line ic with
      | exception End_of_file ->
        close_in ic;
        Ok (List.rev acc)
      | line -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go acc (lineno + 1)
        else
          match
            List.filter (fun s -> s <> "") (String.split_on_char ' ' line)
          with
          | [ fp; _count; mean ] -> (
            match float_of_string_opt mean with
            | Some m -> go ((fp, m) :: acc) (lineno + 1)
            | None ->
              close_in ic;
              Error (Printf.sprintf "stats file %s, line %d: bad mean %S" path lineno mean))
          | _ ->
            close_in ic;
            Error
              (Printf.sprintf
                 "stats file %s, line %d: expected \"FINGERPRINT COUNT MEAN\"" path lineno))
    in
    go [] 1

(* state cardinalities + the file's observed-cardinality profile *)
let load_stats state = function
  | None -> Ok None
  | Some path ->
    Result.map
      (fun entries ->
        Some (Optimizer.Stats.with_profile entries (Optimizer.Stats.of_state state)))
      (read_profile path)

let stats_arg =
  let doc =
    "Feed the cost-based optimizer a stats profile (FINGERPRINT COUNT MEAN lines, as \
     written by $(b,fq explain --stats-out)): profiled nodes use their observed output \
     cardinality instead of the textbook estimate. Refused by $(b,fq serve) and \
     $(b,fq fleet), whose stats follow each reloaded state."
  in
  Arg.(value & opt (some string) None & info [ "stats" ] ~docv:"FILE" ~doc)

let write_profile path (treport : Telemetry.report) =
  let prefix = Relalg.card_metric ^ "." in
  let plen = String.length prefix in
  let oc = open_out path in
  output_string oc
    "# fq stats profile: FINGERPRINT COUNT MEAN (relalg node output cardinality)\n";
  List.iter
    (fun (name, h) ->
      match Fq_core.Aggregate.mean h with
      | Some mean when String.length name > plen && String.sub name 0 plen = prefix ->
        Printf.fprintf oc "%s %d %g\n"
          (String.sub name plen (String.length name - plen))
          h.Telemetry.count mean
      | _ -> ())
    treport.Telemetry.histograms;
  close_out oc

(* one-word operator label for the explain cost table *)
let node_label = function
  | Relalg.Rel r -> "rel " ^ r
  | Relalg.Lit r -> Printf.sprintf "lit/%d" (Relation.arity r)
  | Relalg.Select _ -> "select"
  | Relalg.Project (cols, _) ->
    Printf.sprintf "project[%s]" (String.concat "," (List.map string_of_int cols))
  | Relalg.Product _ -> "product"
  | Relalg.Join (pairs, _, _) ->
    Printf.sprintf "join[%s]"
      (String.concat "," (List.map (fun (i, j) -> Printf.sprintf "%d=%d" i j) pairs))
  | Relalg.Union _ -> "union"
  | Relalg.Diff _ -> "diff"

(* --------------------------- resource governor ---------------------- *)

(* Exit codes: 0 = complete answer, 3 = partial (budget exhausted),
   4 = input outside the supported fragment, 1 = any other error.
   The mapping lives in Outcome so eval, batch and serve agree. *)
let exit_partial = Outcome.exit_partial
let exit_unsupported = Outcome.exit_unsupported
let exit_of_error = Outcome.exit_of_error

let report = function
  | Ok code -> code
  | Error msg ->
    Format.eprintf "error: %s@." msg;
    exit_of_error msg

let fuel_arg ~default =
  let doc =
    "Step/candidate budget for the resource governor. On exhaustion the command reports \
     what it established so far and exits 3."
  in
  Arg.(value & opt int default & info [ "fuel" ] ~doc)

let timeout_arg =
  let doc =
    "Wall-clock deadline in milliseconds. On expiry the command reports partial results \
     and exits 3."
  in
  Arg.(value & opt (some int) None & info [ "timeout-ms" ] ~doc)

let budget_of fuel timeout_ms = Budget.make ~fuel ?timeout_ms ()

(* ----------------------------- telemetry ---------------------------- *)

type trace_sink = Pretty | Jsonl | Chrome of string

let trace_conv =
  let parse s =
    match s with
    | "pretty" -> Ok Pretty
    | "jsonl" -> Ok Jsonl
    | _ when String.length s > 7 && String.sub s 0 7 = "chrome:" ->
      Ok (Chrome (String.sub s 7 (String.length s - 7)))
    | _ ->
      Error (`Msg (Printf.sprintf "unknown trace sink %S (pretty, jsonl, chrome:FILE)" s))
  in
  let print fmt = function
    | Pretty -> Format.pp_print_string fmt "pretty"
    | Jsonl -> Format.pp_print_string fmt "jsonl"
    | Chrome file -> Format.fprintf fmt "chrome:%s" file
  in
  Arg.conv (parse, print)

let trace_arg =
  let doc =
    "Record a span trace of the run and render it on stderr: $(b,pretty) (indented tree \
     with tick and wall-clock attribution), $(b,jsonl) (one JSON object per line), or \
     $(b,chrome:FILE) (Chrome trace_event JSON written to FILE, loadable in Perfetto or \
     about://tracing)."
  in
  Arg.(value & opt ~vopt:(Some Pretty) (some trace_conv) None & info [ "trace" ] ~doc)

let metrics_arg =
  let doc = "Print the run's telemetry counters and histograms on stderr." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

(* Run a command body under a recording collector when asked to; the report
   goes to stderr so stdout stays stable for scripts and cram tests. *)
let with_telemetry trace metrics f =
  match (trace, metrics) with
  | None, false -> f ()
  | _ ->
    (* A chrome sink is opened before the run: an unwritable FILE is a
       usage error diagnosed up front with the structured exit code, not a
       raw [Sys_error] crash that discards a finished run's results. *)
    let chrome_sink =
      match trace with
      | Some (Chrome file) -> (
        match open_out file with
        | oc -> Some (file, oc)
        | exception Sys_error msg ->
          Format.eprintf "error: unsupported: trace sink: %s@." msg;
          exit exit_unsupported)
      | _ -> None
    in
    let code, treport = Telemetry.record f in
    (match trace with
    | None -> ()
    | Some Pretty -> Format.eprintf "%a" Telemetry.pp_pretty treport
    | Some Jsonl -> Format.eprintf "%a" Telemetry.pp_jsonl treport
    | Some (Chrome _) ->
      let file, oc = Option.get chrome_sink in
      let fmt = Format.formatter_of_out_channel oc in
      Format.fprintf fmt "%a@?" Telemetry.pp_chrome treport;
      close_out oc;
      Format.eprintf "trace written to %s@." file);
    if metrics then Format.eprintf "%a" Telemetry.pp_metrics treport;
    code

(* --------------------------- common options ------------------------- *)

(* Every subcommand takes the same options record through one shared
   Cmdliner term — no subcommand defines its own copy of --fuel,
   --timeout-ms, --trace, --metrics or --stats.  Only the fuel
   default varies per command. *)
type common = {
  trace : trace_sink option;
  metrics : bool;
  fuel : int;
  timeout_ms : int option;
  stats_file : string option;
}

let common_opts ~default_fuel =
  let make trace metrics fuel timeout_ms stats_file =
    { trace; metrics; fuel; timeout_ms; stats_file }
  in
  Term.(const make $ trace_arg $ metrics_arg $ fuel_arg ~default:default_fuel
        $ timeout_arg $ stats_arg)

let with_common c f = with_telemetry c.trace c.metrics f

let budget_of_common c = budget_of c.fuel c.timeout_ms

(* ------------------------------ decide ----------------------------- *)

let decide_cmd =
  let run common domain formula =
    with_common common @@ fun () ->
    report
      (Result.bind (parse_formula formula) (fun f ->
           let (module D : Domain.S) = domain in
           let budget = budget_of_common common in
           Result.map
             (fun b ->
               Format.printf "%b@." b;
               0)
             (Budget.protect ~budget (fun () -> D.decide f))))
  in
  let doc = "Decide a pure domain sentence (the domain's decision procedure)." in
  Cmd.v (Cmd.info "decide" ~doc)
    Term.(const run $ common_opts ~default_fuel:1_000_000 $ domain_arg $ formula_arg)

(* ------------------------------ safety ----------------------------- *)

let schema_arg =
  let doc = "Database relations of the scheme, as NAME/ARITY (repeatable)." in
  Arg.(value & opt_all string [] & info [ "s"; "schema" ] ~doc)

let parse_schema_assoc specs =
  try
    Ok
      (List.map
         (fun spec ->
           match String.index_opt spec '/' with
           | None -> failwith (Printf.sprintf "bad schema entry %S (want NAME/ARITY)" spec)
           | Some i ->
             ( String.sub spec 0 i,
               int_of_string (String.sub spec (i + 1) (String.length spec - i - 1)) ))
         specs)
  with Failure msg -> Error msg

let safety_cmd =
  let run common schema formula =
    with_common common @@ fun () ->
    report
      (Result.bind (parse_schema_assoc schema) (fun schema ->
           Result.map
             (fun f ->
               (match Query.safe_range ~schema f with
               | Safe_range.Safe_range ->
                 Format.printf "safe-range: the query is finite in every state@."
               | Safe_range.Not_safe_range why -> Format.printf "not safe-range: %s@." why);
               0)
             (parse_formula formula)))
  in
  let doc = "Check the syntactic safe-range (range-restriction) discipline." in
  Cmd.v (Cmd.info "safety" ~doc)
    Term.(const run $ common_opts ~default_fuel:10_000 $ schema_arg $ formula_arg)

(* ------------------------------ relsafe ---------------------------- *)

let relsafe_cmd =
  let run common domain rels consts formula =
    with_common common @@ fun () ->
    report
      (Result.bind (parse_formula formula) (fun f ->
           Result.bind (parse_state rels consts) (fun state ->
               let budget = budget_of_common common in
               Result.map
                 (fun b ->
                   Format.printf "%s@."
                     (if b then "finite in this state" else "INFINITE in this state");
                   0)
                 (Budget.protect ~budget (fun () ->
                      Relative_safety.decide_for ~domain ~state f)))))
  in
  let doc = "Decide relative safety: is the query's answer finite in the given state? (Undecidable over traces — Theorem 3.3.)" in
  Cmd.v (Cmd.info "relsafe" ~doc)
    Term.(const run $ common_opts ~default_fuel:1_000_000 $ domain_arg $ relation_arg
          $ constant_arg $ formula_arg)

(* ------------------------------- eval ------------------------------ *)

let json_arg =
  let doc =
    "Print the outcome as one JSON object on stdout (the stable Outcome schema shared by \
     $(b,fq eval), $(b,fq batch) and $(b,fq serve)) and derive the exit code from it."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let eval_cmd =
  let run common domain rels consts verbose json formula =
    with_common common @@ fun () ->
    report
      (Result.bind (parse_formula formula) (fun f ->
           Result.bind (parse_state rels consts) (fun state ->
               Result.bind (load_stats state common.stats_file) (fun stats ->
               let budget = budget_of_common common in
               let rep = Query.eval_resilient ~budget ?stats ~domain ~state f in
               if json then begin
                 print_endline (Json.to_string (Outcome.to_json rep));
                 Ok (Outcome.exit_code rep)
               end
               else begin
                 if verbose then Format.printf "%a@." Outcome.pp rep;
                 match rep.Outcome.verdict with
                 | Outcome.Complete { answer; _ } ->
                   if not verbose then
                     Format.printf "finite answer (%d tuples): %a@."
                       (Relation.cardinal answer) Relation.pp answer;
                   Ok 0
                 | Outcome.Partial { tuples; reason; _ } ->
                   if not verbose then
                     Format.printf
                       "%a; partial answer (%d tuples): %a@.(the answer may be infinite — \
                        relative safety is the hard part)@."
                       Budget.pp_failure reason (Relation.cardinal tuples) Relation.pp tuples;
                   Ok exit_partial
                 | Outcome.Failed { reason } -> Error reason
               end))))
  in
  let verbose =
    Arg.(value & flag
         & info [ "verbose" ]
             ~doc:"Print the full degradation-chain report (tier, attempts, resources spent).")
  in
  let doc =
    "Answer a query in a state: RANF compilation when safe-range, else the Section 1.1 \
     enumerate-and-decide algorithm under the governor."
  in
  Cmd.v (Cmd.info "eval" ~doc)
    Term.(const run $ common_opts ~default_fuel:10_000 $ domain_arg $ relation_arg
          $ constant_arg $ verbose $ json_arg $ formula_arg)

(* ------------------------------ report ----------------------------- *)

let report_cmd =
  let run common domain rels consts formula =
    with_common common @@ fun () ->
    report
      (Result.bind (parse_formula formula) (fun f ->
           Result.map
             (fun state ->
               let budget = budget_of_common common in
               let r = Report.analyze ~budget ~domain ~state f in
               Format.printf "%a@." Report.pp r;
               Outcome.exit_code r.Report.evaluation)
             (parse_state rels consts)))
  in
  let doc =
    "Full analysis of a query: syntactic safety, relative safety, and the answer from the \
     degradation chain of $(b,eval) (same verdict and exit code)."
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(const run $ common_opts ~default_fuel:10_000 $ domain_arg $ relation_arg
          $ constant_arg $ formula_arg)

(* -------------------------------- tm ------------------------------- *)

let machine_of_string s =
  match List.find_opt (fun e -> e.Zoo.name = s) Zoo.all with
  | Some e -> Ok (Encode.encode e.Zoo.machine)
  | None ->
    if Word.is_machine_shaped s then Ok s
    else Error (Printf.sprintf "%S is neither a zoo machine nor a machine-shaped word" s)

let tm_cmd =
  let run common machine input show_traces explain list_zoo =
    with_common common @@ fun () ->
    if list_zoo then begin
      Format.printf "%-12s %-9s %s@." "name" "totality" "description";
      List.iter
        (fun e ->
          Format.printf "%-12s %-9s %s@.             encoding: %S@." e.Zoo.name
            (match e.Zoo.totality with
            | Zoo.Total -> "total"
            | Zoo.Non_total -> "non-total"
            | Zoo.Unknown -> "unknown")
            e.Zoo.description
            (Encode.encode e.Zoo.machine))
        Zoo.all;
      0
    end
    else
      report
        (Result.bind (machine_of_string machine) (fun m ->
             if not (Word.is_input input) then
               Error (Printf.sprintf "%S is not an input word over {1,-}" input)
             else begin
               let code =
                 match Run.run_b ~budget:(budget_of_common common) (Encode.decode m) input with
                 | Run.Done { steps; result } ->
                   Format.printf "halts after %d steps; result %S@." steps result;
                   0
                 | Run.Stopped { steps; _ } ->
                   Format.printf "still running after %d steps@." steps;
                   exit_partial
               in
               if show_traces then begin
                 Format.printf "traces:@.";
                 Trace.traces ~machine:m ~input |> Seq.take 10
                 |> Seq.iter (fun t -> Format.printf "  %S@." t)
               end;
               if explain then begin
                 match
                   Trace.trace_word ~machine:m ~input
                     ~k:(Run.config_count_upto ~bound:12 (Encode.decode m) input)
                 with
                 | Some t -> (
                   match Explain.trace t with
                   | Ok text -> Format.printf "%s" text
                   | Error e -> Format.printf "explain: %s@." e)
                 | None -> ()
               end;
               Ok code
             end))
  in
  let machine =
    Arg.(value & opt string "scan_right" & info [ "m"; "machine" ] ~doc:"Zoo name or machine word.")
  in
  let input = Arg.(value & opt string "" & info [ "w"; "input" ] ~doc:"Input word over {1,-}.") in
  let traces = Arg.(value & flag & info [ "traces" ] ~doc:"Print the first traces.") in
  let explain =
    Arg.(value & flag & info [ "explain" ] ~doc:"Render the computation snapshot by snapshot.")
  in
  let zoo = Arg.(value & flag & info [ "zoo" ] ~doc:"List the machine zoo and exit.") in
  let doc = "Run a Turing machine of the trace domain; inspect the zoo and traces." in
  Cmd.v (Cmd.info "tm" ~doc)
    Term.(const run $ common_opts ~default_fuel:10_000 $ machine $ input $ traces
          $ explain $ zoo)

(* ------------------------------- diag ------------------------------ *)

let diag_cmd =
  let run common budget =
    with_common common @@ fun () ->
    let scan = Encode.encode Zoo.scan_right in
    let syntax =
      { Syntax_class.name = "demo";
        description = "the totality query of scan_right";
        accepts = (fun f -> Formula.equal f (Diagonal.totality_query scan));
        enumerate = (fun () -> Seq.return (Diagonal.totality_query scan)) }
    in
    report
      (Result.map
         (fun outcome ->
           (match outcome with
           | Diagonal.Missed_finite_query { machine; query; candidates_checked } ->
             Format.printf
               "the candidate syntax misses a finite query (Theorem 3.1):@.  total machine \
                %S@.  finite query %a@.  not equivalent to any of %d candidates@."
               machine Formula.pp query candidates_checked
           | Diagonal.Admits_unsafe { formula; witness_machine; witness_input } ->
             Format.printf
               "the candidate syntax admits an unsafe formula:@.  %a@.  (the machine %S \
                diverges on %S)@."
               Formula.pp formula witness_machine witness_input);
           0)
         (Diagonal.defeat ~syntax ~budget))
  in
  let budget = Arg.(value & opt int 4 & info [ "budget" ] ~doc:"Search budget.") in
  let doc = "Run the Theorem 3.1 diagonalization against a demo candidate syntax." in
  Cmd.v (Cmd.info "diag" ~doc) Term.(const run $ common_opts ~default_fuel:10_000 $ budget)

(* ------------------------------ halting ---------------------------- *)

let halting_cmd =
  let run common machine input =
    with_common common @@ fun () ->
    report
      (Result.bind (machine_of_string machine) (fun m ->
           Result.map
             (function
               | Halting_reduction.Halts { steps; answer } ->
                 Format.printf
                   "the machine halts after %d steps: the query P(M, @@c, x) is finite in \
                    the state c = %S, with %d certified answer tuples@."
                   steps input (Relation.cardinal answer);
                 0
               | Halting_reduction.Diverges_beyond { trace_count } ->
                 Format.printf
                   "no halt within %d steps: at least %d answer tuples so far (if the \
                    machine diverges, the answer is infinite — and Theorem 3.3 says no \
                    procedure can always tell)@."
                   common.fuel trace_count;
                 exit_partial)
             (Halting_reduction.check ~budget:(budget_of_common common) ~machine:m ~input)))
  in
  let machine =
    Arg.(value & opt string "loop" & info [ "m"; "machine" ] ~doc:"Zoo name or machine word.")
  in
  let input = Arg.(value & opt string "" & info [ "w"; "input" ] ~doc:"Input word.") in
  let doc = "The Theorem 3.3 reduction: halting of (M, w) as relative safety over T." in
  Cmd.v (Cmd.info "halting" ~doc)
    Term.(const run $ common_opts ~default_fuel:1_000 $ machine $ input)

(* ------------------------------ explain ----------------------------- *)

let explain_cmd =
  (* Offline replay of an fq serve --slow-log entry: the server already
     recorded the trace id, the plan it chose and the estimated-vs-
     observed cardinality per node at the moment the request ran, so the
     entry re-renders without the server's state (which may since have
     been hot-reloaded away). *)
  let replay_from_log path entry_idx =
    match open_in path with
    | exception Sys_error msg -> Error (Printf.sprintf "slow log: %s" msg)
    | ic ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file ->
          close_in ic;
          List.rev acc
        | line -> (
          let line = String.trim line in
          if line = "" then go acc
          else
            match Json.parse line with
            | Ok j -> go (j :: acc)
            | Error _ -> go acc (* a torn tail is not worth failing the replay *))
      in
      let entries = go [] in
      let n = List.length entries in
      if n = 0 then Error (Printf.sprintf "slow log %s: no entries" path)
      else
        let k = match entry_idx with None -> n - 1 | Some k -> k in
        if k < 0 || k >= n then
          Error (Printf.sprintf "slow log %s: entry %d out of range (0..%d)" path k (n - 1))
        else begin
          let e = List.nth entries k in
          let str name = Option.bind (Json.member name e) Json.to_str_opt in
          let num name = Option.bind (Json.member name e) Json.to_float_opt in
          let int name = Option.bind (Json.member name e) Json.to_int_opt in
          let flag name =
            Option.value ~default:false (Option.bind (Json.member name e) Json.to_bool_opt)
          in
          let s name = Option.value ~default:"?" (str name) in
          Format.printf "slow-query log: %s, entry %d of %d@." path k n;
          Format.printf "trace:   %s   (request id %s, client %s)@." (s "trace") (s "id")
            (s "client");
          Format.printf "domain:  %s   (epoch %s)@." (s "domain")
            (match int "epoch" with Some ep -> string_of_int ep | None -> "?");
          Format.printf "formula: %s@." (s "formula");
          Format.printf "verdict: %s via %s@." (s "status") (s "tier");
          (match (num "latency_ms", int "ticks") with
          | Some ms, Some t -> Format.printf "budget:  %d ticks, %.1f ms@." t ms
          | _ -> ());
          let flags =
            List.filter snd [ ("brownout", flag "brownout"); ("cancelled", flag "cancelled") ]
          in
          if flags <> [] then
            Format.printf "flags:   %s@." (String.concat ", " (List.map fst flags));
          (match str "planned_tier" with
          | Some t -> Format.printf "planned: %s@." t
          | None -> ());
          (match str "plan" with
          | Some p -> Format.printf "plan:    %s@." p
          | None -> ());
          (match Option.bind (Json.member "nodes" e) Json.to_list_opt with
          | Some (_ :: _ as nodes) ->
            Format.printf "cost model (estimated vs observed output cardinality):@.";
            List.iter
              (fun nd ->
                let nstr nm = Option.bind (Json.member nm nd) Json.to_str_opt in
                let nnum nm = Option.bind (Json.member nm nd) Json.to_float_opt in
                let est =
                  match nnum "est" with Some v -> Printf.sprintf "%.1f" v | None -> "?"
                in
                let actual =
                  match nnum "observed_mean" with
                  | Some m -> Printf.sprintf "%.0f" m
                  | None -> "-"
                in
                Format.printf "  %-8s  est %-9s actual %s@."
                  (Option.value ~default:"?" (nstr "fp"))
                  est actual)
              nodes
          | _ -> ());
          (match (str "domain", str "formula") with
          | Some d, Some f -> Format.printf "replay:  fq explain -d %s '%s'@." d f
          | _ -> ());
          Ok 0
        end
  in
  let run common stats_out from_log entry domain rels consts formula =
    with_common common @@ fun () ->
    match (from_log, formula) with
    | Some path, _ -> report (replay_from_log path entry)
    | None, None -> report (Error "explain: a FORMULA is required (or --from-log FILE)")
    | None, Some formula ->
    report
      (Result.bind (parse_formula formula) (fun f ->
           Result.bind (parse_state rels consts) (fun state ->
               Result.bind (load_stats state common.stats_file) (fun stats ->
               let (module D : Domain.S) = domain in
               Format.printf "query:   %a@." Formula.pp f;
               Format.printf "domain:  %s@." D.name;
               (* the compiled plan is shown from a separate dry compile, so
                  the span tree below reflects only the evaluation run *)
               let p = Query.plan ?stats ~domain ~state f in
               (match p.Query.safe_range with
               | Safe_range.Safe_range ->
                 Format.printf "safety:  safe-range@.";
                 List.iter
                   (fun (tier, why) -> Format.printf "plan:    %s inapplicable: %s@." tier why)
                   p.Query.passed
               | Safe_range.Not_safe_range why ->
                 Format.printf "safety:  not safe-range (%s)@." why);
               (match p.Query.compiled with
               | Some { Algebra_translate.plan; columns } ->
                 Format.printf "plan:    %a   [%s; columns %s]@." Relalg.pp plan p.Query.tier
                   (if columns = [] then "<none>" else String.concat "," columns)
               | None -> Format.printf "plan:    enumerate-and-decide (Section 1.1)@.");
               let budget = budget_of_common common in
               let cache = Decide_cache.create () in
               let rep, treport =
                 Telemetry.record (fun () ->
                     Query.eval_resilient ~budget ~cache ?stats ~domain ~state f)
               in
               let code =
                 match rep.Outcome.verdict with
                 | Outcome.Complete { answer; tier } ->
                   Format.printf "verdict: complete via %s (%d tuples): %a@." tier
                     (Relation.cardinal answer) Relation.pp answer;
                   0
                 | Outcome.Partial { tuples; reason; resume } ->
                   Format.printf "verdict: partial (%a after %d candidates), %d tuples so far@."
                     Budget.pp_failure reason resume.Outcome.seen (Relation.cardinal tuples);
                   exit_partial
                 | Outcome.Failed { reason } ->
                   Format.printf "verdict: failed (%s)@." reason;
                   exit_of_error reason
               in
               List.iter
                 (fun (tier, why) -> Format.printf "tier %s passed: %s@." tier why)
                 rep.Outcome.attempts;
               Format.printf "budget:  %d ticks, %.1f ms@." rep.Outcome.usage.Budget.ticks
                 rep.Outcome.usage.Budget.elapsed_ms;
               Format.printf "%a" Telemetry.pp_pretty treport;
               Format.printf "budget attribution (self ticks by span):@.";
               List.iter
                 (fun (name, t) -> if t > 0 then Format.printf "  %-28s %d@." name t)
                 (Telemetry.attribution treport);
               (match p.Query.compiled with
               | None -> ()
               | Some { Algebra_translate.plan; _ } ->
                 let arity_of = Schema.arity (State.schema state) in
                 let st =
                   match stats with Some s -> s | None -> Optimizer.Stats.of_state state
                 in
                 let rec leaves = function
                   | Relalg.Join (_, p, q) | Relalg.Product (p, q) -> leaves p @ leaves q
                   | Relalg.Select (_, p) | Relalg.Project (_, p) -> leaves p
                   | Relalg.Rel r -> [ r ]
                   | Relalg.Lit _ -> [ "<lit>" ]
                   | Relalg.Union _ | Relalg.Diff _ -> []
                 in
                 (match leaves plan with
                 | _ :: _ :: _ as names ->
                   Format.printf "join order: %s (left-deep: the prefix probes, each new \
                                  factor builds)@."
                     (String.concat ", " names)
                 | _ -> ());
                 Format.printf "cost model (estimated vs observed output cardinality):@.";
                 List.iter
                   (fun (fp, node, est, h) ->
                     let est = match est with Some e -> Printf.sprintf "%.1f" e | None -> "?" in
                     let actual =
                       match Option.bind h Fq_core.Aggregate.mean with
                       | Some mean -> Printf.sprintf "%.0f" mean
                       | None -> "-"
                     in
                     Format.printf "  %-8s  est %-9s actual %-6s %s@." fp est actual
                       (node_label node))
                   (Optimizer.est_vs_observed st ~arity_of treport plan));
               let s = Decide_cache.stats cache in
               if s.Decide_cache.hits + s.Decide_cache.misses > 0 then
                 Format.printf "decide cache: %d hits / %d lookups (%.0f%% hit rate)%s@."
                   s.Decide_cache.hits
                   (s.Decide_cache.hits + s.Decide_cache.misses)
                   (100. *. Decide_cache.hit_rate s)
                   (if s.Decide_cache.evictions > 0 then
                      Printf.sprintf ", %d evictions" s.Decide_cache.evictions
                    else "");
               Format.printf "%a" Telemetry.pp_metrics treport;
               (match stats_out with
               | None -> ()
               | Some path ->
                 write_profile path treport;
                 Format.printf "stats profile written to %s@." path);
               Ok code))))
  in
  let doc =
    "Explain how a query is answered: the safe-range check, the compiled algebra plan (or \
     why compilation is inapplicable), the answering tier of the degradation chain, the \
     recorded span tree, the budget attribution (which engine spent the fuel), and the \
     cost model's estimated vs observed cardinality per plan node. With $(b,--stats-out) \
     the observed cardinalities become a stats profile that $(b,--stats) feeds back into \
     the cost-based optimizer on later runs. With $(b,--from-log), replay an entry of an \
     $(b,fq serve --slow-log) file offline instead: the trace, chosen plan and \
     estimates-vs-observed the server recorded when the slow request actually ran."
  in
  let stats_out =
    let doc =
      "Write the run's observed per-node output cardinalities (the relalg.node_card \
       histograms) to FILE in stats-profile format, ready to feed back via $(b,--stats)."
    in
    Arg.(value & opt (some string) None & info [ "stats-out" ] ~docv:"FILE" ~doc)
  in
  let from_log =
    Arg.(value & opt (some string) None
         & info [ "from-log" ] ~docv:"FILE"
             ~doc:"Replay an entry of an $(b,fq serve --slow-log) JSONL file instead of \
                   evaluating a formula.")
  in
  let entry =
    Arg.(value & opt (some int) None
         & info [ "entry" ] ~docv:"N"
             ~doc:"With $(b,--from-log): the 0-based entry to replay (default: the \
                   newest).")
  in
  let formula_opt =
    let doc = "The formula, in the library's concrete syntax (omit with --from-log)." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FORMULA" ~doc)
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(const run $ common_opts ~default_fuel:10_000 $ stats_out $ from_log $ entry
          $ domain_arg $ relation_arg $ constant_arg $ formula_opt)

(* ------------------------------- batch ------------------------------ *)

(* Supervised parallel batch evaluation.  Each (domain, formula) job runs
   crash-isolated under the supervisor: injected or genuine engine crashes
   become structured per-job outcomes, transient faults and budget-tripped
   partial verdicts retry with exponential backoff on a fair share of the
   job's remaining fuel (carrying the resume token forward), and a
   persistently failing decision procedure trips a per-domain circuit
   breaker that sends later jobs down the degradation chain instead of
   hammering it. *)

type batch_outcome =
  | B_complete
  | B_partial
  | B_failed

type batch_result = {
  rep : Outcome.t;
  crashed : bool;
  retried : int;
  trace : string option;  (** the trace id echoed by the server (remote, traced runs) *)
}

let batch_outcome_of r =
  match r.rep.Outcome.verdict with
  | Outcome.Complete _ -> B_complete
  | Outcome.Partial _ -> B_partial
  | Outcome.Failed _ -> B_failed

let batch_line idx r =
  let suffix = if r.retried > 0 then Printf.sprintf " (retried %d)" r.retried else "" in
  let suffix =
    match r.trace with None -> suffix | Some t -> Printf.sprintf "%s [trace %s]" suffix t
  in
  match r.rep.Outcome.verdict with
  | Outcome.Complete { answer; tier } ->
    Format.asprintf "[%d] complete via %s (%d tuples): %a%s" idx tier
      (Relation.cardinal answer) Relation.pp answer suffix
  | Outcome.Partial { tuples; reason; resume } ->
    Format.asprintf "[%d] partial after %d candidates (%a), %d tuples so far%s" idx
      resume.Outcome.seen Budget.pp_failure reason (Relation.cardinal tuples) suffix
  | Outcome.Failed { reason } ->
    (* a crash's reason already reads "crashed: ...", as fq serve words it *)
    Printf.sprintf "[%d] %s%s%s" idx (if r.crashed then "" else "failed: ") reason suffix

let batch_job ~state ~stats ~cache ~breakers ~fuel ~timeout_ms ~retries ~chaos idx
    (domain_name, (domain : Domain.t), text) =
  let breaker =
    match Hashtbl.find_opt breakers domain_name with
    | Some b -> b
    | None -> assert false (* populated for every distinct domain up front *)
  in
  let guarded = Decide_cache.guarded cache ~breaker ~name:domain_name domain in
  let plan =
    (* One plan per job, seeded from the job index: the per-site hit
       numbering stays reproducible whatever --jobs is, and counters
       persist across the job's attempts so flaky faults are retryable. *)
    match chaos with
    | None -> None
    | Some (seed, permille) -> Some (Fault.chaos ~permille ~seed:(seed + (1000 * idx)) ())
  in
  let spent = ref 0 in
  let resume = ref None in
  let attempt k =
    match parse_formula text with
    | Error reason -> Outcome.failed reason
    | Ok f ->
      let fuel_k =
        Supervisor.fair_share ~total:fuel ~spent:!spent ~attempt:k ~max_attempts:retries
      in
      let budget = Budget.make ~fuel:fuel_k ?timeout_ms () in
      let work () =
        Query.eval_resilient ~budget ?resume:!resume ~stats ~domain:guarded ~state f
      in
      let rep = match plan with Some p -> Fault.with_plan p work | None -> work () in
      spent := !spent + rep.Outcome.usage.Budget.ticks;
      (match rep.Outcome.verdict with
      | Outcome.Partial { resume = r; _ } -> resume := Some r
      | _ -> ());
      rep
  in
  let policy = { Supervisor.default_policy with max_attempts = retries } in
  let run =
    Supervisor.supervise ~policy
      ~retry_value:(fun rep ->
        match rep.Outcome.verdict with
        | Outcome.Partial { reason = Budget.Fuel_exhausted | Budget.Deadline_exceeded; _ } ->
          Some "partial verdict, fuel remaining"
        | _ -> None)
      ~name:(Printf.sprintf "job%d:%s" idx domain_name)
      attempt
  in
  let retried = run.Supervisor.retried in
  match run.Supervisor.outcome with
  | Supervisor.Value rep -> { rep; crashed = false; retried; trace = None }
  | Supervisor.Crashed { reason; _ } ->
    { rep = Outcome.failed ("crashed: " ^ reason); crashed = true; retried; trace = None }

(* --connect ADDR: unix:PATH, tcp:PORT, a bare PORT, or a bare PATH *)
let addr_conv =
  let parse s =
    match Server.addr_of_string s with
    | Ok addr -> Ok addr
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, Server.pp_addr)

(* Remote batch, on the multi-endpoint pool: discover the topology
   behind ADDR (a lone fq serve answers with itself; an fq fleet with
   its live workers), spread the pipelined jobs across one connection
   per worker, and let the pool wait out admission rejects and fail
   dead-connection jobs over — resume tokens carried — so a worker
   crash mid-batch costs retries, not answers. *)
let batch_remote ~common ~addr ~trace_prefix job_list =
  let jobs =
    List.mapi
      (fun idx (name, _, text) ->
        { Client.domain = Some name;
          formula = text;
          fuel = Some common.fuel;
          timeout_ms = common.timeout_ms;
          trace = Option.map (fun p -> Printf.sprintf "%s-%d" p idx) trace_prefix })
      job_list
  in
  Result.bind (Client.run_jobs ~addr jobs) @@ fun pooled ->
  let results =
    Array.map
      (fun (r : Client.job_result) ->
        (* the reply's trace id is surfaced only when this run asked for
           tracing: untraced runs keep their exact historical output *)
        let trace =
          if trace_prefix = None then None
          else
            Option.bind r.Client.raw (fun raw ->
                Option.bind (Json.member "trace" raw) Json.to_str_opt)
        in
        let rep =
          match r.Client.reply with
          | Protocol.R_outcome rep -> rep
          | Protocol.R_malformed reason -> Outcome.failed reason
          | Protocol.R_rejected _ | Protocol.R_ok _ -> Outcome.failed "no reply"
        in
        { rep; crashed = false; retried = r.Client.rejected_retries; trace })
      pooled
  in
  (* the shared cache lives server-side; ask it for the eviction count
     (a fleet parent has no decide_cache member — evictions read 0) *)
  let evictions =
    match Client.connect ~retries:5 ~delay_ms:50 addr with
    | Error _ -> 0
    | Ok c ->
      let v =
        match Client.request c (Protocol.Metrics { id = "batch-metrics" }) with
        | Ok (_, Protocol.R_ok j) ->
          Option.value ~default:0
            (Option.bind (Json.member "decide_cache" j) (fun dc ->
                 Option.bind (Json.member "evictions" dc) Json.to_int_opt))
        | _ -> 0
      in
      Client.close c;
      v
  in
  Ok (results, 0, evictions)

let batch_cmd =
  let run common domain rels consts jobs retries chaos_seed chaos_permille file formulas
      connect trace_prefix json =
    with_common common @@ fun () ->
    report
      (Result.bind (parse_state rels consts) @@ fun state ->
       let default_name =
         let (module D : Domain.S) = domain in
         D.name
       in
       let resolve spec =
         (* a line is either "FORMULA" (the --domain default) or
            "DOMAIN<TAB>FORMULA" *)
         match String.index_opt spec '\t' with
         | None -> Ok (default_name, domain, spec)
         | Some i -> (
           let dname = String.sub spec 0 i in
           let text = String.sub spec (i + 1) (String.length spec - i - 1) in
           match List.assoc_opt dname domains with
           | Some d ->
             let (module D : Domain.S) = d in
             Ok (D.name, d, text)
           | None -> Error (Printf.sprintf "batch: unknown domain %S in %S" dname spec))
       in
       let file_lines =
         match file with
         | None -> Ok []
         | Some path -> (
           match open_in path with
           | exception Sys_error msg -> Error (Printf.sprintf "batch file: %s" msg)
           | ic ->
             let rec go acc =
               match input_line ic with
               | line ->
                 let line = String.trim line in
                 if line = "" || line.[0] = '#' then go acc else go (line :: acc)
               | exception End_of_file ->
                 close_in ic;
                 List.rev acc
             in
             Ok (go []))
       in
       Result.bind file_lines @@ fun file_lines ->
       let rec resolve_all = function
         | [] -> Ok []
         | spec :: rest ->
           Result.bind (resolve spec) (fun j ->
               Result.map (fun js -> j :: js) (resolve_all rest))
       in
       Result.bind (resolve_all (formulas @ file_lines)) @@ fun job_list ->
       if job_list = [] then Error "batch: no formulas (positional FORMULA... or --file FILE)"
       else begin
         let ran =
           match connect with
           | Some addr -> batch_remote ~common ~addr ~trace_prefix job_list
           | None ->
             (* one mutex-safe stats instance per run, shared by every
                worker domain (profile file included when --stats given) *)
             Result.bind (load_stats state common.stats_file) @@ fun stats ->
             let stats =
               match stats with Some s -> s | None -> Optimizer.Stats.of_state state
             in
             let cache = Decide_cache.create () in
             let breakers = Hashtbl.create 8 in
             List.iter
               (fun (name, _, _) ->
                 if not (Hashtbl.mem breakers name) then
                   Hashtbl.add breakers name (Supervisor.Breaker.create ()))
               job_list;
             let chaos =
               match chaos_seed with None -> None | Some s -> Some (s, chaos_permille)
             in
             let worker (idx, job) =
               batch_job ~state ~stats ~cache ~breakers ~fuel:common.fuel
                 ~timeout_ms:common.timeout_ms ~retries ~chaos idx job
             in
             let indexed = Array.of_list (List.mapi (fun i j -> (i, j)) job_list) in
             let results = Supervisor.parallel_map ~jobs worker indexed in
             let trips =
               Hashtbl.fold (fun _ b n -> n + Supervisor.Breaker.trips b) breakers 0
             in
             Ok (results, trips, (Decide_cache.stats cache).Decide_cache.evictions)
         in
         Result.bind ran @@ fun (results, trips, evictions) ->
         Array.iteri
           (fun idx r ->
             if json then print_endline (Json.to_string (Outcome.to_json r.rep))
             else Format.printf "%s@." (batch_line idx r))
           results;
         let count p = Array.fold_left (fun n r -> if p r then n + 1 else n) 0 results in
         let completed = count (fun r -> batch_outcome_of r = B_complete) in
         let partial = count (fun r -> batch_outcome_of r = B_partial) in
         let failed = count (fun r -> batch_outcome_of r = B_failed) in
         let retries_total = Array.fold_left (fun n r -> n + r.retried) 0 results in
         let summary =
           Printf.sprintf
             "batch: %d jobs, %d complete, %d partial, %d failed, %d retries, %d breaker \
              trips, %d evictions"
             (Array.length results) completed partial failed retries_total trips evictions
         in
         (* in --json mode stdout carries only outcome objects *)
         if json then Format.eprintf "%s@." summary else Format.printf "%s@." summary;
         Ok (if failed > 0 then 1 else if partial > 0 then exit_partial else 0)
       end)
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "j"; "jobs" ]
             ~doc:"Worker domains evaluating jobs in parallel (OCaml 5 domain pool).")
  in
  let retries =
    Arg.(value & opt int 3
         & info [ "retries" ]
             ~doc:"Maximum attempts per job (first try included). Transient faults and \
                   budget-tripped partial verdicts retry with exponential backoff; the \
                   resume token carries the scan position across attempts.")
  in
  let chaos_seed =
    Arg.(value & opt (some int) None
         & info [ "chaos-seed" ]
             ~doc:"Enable deterministic fault injection, seeding job $(i,i)'s schedule with \
                   SEED + 1000i. Identical runs replay identical faults regardless of \
                   $(b,--jobs).")
  in
  let chaos_permille =
    Arg.(value & opt int 20
         & info [ "chaos-permille" ] ~doc:"Per-site injection probability, in permille.")
  in
  let file =
    Arg.(value & opt (some string) None
         & info [ "f"; "file" ]
             ~doc:"Read jobs from FILE: one FORMULA per line (or DOMAIN<TAB>FORMULA); blank \
                   lines and # comments skipped.")
  in
  let formulas =
    Arg.(value & pos_all string [] & info [] ~docv:"FORMULA" ~doc:"Formulas to evaluate.")
  in
  let connect =
    Arg.(value & opt (some addr_conv) None
         & info [ "connect" ] ~docv:"ADDR"
             ~doc:"Send the jobs to a running $(b,fq serve) at ADDR (unix:PATH, tcp:PORT, \
                   or a bare PATH/PORT) over one pipelined connection instead of a local \
                   pool. Admission rejects wait out the server's retry hint and resend \
                   with the returned resume token.")
  in
  let trace_prefix =
    Arg.(value & opt (some string) None
         & info [ "trace-prefix" ] ~docv:"PREFIX"
             ~doc:"With $(b,--connect): stamp job $(i,i)'s request with the trace id \
                   PREFIX-$(i,i). The server carries it through its telemetry, sampled \
                   traces and slow-query log, and echoes it in the reply (shown per job \
                   line).")
  in
  let doc =
    "Evaluate many queries under supervision: a parallel worker pool with per-job budgets, \
     crash isolation, retry with backoff, per-domain circuit breakers, a shared decision \
     cache — and an optional deterministic chaos schedule for fault drills. With \
     $(b,--connect), the same jobs run against a live $(b,fq serve) instead."
  in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(const run $ common_opts ~default_fuel:10_000 $ domain_arg $ relation_arg
          $ constant_arg $ jobs $ retries $ chaos_seed $ chaos_permille $ file $ formulas
          $ connect $ trace_prefix $ json_arg)

(* ------------------------- serve and fleet -------------------------- *)

(* fq serve and fq fleet take one option block and build one
   Server.config from it; under a fleet it is the template each worker
   derives its own address, journal and metrics file from.  The term
   yields the common options and a builder, run inside [with_common]
   with the command name for error messages. *)
let serve_opts =
  let build common domain rels consts socket port jobs max_inflight client_share snapshot
      journal state_file trace_sample slow_ms slow_log metrics_file =
    ( common,
      fun cmd ->
        (* a profile describes one state; an epoch's stats are rebuilt from
           its own state at every reload *)
        Result.bind
          (match common.stats_file with
          | Some _ ->
            Error (cmd ^ ": --stats is not supported: each epoch's stats follow its state")
          | None -> Ok ())
        @@ fun () ->
        Result.bind
          (match state_file with
          | Some path -> Codec.load_state path
          | None -> parse_state rels consts)
        @@ fun state ->
        Result.bind
          (match (socket, port) with
          | Some path, None -> Ok (Server.Unix_path path)
          | None, Some port -> Ok (Server.Tcp port)
          | Some _, Some _ -> Error (cmd ^ ": give either --socket or --port, not both")
          | None, None ->
            Error (cmd ^ ": an address is required (--socket PATH or --port PORT)"))
        @@ fun addr ->
        let (module D : Domain.S) = domain in
        let base = Server.default_config ~state addr in
        Ok
          { base with
            Server.jobs;
            max_inflight;
            client_share;
            snapshot;
            journal;
            state_file;
            trace_sample;
            slow_ms;
            slow_log;
            metrics_file;
            default_fuel = common.fuel;
            max_fuel = max base.Server.max_fuel common.fuel;
            default_timeout_ms = common.timeout_ms;
            default_domain = D.name } )
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Listen on a Unix socket at PATH. Under $(b,fq fleet) this is the \
                   control socket and worker $(i,i) serves on PATH.$(i,i).")
  in
  let port =
    Arg.(value & opt (some int) None
         & info [ "port" ] ~docv:"PORT"
             ~doc:"Listen on TCP 127.0.0.1:PORT. Under $(b,fq fleet) this is the control \
                   socket and worker $(i,i) serves on PORT+1+$(i,i).")
  in
  let jobs =
    Arg.(value & opt int 4
         & info [ "j"; "jobs" ]
             ~doc:"Worker seats evaluating admitted requests, per server process \
                   (domains on several CPUs, threads on one).")
  in
  let max_inflight =
    Arg.(value & opt int 256
         & info [ "max-inflight" ]
             ~doc:"Server-wide cap on admitted-but-unfinished requests; requests over the \
                   cap are rejected with a resume token and a retry hint, never queued \
                   unboundedly.")
  in
  let client_share =
    Arg.(value & opt int 64
         & info [ "client-share" ]
             ~doc:"Per-connection in-flight cap: one client cannot occupy the whole \
                   admission budget.")
  in
  let snapshot =
    Arg.(value & opt (some string) None
         & info [ "snapshot" ] ~docv:"FILE"
             ~doc:"Decide-cache snapshot, in the journal's CRC-framed format: loaded \
                   at boot if FILE exists (warm start; corrupt records and a torn tail \
                   are skipped), written whole on graceful shutdown, on SIGUSR1, on a \
                   $(b,snapshot) request and at each journal compaction. Under \
                   $(b,fq fleet) the parent owns it: workers load it read-only and \
                   journal their fresh verdicts, and the parent folds the worker \
                   journals back in and republishes.")
  in
  let journal =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"Decide-cache journal: every fresh verdict is appended as a CRC-framed \
                   record the moment it lands, and recovered (torn tails truncated, \
                   corrupt records skipped) at the next boot — so a crash loses at most \
                   one record, not the warm cache. Defaults to SNAPSHOT.journal when \
                   $(b,--snapshot) is set. Under $(b,fq fleet) worker $(i,w) appends to \
                   FILE.$(i,w).")
  in
  let state_file =
    Arg.(value & opt (some string) None
         & info [ "state-file" ] ~docv:"FILE"
             ~doc:"Load the served database from FILE (one NAME/ARITY=... or NAME=VALUE \
                   spec per line) instead of $(b,-r)/$(b,-c), and re-read it on SIGHUP \
                   or a pathless $(b,fq ctl ADDR reload) — a zero-downtime state swap: \
                   in-flight requests finish on the old database, new admissions see \
                   the new one. A fleet rolls the swap one worker at a time.")
  in
  let trace_sample =
    Arg.(value & opt int 0
         & info [ "trace-sample" ] ~docv:"N"
             ~doc:"Head-based trace sampling: keep the full span tree of 1 in N completed \
                   eval requests in a bounded in-memory ring, served by $(b,fq ctl ADDR \
                   traces) and $(b,fq top). 0 (the default) disables sampling; request \
                   trace ids still propagate and echo.")
  in
  let slow_ms =
    Arg.(value & opt (some float) None
         & info [ "slow-ms" ] ~docv:"MS"
             ~doc:"Slow-query threshold: eval requests at or over MS milliseconds (and \
                   any browned-out or watchdog-cancelled request) append a JSONL record \
                   — trace, plan, estimated-vs-observed cardinalities, budget usage — \
                   to the $(b,--slow-log) file.")
  in
  let slow_log =
    Arg.(value & opt (some string) None
         & info [ "slow-log" ] ~docv:"FILE"
             ~doc:"Slow-query log path (JSONL, appended). Replay an entry offline with \
                   $(b,fq explain --from-log FILE).")
  in
  let metrics_file =
    Arg.(value & opt (some string) None
         & info [ "metrics-file" ] ~docv:"FILE"
             ~doc:"Dump the Prometheus text exposition to FILE atomically (tmp + rename) \
                   every couple of seconds and at shutdown, for file-based scrapers. \
                   Under $(b,fq fleet) worker $(i,w) writes FILE.$(i,w).")
  in
  Term.(const build $ common_opts ~default_fuel:10_000 $ domain_arg $ relation_arg
        $ constant_arg $ socket $ port $ jobs $ max_inflight $ client_share $ snapshot
        $ journal $ state_file $ trace_sample $ slow_ms $ slow_log $ metrics_file)

let serve_cmd =
  let run (common, config) =
    with_common common @@ fun () -> report (Result.bind (config "serve") Server.run)
  in
  let doc =
    "Serve queries persistently: a daemon on a Unix or TCP socket speaking \
     newline-delimited JSON (the Outcome schema of $(b,fq eval --json)), with bounded \
     admission, per-client fair share, per-domain circuit breakers, per-request budgets, \
     a shared decide cache with snapshot warm-start and crash-safe journaling, hot state \
     reload (SIGHUP / $(b,fq ctl reload)), overload shedding, and live \
     metrics/health/explain."
  in
  Cmd.v (Cmd.info "serve" ~doc) Term.(const run $ serve_opts)

let fleet_cmd =
  let run (common, config) workers =
    with_common common @@ fun () ->
    report
      (Result.bind (config "fleet") @@ fun serve ->
       Fleet.run { (Fleet.default_config serve) with Fleet.workers })
  in
  let workers =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N"
             ~doc:"Worker processes to fork and supervise (each an independent crash \
                   domain running the full $(b,fq serve) engine).")
  in
  let doc =
    "Serve queries from a supervised multi-process fleet: a parent forks N independent \
     $(b,fq serve) workers (own listener, own journal, shared read-only snapshot), \
     restarts crashed workers with exponential backoff and a flap-detection circuit \
     breaker, probes liveness over the wire, rolls state reloads one worker at a time \
     (zero downtime), and drains gracefully on SIGTERM — folding every worker's journal \
     into the shared snapshot before exit. Clients ($(b,fq batch --connect), $(b,fq \
     ctl)) discover workers via the $(b,fleet-status) op and fail over between them."
  in
  Cmd.v (Cmd.info "fleet" ~doc) Term.(const run $ serve_opts $ workers)

(* -------------------------------- ctl ------------------------------- *)

let ctl_cmd =
  let run common addr op arg =
    with_common common @@ fun () ->
    report
      (Result.bind
         (* the op table is the protocol's own; ctl only places ARG *)
         (match (op, arg) with
         | "reload", Some path -> Ok [ ("path", Json.Str path) ]
         | "explain", Some formula -> Ok [ ("formula", Json.Str formula) ]
         | "traces", Some a -> (
           match int_of_string_opt a with
           | Some n -> Ok [ ("limit", Json.Int n) ]
           | None -> Error (Printf.sprintf "ctl: traces limit must be an integer, got %S" a))
         | _ -> Ok [])
       @@ fun fields ->
       Result.bind
         (Protocol.request_of_json
            (Json.Obj (("op", Json.Str op) :: ("id", Json.Str "ctl") :: fields)))
       @@ fun req ->
       (* --timeout-ms bounds the whole interaction: the boot-retry loop
          stops at the deadline, and reads/writes against a wedged server
          time out at the OS level — exit 4, never a hang. *)
       Result.bind (Client.connect ~retries:100 ~delay_ms:50 ?timeout_ms:common.timeout_ms addr)
       @@ fun c ->
       let reply = Result.bind (Client.send c req) (fun () -> Client.recv_json c) in
       Client.close c;
       Result.map
         (fun j ->
           (* metrics prints the exposition text itself: deterministically
              sorted (families by name, samples by label), scrape-ready *)
           (match
              if op = "metrics" then Option.bind (Json.member "exposition" j) Json.to_str_opt
              else None
            with
           | Some text -> print_string text
           | None -> print_endline (Json.to_string j));
           0)
         reply)
  in
  let addr =
    Arg.(required & pos 0 (some addr_conv) None
         & info [] ~docv:"ADDR" ~doc:"Server address (unix:PATH, tcp:PORT, PATH, or PORT).")
  in
  let op =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"OP"
             ~doc:"One of ping, metrics, health, snapshot, shutdown, reload, \
                   fleet-status, traces, explain. $(b,metrics) prints the versioned \
                   Prometheus text exposition (sorted, scrape-ready); $(b,fleet-status) \
                   prints the serving topology (a lone $(b,fq serve) answers with \
                   itself, an $(b,fq fleet) with its live workers); $(b,traces) prints \
                   the sampled-trace ring as JSON.")
  in
  let arg =
    Arg.(value & pos 2 (some string) None
         & info [] ~docv:"ARG"
             ~doc:"Formula for the explain op; server-side state file for the reload op \
                   (omit to re-read the server's --state-file); newest-N limit for the \
                   traces op.")
  in
  let doc =
    "Send one control request to a running $(b,fq serve) (retrying the connection while \
     the server boots) and print its raw JSON reply. With $(b,--timeout-ms), a wedged \
     server yields exit 4 instead of a hang."
  in
  Cmd.v (Cmd.info "ctl" ~doc)
    Term.(const run $ common_opts ~default_fuel:10_000 $ addr $ op $ arg)

(* -------------------------------- top ------------------------------- *)

(* fq top: poll a running server's metrics + traces ops and render a
   live terminal summary — request rates, latency/fuel quantiles, cache
   hit rate, breaker states, and the slowest sampled requests. *)

let top_cmd =
  let sum_counter samples name =
    List.fold_left (fun a (m, _, v) -> if m = name then a +. v else a) 0. samples
  in
  let first samples name =
    List.find_map (fun (m, _, v) -> if m = name then Some v else None) samples
  in
  let labeled samples name =
    List.filter_map (fun (m, ls, v) -> if m = name then Some (ls, v) else None) samples
  in
  (* Rebuild one merged histogram from every <name>_bucket series: each
     series' cumulative counts become per-bucket increments, increments
     sum across label sets (every series shares the Aggregate ladder),
     and quantiles read off the merged (le, count) list. *)
  let hist_increments samples name =
    let bucket = name ^ "_bucket" in
    let series = Hashtbl.create 8 in
    List.iter
      (fun (m, labels, v) ->
        if m = bucket then
          match List.assoc_opt "le" labels with
          | None -> ()
          | Some le ->
            let key =
              String.concat ";"
                (List.sort compare
                   (List.filter_map
                      (fun (k, v) -> if k = "le" then None else Some (k ^ "=" ^ v))
                      labels))
            in
            let lef = if le = "+Inf" then infinity else float_of_string le in
            let prev = Option.value ~default:[] (Hashtbl.find_opt series key) in
            Hashtbl.replace series key ((lef, v) :: prev))
      samples;
    let incs = Hashtbl.create 32 in
    Hashtbl.iter
      (fun _ pts ->
        let pts = List.sort compare pts in
        let prev = ref 0. in
        List.iter
          (fun (le, cum) ->
            let d = cum -. !prev in
            prev := cum;
            if d > 0. then
              Hashtbl.replace incs le
                (d +. Option.value ~default:0. (Hashtbl.find_opt incs le)))
          pts)
      series;
    List.sort compare (Hashtbl.fold (fun le d acc -> (le, d) :: acc) incs [])
  in
  let quantile incs q =
    let total = List.fold_left (fun a (_, d) -> a +. d) 0. incs in
    if total <= 0. then None
    else
      let rank = q *. total in
      let rec go acc = function
        | [] -> None
        | (le, d) :: tl ->
          let acc = acc +. d in
          if acc >= rank then Some le else go acc tl
      in
      go 0. incs
  in
  let pq incs q =
    match quantile incs q with
    | None -> "-"
    | Some le when le = infinity -> "inf"
    | Some le -> if le >= 100. then Printf.sprintf "%.0f" le else Printf.sprintf "%.3g" le
  in
  let jq incs q =
    match quantile incs q with Some le when le < infinity -> Json.Float le | _ -> Json.Null
  in
  let scrape c =
    Result.bind (Client.request c (Protocol.Metrics { id = "top" })) @@ fun (_, r) ->
    Result.bind
      (match r with
      | Protocol.R_ok j -> (
        match Option.bind (Json.member "exposition" j) Json.to_str_opt with
        | Some text -> (
          match Aggregate.parse_exposition text with
          | samples -> Ok (j, samples)
          | exception Failure msg -> Error ("top: bad exposition: " ^ msg))
        | None -> Error "top: metrics reply carries no exposition")
      | _ -> Error "top: unexpected metrics reply")
    @@ fun (mj, samples) ->
    Result.bind (Client.request c (Protocol.Traces { id = "top"; limit = None }))
    @@ fun (_, tr) ->
    match tr with
    | Protocol.R_ok tj ->
      let traces =
        Option.value ~default:[] (Option.bind (Json.member "traces" tj) Json.to_list_opt)
      in
      let sample_every =
        Option.value ~default:0 (Option.bind (Json.member "sample_every" tj) Json.to_int_opt)
      in
      Ok (mj, samples, traces, sample_every)
    | _ -> Error "top: unexpected traces reply"
  in
  let run common addr once json interval_ms limit =
    with_common common @@ fun () ->
    report
      (Result.bind
         (Client.connect ~retries:100 ~delay_ms:50 ?timeout_ms:common.timeout_ms addr)
       @@ fun c ->
       Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
       let once = once || json in
       let rec loop prev =
         Result.bind (scrape c) @@ fun (mj, samples, traces, sample_every) ->
         let now = Unix.gettimeofday () in
         let epoch = Option.bind (Json.member "epoch" mj) Json.to_int_opt in
         let g name = match first samples name with Some v -> int_of_float v | None -> 0 in
         let requests = sum_counter samples "fq_requests_total" in
         let outcomes =
           let tally = Hashtbl.create 4 in
           List.iter
             (fun (ls, v) ->
               match List.assoc_opt "status" ls with
               | Some st ->
                 Hashtbl.replace tally st
                   (v +. Option.value ~default:0. (Hashtbl.find_opt tally st))
               | None -> ())
             (labeled samples "fq_eval_outcomes_total");
           List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally [])
         in
         let lat = hist_increments samples "fq_request_latency_ms" in
         let fuel = hist_increments samples "fq_request_fuel_ticks" in
         let lat_count = sum_counter samples "fq_request_latency_ms_count" in
         let lat_sum = sum_counter samples "fq_request_latency_ms_sum" in
         let hits = sum_counter samples "fq_decide_cache_hits_total" in
         let misses = sum_counter samples "fq_decide_cache_misses_total" in
         let evictions = sum_counter samples "fq_decide_cache_evictions_total" in
         let breakers =
           List.sort compare
             (List.filter_map
                (fun (ls, v) ->
                  Option.map (fun d -> (d, int_of_float v)) (List.assoc_opt "domain" ls))
                (labeled samples "fq_breaker_state"))
         in
         let tnum name t =
           Option.value ~default:0. (Option.bind (Json.member name t) Json.to_float_opt)
         in
         let slowest =
           let sorted =
             List.sort (fun a b -> compare (tnum "dur_ms" b) (tnum "dur_ms" a)) traces
           in
           List.filteri (fun i _ -> i < limit) sorted
         in
         if json then begin
           let hist_json incs count sum_ =
             Json.Obj
               [ ("p50", jq incs 0.5); ("p95", jq incs 0.95); ("p99", jq incs 0.99);
                 ( "mean",
                   if count > 0. then Json.Float (sum_ /. count) else Json.Null );
                 ("count", Json.Int (int_of_float count)) ]
           in
           print_endline
             (Json.to_string
                (Json.Obj
                   [ ("epoch", match epoch with Some e -> Json.Int e | None -> Json.Null);
                     ("inflight", Json.Int (g "fq_inflight"));
                     ("queue_depth", Json.Int (g "fq_queue_depth"));
                     ("requests_total", Json.Int (int_of_float requests));
                     ( "outcomes",
                       Json.Obj
                         (List.map (fun (k, v) -> (k, Json.Int (int_of_float v))) outcomes)
                     );
                     ("latency_ms", hist_json lat lat_count lat_sum);
                     ( "fuel_ticks",
                       hist_json fuel
                         (sum_counter samples "fq_request_fuel_ticks_count")
                         (sum_counter samples "fq_request_fuel_ticks_sum") );
                     ( "decide_cache",
                       Json.Obj
                         [ ("hits", Json.Int (int_of_float hits));
                           ("misses", Json.Int (int_of_float misses));
                           ( "hit_rate",
                             if hits +. misses > 0. then
                               Json.Float (hits /. (hits +. misses))
                             else Json.Null );
                           ("evictions", Json.Int (int_of_float evictions));
                           ("entries", Json.Int (g "fq_decide_cache_entries")) ] );
                     ( "breakers",
                       Json.Obj (List.map (fun (d, v) -> (d, Json.Int v)) breakers) );
                     ("sample_every", Json.Int sample_every);
                     ("traces_retained", Json.Int (g "fq_traces_retained"));
                     ("slowest", Json.List slowest) ]))
         end
         else begin
           if not once then print_string "\027[2J\027[H";
           Format.printf "fq top — %a   epoch %s   inflight %d   queue %d@." Server.pp_addr
             addr
             (match epoch with Some e -> string_of_int e | None -> "?")
             (g "fq_inflight") (g "fq_queue_depth");
           let rate =
             match prev with
             | Some (t0, r0) when now > t0 ->
               Printf.sprintf "   %.1f req/s" ((requests -. r0) /. (now -. t0))
             | _ -> ""
           in
           Format.printf "requests: %.0f total%s@." requests rate;
           if outcomes <> [] then
             Format.printf "outcomes: %s@."
               (String.concat "  "
                  (List.map (fun (k, v) -> Printf.sprintf "%s %.0f" k v) outcomes));
           if lat_count > 0. then
             Format.printf "latency ms: p50 %s  p95 %s  p99 %s  mean %.2f  (n=%.0f)@."
               (pq lat 0.5) (pq lat 0.95) (pq lat 0.99) (lat_sum /. lat_count) lat_count;
           if fuel <> [] then
             Format.printf "fuel ticks: p50 %s  p95 %s  p99 %s@." (pq fuel 0.5)
               (pq fuel 0.95) (pq fuel 0.99);
           if hits +. misses > 0. then
             Format.printf
               "decide cache: %.0f%% hit (%.0f/%.0f), %.0f evictions, %d entries@."
               (100. *. hits /. (hits +. misses))
               hits (hits +. misses) evictions (g "fq_decide_cache_entries");
           if breakers <> [] then
             Format.printf "breakers: %s@."
               (String.concat "  "
                  (List.map
                     (fun (d, v) ->
                       Printf.sprintf "%s %s" d
                         (match v with 0 -> "closed" | 1 -> "half-open" | _ -> "open"))
                     breakers));
           (match (sample_every, slowest) with
           | 0, [] -> ()
           | _, [] -> Format.printf "traces: sampling 1-in-%d, none completed yet@." sample_every
           | _, slowest ->
             Format.printf "slowest sampled requests (1-in-%d):@." sample_every;
             List.iter
               (fun t ->
                 let ts name =
                   Option.value ~default:"?"
                     (Option.bind (Json.member name t) Json.to_str_opt)
                 in
                 Format.printf "  %-16s %-10s %-8s %-12s %8.2f ms %8.0f ticks@."
                   (ts "trace") (ts "domain") (ts "status") (ts "tier") (tnum "dur_ms" t)
                   (tnum "ticks" t))
               slowest)
         end;
         if once then Ok 0
         else begin
           Unix.sleepf (float_of_int (max 100 interval_ms) /. 1000.);
           loop (Some (now, requests))
         end
       in
       loop None)
  in
  let addr =
    Arg.(required & pos 0 (some addr_conv) None
         & info [] ~docv:"ADDR" ~doc:"Server address (unix:PATH, tcp:PORT, PATH, or PORT).")
  in
  let once =
    Arg.(value & flag
         & info [ "once" ] ~doc:"Print one sample and exit instead of refreshing.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Print the sample as one JSON object (implies $(b,--once)).")
  in
  let interval_ms =
    Arg.(value & opt int 2000
         & info [ "interval-ms" ] ~docv:"MS" ~doc:"Refresh interval (live mode).")
  in
  let limit =
    Arg.(value & opt int 5
         & info [ "limit" ] ~docv:"N" ~doc:"Slowest sampled requests shown.")
  in
  let doc =
    "Watch a running $(b,fq serve): poll its $(b,metrics) and $(b,traces) ops and render \
     request rates, eval outcomes, latency and fuel quantiles (from the always-on \
     log-bucketed histograms), decide-cache hit rate, breaker states, and the slowest \
     sampled requests. $(b,--once)/$(b,--json) take a single sample for scripts."
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(const run $ common_opts ~default_fuel:10_000 $ addr $ once $ json $ interval_ms
          $ limit)

(* ------------------------------- main ------------------------------ *)

let () =
  let doc = "finite queries of the relational calculus — Stolboushkin & Taitslin, reproduced" in
  let info = Cmd.info "fq" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ decide_cmd; safety_cmd; relsafe_cmd; eval_cmd; explain_cmd; report_cmd;
            batch_cmd; serve_cmd; fleet_cmd; ctl_cmd; top_cmd; tm_cmd; diag_cmd;
            halting_cmd ]))
