(* fq serve: wire-protocol codecs, Outcome JSON stability, the
   snapshot warm-start property, journal durability (torn-tail/corrupt
   recovery, fault-armed appends), and an in-process end-to-end run of
   the daemon (boot, round-trip, deterministic reject, hot reload,
   overload shedding, watchdog recycle, graceful shutdown). *)

module Json = Fq_core.Json
module Budget = Fq_core.Budget
module Formula = Fq_logic.Formula
module Term = Fq_logic.Term
module Relation = Fq_db.Relation
module State = Fq_db.State
module Schema = Fq_db.Schema
module Value = Fq_db.Value
module Outcome = Fq_eval.Outcome
module Decide_cache = Fq_domain.Decide_cache
module Protocol = Fq_server.Protocol
module Server = Fq_server.Server
module Client = Fq_server.Client
module Journal = Fq_domain.Journal
module Fault = Fq_core.Fault

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

let presburger : Fq_domain.Domain.t = (module Fq_domain.Presburger)

(* ------------------------- JSON roundtrips ------------------------- *)

let json_samples =
  [ {|null|}; {|true|}; {|[1,-2,0]|}; {|"a\"b\\c\nd"|};
    {|{"k":[{"x":1.5},"s"],"m":{}}|}; {|123456789012345678901234567890|} ]

let test_json_roundtrip () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Error e -> Alcotest.failf "parse %s: %s" s e
      | Ok j ->
        let s' = Json.to_string j in
        (match Json.parse s' with
        | Error e -> Alcotest.failf "reparse %s: %s" s' e
        | Ok j' ->
          Alcotest.(check string) ("roundtrip " ^ s) s' (Json.to_string j')))
    json_samples

(* ---------------------- Outcome JSON stability --------------------- *)

let usage = { Budget.ticks = 42; elapsed_ms = 1.5 }

let rel rows = Relation.make ~arity:2 (List.map (List.map Value.str) rows)

let sample_outcomes =
  [ ( "complete", 0,
      { Outcome.verdict = Complete { answer = rel [ [ "a"; "b" ] ]; tier = "ranf-algebra" };
        usage;
        attempts = [ ("ranf-algebra", "not safe-range") ] } );
    ( "partial", 3,
      { Outcome.verdict =
          Partial
            { tuples = rel [ [ "a"; "b" ]; [ "c"; "d" ] ];
              reason = Budget.Fuel_exhausted;
              resume = { seen = 17; found = rel [ [ "a"; "b" ] ] } };
        usage;
        attempts = [] } );
    ( "unsupported", 4,
      { Outcome.verdict = Failed { reason = Budget.error_string (Budget.Unsupported "qe over words") };
        usage;
        attempts = [] } );
    ( "error", 1,
      { Outcome.verdict = Failed { reason = "parse error: unexpected token" };
        usage;
        attempts = [] } ) ]

let test_outcome_roundtrip () =
  List.iter
    (fun (status, code, o) ->
      Alcotest.(check string) "status" status (Outcome.status o);
      Alcotest.(check int) "exit code" code (Outcome.exit_code o);
      let j = Outcome.to_json o in
      match Outcome.of_json j with
      | Error e -> Alcotest.failf "of_json (%s): %s" status e
      | Ok o' ->
        Alcotest.(check string)
          ("json roundtrip " ^ status)
          (Json.to_string j)
          (Json.to_string (Outcome.to_json o'));
        (match Json.parse (Json.to_string j) with
        | Error e -> Alcotest.failf "reparse (%s): %s" status e
        | Ok j' ->
          Alcotest.(check string)
            ("print/parse " ^ status)
            (Json.to_string j) (Json.to_string j')))
    sample_outcomes

(* ----------------------- Protocol roundtrips ----------------------- *)

let sample_requests =
  [ Protocol.Eval
      { id = "q1"; domain = Some "presburger"; formula = "exists y. E(x,y)";
        fuel = Some 500; timeout_ms = Some 100;
        resume = Some { seen = 3; found = rel [ [ "a"; "b" ] ] };
        trace = Some "t-q1" };
    Protocol.Eval
      { id = "q2"; domain = None; formula = "S(x)"; fuel = None;
        timeout_ms = None; resume = None; trace = None };
    Protocol.Explain { id = "e"; domain = None; formula = "S(x)"; trace = None };
    Protocol.Traces { id = "t"; limit = Some 3 };
    Protocol.Metrics { id = "m" };
    Protocol.Ping { id = "p" };
    Protocol.Snapshot { id = "s" };
    Protocol.Reload { id = "r"; path = Some "/var/db/state.db" };
    Protocol.Reload { id = "r2"; path = None };
    Protocol.Health { id = "h" };
    Protocol.Shutdown { id = "x" } ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      let line = Json.to_string (Protocol.request_to_json req) in
      match Protocol.parse_request line with
      | Error e -> Alcotest.failf "parse_request %s: %s" line e
      | Ok req' ->
        Alcotest.(check string)
          ("request roundtrip " ^ Protocol.request_id req)
          line
          (Json.to_string (Protocol.request_to_json req')))
    sample_requests

let test_reply_classify () =
  let out = List.assoc "partial" (List.map (fun (s, _, o) -> (s, o)) sample_outcomes) in
  (match Protocol.classify_reply (Protocol.outcome_response ~id:"a" out) with
  | Ok ("a", Protocol.R_outcome o) ->
    Alcotest.(check string) "outcome status" "partial" (Outcome.status o)
  | Ok _ -> Alcotest.fail "expected R_outcome"
  | Error e -> Alcotest.fail e);
  (match
     Protocol.classify_reply
       (Protocol.reject_response ~id:"b" ~reason:"server saturated" ~retry_after_ms:25
          ~resume:{ seen = 0; found = Relation.empty ~arity:1 })
   with
  | Ok ("b", Protocol.R_rejected { retry_after_ms = 25; resume = Some r; _ }) ->
    Alcotest.(check int) "fresh resume" 0 r.Outcome.seen
  | Ok _ -> Alcotest.fail "expected R_rejected"
  | Error e -> Alcotest.fail e);
  (match Protocol.classify_reply (Protocol.malformed_response ~id:"c" "bad json") with
  | Ok ("c", Protocol.R_malformed _) -> ()
  | Ok _ -> Alcotest.fail "expected R_malformed"
  | Error e -> Alcotest.fail e);
  match Protocol.classify_reply (Protocol.ok_response ~id:"d" [ ("pong", Json.Bool true) ]) with
  | Ok ("d", Protocol.R_ok _) -> ()
  | Ok _ -> Alcotest.fail "expected R_ok"
  | Error e -> Alcotest.fail e

(* ------------------------- control table ---------------------------
   An exception while answering a line becomes that line's malformed
   reply, and the reader goes on to the next line: a serve connection
   thread or the fleet parent's loop must not die with the client
   waiting. *)

let test_answer_survives_exception () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close a; Unix.close b) @@ fun () ->
  let counted = ref [] and replies = ref [] in
  let ctl =
    { Server.health = (fun () -> []);
      metrics = (fun () -> failwith "metrics exploded");
      traces = (fun _ -> []);
      topology = (fun () -> (false, []));
      reload = (fun _ -> Error "unused");
      save = (fun () -> Error "unused");
      shutdown = ignore;
      evaluate = (fun _ -> None);
      count = (fun op -> counted := op :: !counted) }
  in
  let r = Server.reader ~max_bytes:4096 a in
  let answer req =
    let line = Json.to_string (Protocol.request_to_json req) ^ "\n" in
    ignore (Unix.write_substring b line 0 (String.length line));
    replies := [];
    let status = Server.answer ctl r ~refills:1 ~send:(fun j -> replies := j :: !replies) in
    Alcotest.(check bool) "line answered" true (status = `Answered);
    match !replies with
    | [ reply ] -> Protocol.classify_reply reply
    | rs -> Alcotest.failf "expected one reply, got %d" (List.length rs)
  in
  (match answer (Protocol.Metrics { id = "m1" }) with
  | Ok ("m1", Protocol.R_malformed reason) ->
    Alcotest.(check bool) "names the exception" true (contains reason "metrics exploded")
  | Ok _ -> Alcotest.fail "expected a malformed reply carrying the request id"
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "counted malformed" true (List.mem "malformed" !counted);
  match answer (Protocol.Ping { id = "p" }) with
  | Ok ("p", Protocol.R_ok _) -> ()
  | Ok _ -> Alcotest.fail "expected the next line answered"
  | Error e -> Alcotest.fail e

(* ------------------ snapshot warm-start property -------------------
   save -> load -> decide agrees with the cold cache, and the warm
   cache never re-runs the decision procedure (its decide is poisoned). *)

let gen_sentence : Formula.t QCheck.Gen.t =
  let open QCheck.Gen in
  let var = oneofl [ "x"; "y" ] in
  let term =
    oneof
      [ map (fun v -> Term.Var v) var;
        map (fun n -> Term.Const (string_of_int n)) (int_bound 4);
        map2
          (fun v n -> Term.App ("+", [ Term.Var v; Term.Const (string_of_int n) ]))
          var (int_bound 3) ]
  in
  let atom =
    oneof
      [ map2 (fun t u -> Formula.Atom ("<", [ t; u ])) term term;
        map2 (fun t u -> Formula.Eq (t, u)) term term;
        map2
          (fun d t -> Formula.Atom ("dvd", [ Term.Const (string_of_int (d + 1)); t ]))
          (int_bound 3) term ]
  in
  let qf =
    fix
      (fun self n ->
        if n <= 0 then atom
        else
          oneof
            [ atom;
              map (fun f -> Formula.Not f) (self (n - 1));
              map2 (fun f g -> Formula.And (f, g)) (self (n / 2)) (self (n / 2));
              map2 (fun f g -> Formula.Or (f, g)) (self (n / 2)) (self (n / 2)) ])
      4
  in
  map (fun f -> Formula.Exists ("x", Formula.Forall ("y", f))) qf

let poisoned =
  Fq_domain.Domain.with_decide presburger (fun f ->
      Error ("poisoned: warm cache missed " ^ Formula.to_string f))

let snapshot_path = Filename.temp_file "fq_snapshot_prop" ".fq"

let pp_verdict = function
  | Ok b -> string_of_bool b
  | Error e -> "error: " ^ e

let prop_snapshot_agrees =
  QCheck.Test.make ~name:"snapshot save/load/decide agrees with cold cache" ~count:200
    (QCheck.make ~print:Formula.to_string gen_sentence)
    (fun f ->
      let cold = Decide_cache.create () in
      let cold_verdict = Decide_cache.decide cold presburger f in
      (match Decide_cache.save cold snapshot_path with
      | Ok n when n >= 1 -> ()
      | Ok n -> QCheck.Test.fail_reportf "snapshot wrote %d entries" n
      | Error e -> QCheck.Test.fail_reportf "save: %s" e);
      let warm = Decide_cache.create () in
      (match Decide_cache.load warm snapshot_path with
      | Ok { Journal.applied; _ } when applied >= 1 -> ()
      | Ok { Journal.applied; _ } -> QCheck.Test.fail_reportf "snapshot read %d entries" applied
      | Error e -> QCheck.Test.fail_reportf "load: %s" e);
      let warm_verdict = Decide_cache.decide warm poisoned f in
      if warm_verdict <> cold_verdict then
        QCheck.Test.fail_reportf "cold %s <> warm %s" (pp_verdict cold_verdict)
          (pp_verdict warm_verdict);
      true)

(* ----------------------- journal durability ------------------------ *)

let journal_header = "fq-decide-journal 1\n"

let fresh_journal () =
  let p = Filename.temp_file "fq_journal" ".j" in
  Sys.remove p;
  p

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let append_all path payloads =
  match Journal.open_append path with
  | Error e -> Alcotest.failf "open_append: %s" e
  | Ok j ->
    List.iter
      (fun p ->
        match Journal.append j p with
        | Ok () -> ()
        | Error e -> Alcotest.failf "append %S: %s" p e)
      payloads;
    Journal.close j

let recover_all path =
  let acc = ref [] in
  match Journal.recover path ~f:(fun p -> acc := p :: !acc) with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok r -> (r, List.rev !acc)

let test_journal_crc () =
  (* the published IEEE CRC-32 check value *)
  Alcotest.(check int32) "check value" 0xcbf43926l (Journal.crc32 "123456789");
  Alcotest.(check int32) "empty string" 0l (Journal.crc32 "")

let test_journal_roundtrip () =
  let p = fresh_journal () in
  let payloads = [ "ok\ttrue\tA"; "err\tboom\tB"; "ok\tfalse\tC" ] in
  append_all p payloads;
  let r, got = recover_all p in
  Alcotest.(check (list string)) "payloads in order" payloads got;
  Alcotest.(check int) "applied" 3 r.Journal.applied;
  Alcotest.(check int) "skipped" 0 r.Journal.skipped;
  Alcotest.(check int) "torn bytes" 0 r.Journal.truncated_bytes;
  (* reopening appends after the existing records, not over them *)
  append_all p [ "ok\ttrue\tD" ];
  let _, got = recover_all p in
  Alcotest.(check (list string)) "extended" (payloads @ [ "ok\ttrue\tD" ]) got;
  Sys.remove p

let test_journal_torn_tail () =
  let p = fresh_journal () in
  append_all p [ "one"; "two" ];
  let intact = read_file p in
  write_file p (intact ^ "deadbeef\tthree (torn, no newli");
  let r, got = recover_all p in
  Alcotest.(check (list string)) "prefix survives" [ "one"; "two" ] got;
  Alcotest.(check bool) "tail cut" true (r.Journal.truncated_bytes > 0);
  Alcotest.(check string) "file physically truncated" intact (read_file p);
  (* recovery is idempotent: a second pass finds a clean file *)
  let r2, got2 = recover_all p in
  Alcotest.(check (list string)) "second pass" [ "one"; "two" ] got2;
  Alcotest.(check int) "nothing left to cut" 0 r2.Journal.truncated_bytes;
  Sys.remove p

let test_journal_corrupt_record () =
  let p = fresh_journal () in
  append_all p [ "one"; "two"; "three" ];
  let s = read_file p in
  (* flip one payload byte of the middle record: its CRC fails, and the
     records before AND after it survive *)
  let needle = "\ttwo\n" in
  let rec find i = if String.sub s i (String.length needle) = needle then i else find (i + 1) in
  let idx = find 0 in
  let b = Bytes.of_string s in
  Bytes.set b (idx + 1) 'T';
  write_file p (Bytes.to_string b);
  let r, got = recover_all p in
  Alcotest.(check (list string)) "corrupt record skipped" [ "one"; "three" ] got;
  Alcotest.(check int) "skipped" 1 r.Journal.skipped;
  Sys.remove p

let test_journal_reset () =
  let p = fresh_journal () in
  (match Journal.open_append p with
  | Error e -> Alcotest.failf "open_append: %s" e
  | Ok j ->
    List.iter
      (fun x ->
        match Journal.append j x with
        | Ok () -> ()
        | Error e -> Alcotest.failf "append: %s" e)
      [ "one"; "two" ];
    (match Journal.reset j ~since:(Journal.mark j) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "reset: %s" e);
    (match Journal.append j "three" with
    | Ok () -> ()
    | Error e -> Alcotest.failf "append after reset: %s" e);
    Journal.close j);
  let r, got = recover_all p in
  Alcotest.(check (list string)) "only post-reset records" [ "three" ] got;
  Alcotest.(check int) "applied" 1 r.Journal.applied;
  Sys.remove p

let test_journal_reset_since () =
  let p = fresh_journal () in
  let append j x =
    match Journal.append j x with Ok () -> () | Error e -> Alcotest.failf "append: %s" e
  in
  let reset ~since j =
    match Journal.reset j ~since with Ok () -> () | Error e -> Alcotest.failf "reset: %s" e
  in
  (match Journal.open_append p with
  | Error e -> Alcotest.failf "open_append: %s" e
  | Ok j ->
    append j "one";
    let m = Journal.mark j in
    append j "two";
    reset ~since:m j;
    Alcotest.(check (list string)) "records after the mark" [ "two" ] (snd (recover_all p));
    (* a mark from before another reset no longer names a record start *)
    append j "three";
    reset ~since:m j;
    Alcotest.(check (list string)) "stale mark keeps every record" [ "two"; "three" ]
      (snd (recover_all p));
    Journal.close j);
  Sys.remove p

let test_journal_not_a_journal () =
  let p = fresh_journal () in
  write_file p "definitely not a journal\n";
  (match Journal.recover p ~f:ignore with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a wrong header must not recover");
  Sys.remove p;
  (* a missing file recovers to zero records, silently *)
  match Journal.recover p ~f:(fun _ -> Alcotest.fail "no records expected") with
  | Ok { Journal.applied = 0; skipped = 0; truncated_bytes = 0 } -> ()
  | Ok _ -> Alcotest.fail "a missing file must recover empty"
  | Error e -> Alcotest.failf "missing file: %s" e

(* Surgical fault-site drill: a faulted append loses exactly that record;
   a faulted rotate leaves the pre-compaction journal intact. *)
let test_journal_fault_containment () =
  let p = fresh_journal () in
  let plan =
    Fault.plan ~seed:7
      ~rules:
        [ Fault.At { site = "journal.append"; hits = [ 2 ]; action = Crash "disk full" };
          Fault.At { site = "journal.rotate"; hits = [ 1 ]; action = Crash "torn rename" } ]
      ()
  in
  Fault.with_plan plan (fun () ->
      match Journal.open_append p with
      | Error e -> Alcotest.failf "open_append: %s" e
      | Ok j ->
        (match Journal.append j "one" with
        | Ok () -> ()
        | Error e -> Alcotest.failf "append one: %s" e);
        (match Journal.append j "two" with
        | Error _ -> () (* the injected short write: record lost, file intact *)
        | Ok () -> Alcotest.fail "hit 2 must fault");
        (match Journal.append j "three" with
        | Ok () -> ()
        | Error e -> Alcotest.failf "append three: %s" e);
        (match Journal.reset j ~since:(Journal.mark j) with
        | Error _ -> () (* the injected torn rename: the old journal survives *)
        | Ok () -> Alcotest.fail "rotate hit 1 must fault");
        (match Journal.append j "four" with
        | Ok () -> ()
        | Error e -> Alcotest.failf "append four: %s" e);
        Journal.close j);
  Alcotest.(check int) "both faults fired" 2 (Fault.injection_count plan);
  let r, got = recover_all p in
  Alcotest.(check (list string))
    "faulted appends leave a valid prefix"
    [ "one"; "three"; "four" ] got;
  Alcotest.(check int) "no corrupt records" 0 r.Journal.skipped;
  Alcotest.(check int) "no torn tail" 0 r.Journal.truncated_bytes;
  Sys.remove p

(* The recovery property, on a snapshot itself: save a cold cache,
   mangle the file (truncate at a random byte, or flip a random byte),
   and loading it must (a) for truncation, restore exactly the longest
   valid record prefix, and (b) never restore an entry whose verdict
   disagrees with a cold decide of its key. *)
let prop_journal_recovery =
  QCheck.Test.make ~name:"journal recovery agrees with cold decide" ~count:120
    (QCheck.make
       ~print:(fun (fs, (mode, (a, b))) ->
         Printf.sprintf "mode=%d a=%d b=%d [%s]" mode a b
           (String.concat "; " (List.map Formula.to_string fs)))
       QCheck.Gen.(
         pair
           (list_size (int_range 1 6) gen_sentence)
           (pair (int_bound 2) (pair (int_bound 9999) (int_bound 254)))))
    (fun (fs, (mode, (a, b))) ->
      let cold = Decide_cache.create () in
      List.iter (fun f -> ignore (Decide_cache.decide cold presburger f)) fs;
      let snap = fresh_journal () in
      (match Decide_cache.save cold snap with
      | Ok _ -> ()
      | Error e -> QCheck.Test.fail_reportf "save: %s" e);
      let _, lines = recover_all snap in
      if lines = [] then QCheck.Test.fail_report "cold cache produced no entries";
      let content = read_file snap in
      let hlen = String.length journal_header in
      let body_len = String.length content - hlen in
      (* end offset of each record: 8 hex CRC + tab + payload + newline *)
      let bounds =
        List.rev
          (snd
             (List.fold_left
                (fun (off, acc) l ->
                  let off = off + 8 + 1 + String.length l + 1 in
                  (off, off :: acc))
                (hlen, []) lines))
      in
      let expected_exact =
        match mode with
        | 0 -> Some lines
        | 1 ->
          let cut = hlen + (a mod (body_len + 1)) in
          Unix.truncate snap cut;
          Some
            (List.combine lines bounds
            |> List.filter (fun (_, e) -> e <= cut)
            |> List.map fst)
        | _ ->
          let pos = hlen + (a mod body_len) in
          let bytes = Bytes.of_string content in
          let old = Char.code (Bytes.get bytes pos) in
          Bytes.set bytes pos (Char.chr (if old = b then (b + 1) land 0xff else b));
          write_file snap (Bytes.to_string bytes);
          None
      in
      let warm = Decide_cache.create () in
      let r =
        match Decide_cache.load warm snap with
        | Ok r -> r
        | Error e -> QCheck.Test.fail_reportf "load: %s" e
      in
      (* what was restored, in recency order: the warm cache's own save *)
      (match Decide_cache.save warm snap with
      | Ok _ -> ()
      | Error e -> QCheck.Test.fail_reportf "resave: %s" e);
      let _, got = recover_all snap in
      Sys.remove snap;
      (match expected_exact with
      | Some exp ->
        if got <> exp then
          QCheck.Test.fail_reportf
            "longest valid prefix: expected %d records, restored %d"
            (List.length exp) (List.length got)
      | None ->
        (* one flipped byte can cost at most two records (a merged or
           split neighbour pair); everything else must survive *)
        let m = List.length lines in
        if List.length got < m - 2 then
          QCheck.Test.fail_reportf "one corrupt byte lost %d of %d records"
            (m - List.length got) m;
        if r.Journal.applied + r.Journal.skipped + (if r.Journal.truncated_bytes > 0 then 1 else 0) < m - 1
        then QCheck.Test.fail_report "records unaccounted for");
      (* no restored entry may disagree with a cold decide of its key *)
      let check_cache = Decide_cache.create () in
      List.iter
        (fun p ->
          match Decide_cache.entry_of_line p with
          | Error e -> QCheck.Test.fail_reportf "restored a malformed entry %S: %s" p e
          | Ok (key, value) ->
            let fresh = Decide_cache.decide check_cache presburger key in
            if fresh <> value then
              QCheck.Test.fail_reportf "entry %S disagrees with cold decide: %s vs %s" p
                (pp_verdict value) (pp_verdict fresh))
        got;
      true)

(* Chaos containment on the file-I/O sites: under a randomly-armed plan,
   the journal must recover exactly the acked appends — a faulted append
   or rotate never leaves a torn or corrupt record behind. *)
let prop_journal_chaos =
  QCheck.Test.make ~name:"armed journal faults never corrupt the valid prefix"
    ~count:80
    (QCheck.make
       ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
       QCheck.Gen.(pair (int_range 1 24) (int_bound 99999)))
    (fun (n, seed) ->
      let jpath = fresh_journal () in
      let plan =
        Fault.chaos
          ~sites:[ "journal.append"; "journal.rotate" ]
          ~permille:350
          ~actions:[ Fault.Crash "injected: disk" ]
          ~seed ()
      in
      let expected = ref [] in
      Fault.with_plan plan (fun () ->
          match Journal.open_append jpath with
          | Error e -> QCheck.Test.fail_reportf "open_append: %s" e
          | Ok j ->
            for i = 1 to n do
              (if i = (n / 2) + 1 then
                 match Journal.reset j ~since:(Journal.mark j) with
                 | Ok () -> expected := [] (* compaction emptied the file *)
                 | Error _ -> () (* torn rename: old records still stand *));
              let p = Printf.sprintf "record\t%d" i in
              match Journal.append j p with
              | Ok () -> expected := p :: !expected
              | Error _ -> () (* acked nothing, so recovery owes nothing *)
            done;
            Journal.close j);
      let acc = ref [] in
      (match Journal.recover jpath ~f:(fun p -> acc := p :: !acc) with
      | Error e -> QCheck.Test.fail_reportf "recover: %s" e
      | Ok r ->
        if r.Journal.skipped <> 0 || r.Journal.truncated_bytes <> 0 then
          QCheck.Test.fail_reportf "faults corrupted the file: %d skipped, %d torn"
            r.Journal.skipped r.Journal.truncated_bytes);
      let got = List.rev !acc in
      Sys.remove jpath;
      if got <> List.rev !expected then
        QCheck.Test.fail_reportf
          "recovered %d records, expected exactly the %d acked appends"
          (List.length got) (List.length !expected);
      true)

(* ------------------------ end-to-end daemon ------------------------ *)

let schema = Schema.make [ ("E", 2); ("S", 1) ]

let served_state =
  State.make ~schema
    [ ( "E",
        Relation.make ~arity:2
          [ [ Value.str "1"; Value.str "2" ]; [ Value.str "2"; Value.str "3" ] ] );
      ("S", Relation.make ~arity:1 [ [ Value.str "1" ] ]) ]

let fresh_addr =
  let n = ref 0 in
  fun () ->
    incr n;
    Server.Unix_path
      (Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "fq_test_%d_%d.sock" (Unix.getpid ()) !n))

let with_server cfg k =
  let result = ref (Error "server never returned") in
  let th = Thread.create (fun () -> result := Server.run cfg) () in
  let c =
    match Client.connect ~retries:200 ~delay_ms:25 cfg.Server.addr with
    | Ok c -> c
    | Error e -> Alcotest.failf "connect: %s" e
  in
  Fun.protect
    ~finally:(fun () ->
      (match Client.request c (Protocol.Shutdown { id = "bye" }) with
      | Ok (_, Protocol.R_ok _) -> ()
      | Ok _ -> Alcotest.fail "shutdown: expected ok ack"
      | Error e -> Alcotest.failf "shutdown: %s" e);
      Client.close c;
      Thread.join th;
      match !result with
      | Ok 0 -> ()
      | Ok n -> Alcotest.failf "server exited %d" n
      | Error e -> Alcotest.failf "server: %s" e)
    (fun () -> k c)

let base_config addr =
  { (Server.default_config ~state:served_state addr) with
    jobs = 2;
    log = ignore }

let test_serve_roundtrip () =
  with_server (base_config (fresh_addr ())) @@ fun c ->
  (match Client.request c (Protocol.Ping { id = "p" }) with
  | Ok ("p", Protocol.R_ok _) -> ()
  | Ok _ -> Alcotest.fail "ping: expected ok"
  | Error e -> Alcotest.failf "ping: %s" e);
  (match
     Client.request c
       (Protocol.Eval
          { id = "q"; domain = None; formula = "exists y. E(x,y)"; fuel = None;
            timeout_ms = None; resume = None; trace = None })
   with
  | Ok ("q", Protocol.R_outcome { verdict = Complete { answer; tier }; _ }) ->
    Alcotest.(check string) "tier" "ranf-algebra" tier;
    Alcotest.(check int) "answer size" 2 (Relation.cardinal answer)
  | Ok ("q", Protocol.R_outcome o) ->
    Alcotest.failf "eval: expected complete, got %s" (Outcome.status o)
  | Ok _ -> Alcotest.fail "eval: expected outcome"
  | Error e -> Alcotest.failf "eval: %s" e);
  (match
     Client.request c
       (Protocol.Eval
          { id = "bad"; domain = None; formula = "exists y. E(x,"; fuel = None;
            timeout_ms = None; resume = None; trace = None })
   with
  | Ok ("bad", Protocol.R_outcome o) ->
    Alcotest.(check string) "parse failure is a structured error" "error"
      (Outcome.status o)
  | Ok _ -> Alcotest.fail "bad eval: expected outcome"
  | Error e -> Alcotest.failf "bad eval: %s" e);
  (* seats are domains exactly when the process may use several CPUs *)
  (match Client.request c (Protocol.Health { id = "h" }) with
  | Ok ("h", Protocol.R_ok j) ->
    Alcotest.(check (option int)) "worker_domains"
      (Some (if Domain.recommended_domain_count () > 1 then 2 else 0))
      (Option.bind (Json.member "worker_domains" j) Json.to_int_opt)
  | Ok _ -> Alcotest.fail "health: expected ok"
  | Error e -> Alcotest.failf "health: %s" e);
  match Client.request c (Protocol.Metrics { id = "m" }) with
  | Ok ("m", Protocol.R_ok j) -> (
    match Option.bind (Json.member "exposition" j) Json.to_str_opt with
    | Some text ->
      let samples = Fq_core.Aggregate.parse_exposition text in
      let sample name labels =
        List.find_map
          (fun (m, l, v) -> if m = name && l = labels then Some v else None)
          samples
      in
      (match sample "fq_engine_events_total" [ ("name", "serve.requests") ] with
      | Some n when n >= 2. -> ()
      | Some n -> Alcotest.failf "metrics: serve.requests = %g" n
      | None -> Alcotest.fail "metrics: no serve.requests sample in the exposition");
      (match sample "fq_request_stage_ms_count" [ ("stage", "queue") ] with
      | Some n when n >= 2. -> ()
      | Some n -> Alcotest.failf "metrics: %g queue-stage observations" n
      | None -> Alcotest.fail "metrics: no fq_request_stage_ms{stage=\"queue\"} family")
    | None -> Alcotest.fail "metrics: no exposition")
  | Ok _ -> Alcotest.fail "metrics: expected ok payload"
  | Error e -> Alcotest.failf "metrics: %s" e

let test_serve_reject () =
  (* client_share = 0: every eval is over the per-connection fair share,
     so admission control must answer with a structured reject carrying
     resume evidence — never queue it. *)
  with_server { (base_config (fresh_addr ())) with client_share = 0 } @@ fun c ->
  match
    Client.request c
      (Protocol.Eval
         { id = "q"; domain = None; formula = "exists y. E(x,y)"; fuel = None;
           timeout_ms = None; resume = None; trace = None })
  with
  | Ok ("q", Protocol.R_rejected { retry_after_ms; resume = Some r; _ }) ->
    Alcotest.(check bool) "retry hint" true (retry_after_ms > 0);
    Alcotest.(check int) "zero-progress resume" 0 r.Outcome.seen;
    Alcotest.(check int) "resume arity matches free vars" 1
      (Relation.arity r.Outcome.found)
  | Ok ("q", Protocol.R_rejected { resume = None; _ }) ->
    Alcotest.fail "reject lost the resume token"
  | Ok _ -> Alcotest.fail "expected a structured reject"
  | Error e -> Alcotest.failf "reject: %s" e

let test_serve_snapshot_warm () =
  let snap = Filename.temp_file "fq_serve_snap" ".fq" in
  Sys.remove snap;
  let addr = fresh_addr () in
  let cfg = { (base_config addr) with snapshot = Some snap } in
  with_server cfg (fun c ->
      match
        Client.request c
          (Protocol.Eval
             { id = "q"; domain = Some "presburger";
               formula = "forall x. exists y. x < y"; fuel = None;
               timeout_ms = None; resume = None; trace = None })
      with
      | Ok ("q", Protocol.R_outcome { verdict = Complete _; _ }) -> ()
      | Ok _ -> Alcotest.fail "warmup eval failed"
      | Error e -> Alcotest.failf "warmup eval: %s" e);
  (* graceful shutdown wrote the snapshot; a second boot loads it *)
  Alcotest.(check bool) "snapshot written on shutdown" true (Sys.file_exists snap);
  with_server cfg (fun c ->
      match Client.request c (Protocol.Snapshot { id = "s" }) with
      | Ok ("s", Protocol.R_ok j) ->
        (match Option.bind (Json.member "entries" j) Json.to_int_opt with
        | Some n when n >= 1 -> ()
        | _ -> Alcotest.fail "snapshot ack lacks an entry count")
      | Ok _ -> Alcotest.fail "snapshot: expected ok ack"
      | Error e -> Alcotest.failf "snapshot: %s" e);
  Sys.remove snap

let eval_req ?domain ?timeout_ms id formula =
  Protocol.Eval { id; domain; formula; fuel = None; timeout_ms; resume = None; trace = None }

(* A snapshot is a compacted journal, so it recovers like one: a record
   that fails its CRC and a torn tail cost only themselves, and the
   server boots warm with every surviving verdict. *)
let test_serve_damaged_snapshot () =
  let sentences =
    [ "forall x. exists y. x < y"; "forall x. 0 < x + 1"; "exists x. forall y. y < x" ]
  in
  let cold = Decide_cache.create () in
  List.iter
    (fun s -> ignore (Decide_cache.decide cold presburger (Fq_logic.Parser.formula_exn s)))
    sentences;
  let snap = fresh_journal () in
  (match Decide_cache.save cold snap with
  | Ok 3 -> ()
  | Ok n -> Alcotest.failf "saved %d entries" n
  | Error e -> Alcotest.failf "save: %s" e);
  (* records are least recently used first, so line 2 holds the second
     sentence: flip the first byte of its payload, then tear the tail *)
  let damaged =
    List.mapi
      (fun i line -> if i = 2 then String.mapi (fun j c -> if j = 9 then 'x' else c) line else line)
      (String.split_on_char '\n' (read_file snap))
  in
  write_file snap (String.concat "\n" damaged ^ "deadbeef\tok\ttr");
  let lines = ref [] and llock = Mutex.create () in
  let cfg =
    { (base_config (fresh_addr ())) with
      snapshot = Some snap;
      extra_domains = [ ("poisoned", poisoned) ];
      log = (fun l -> Mutex.protect llock (fun () -> lines := l :: !lines)) }
  in
  with_server cfg (fun c ->
      List.iteri
        (fun i formula ->
          let id = string_of_int i in
          match Client.request c (eval_req ~domain:"poisoned" id formula) with
          | Ok (_, Protocol.R_outcome o) ->
            (* only a cache hit answers without the poisoned decide *)
            Alcotest.(check bool) (formula ^ " warm") (i <> 1) (Outcome.status o = "complete")
          | Ok _ -> Alcotest.fail "expected an outcome"
          | Error e -> Alcotest.failf "eval %s: %s" formula e)
        sentences);
  Alcotest.(check bool) "boot logs the warm start and the damage" true
    (List.mem "fq serve: warm start, 2 cached verdicts loaded (1 skipped, 14 torn bytes)" !lines);
  (* a file that is not a journal, such as the old text snapshot, still
     fails the boot rather than being silently overwritten *)
  write_file snap "fq-decide-cache 1\nok\ttrue\tforall v0. exists v1. v0 < v1\n";
  (match Server.run cfg with
  | Error e -> Alcotest.(check bool) "names the header" true (contains e "bad header")
  | Ok _ -> Alcotest.fail "a wrong header must fail the boot");
  Sys.remove snap;
  Sys.remove (snap ^ ".journal")

let test_serve_trace_roundtrip () =
  let cfg = { (base_config (fresh_addr ())) with trace_sample = 1 } in
  with_server cfg @@ fun c ->
  (* a client-chosen trace id is echoed verbatim in the matching reply *)
  (match Client.send c
           (Protocol.Eval
              { id = "t1"; domain = None; formula = "S(x)"; fuel = None;
                timeout_ms = None; resume = None; trace = Some "my-trace-7" })
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send: %s" e);
  (match Client.recv_json c with
  | Ok j ->
    Alcotest.(check (option string)) "client trace echoed" (Some "my-trace-7")
      (Option.bind (Json.member "trace" j) Json.to_str_opt);
    (* the trace field does not perturb outcome classification *)
    (match Protocol.classify_reply j with
    | Ok ("t1", Protocol.R_outcome { verdict = Complete _; _ }) -> ()
    | _ -> Alcotest.fail "traced reply no longer classifies as a complete outcome")
  | Error e -> Alcotest.failf "recv: %s" e);
  (* an untraced request gets a server-minted id *)
  (match Client.send c (eval_req "t2" "S(x)") with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send: %s" e);
  (match Client.recv_json c with
  | Ok j -> (
    match Option.bind (Json.member "trace" j) Json.to_str_opt with
    | Some t when String.length t > 4 && String.sub t 0 4 = "srv-" -> ()
    | Some t -> Alcotest.failf "minted trace %S lacks the srv- prefix" t
    | None -> Alcotest.fail "untraced request got no minted trace id")
  | Error e -> Alcotest.failf "recv: %s" e);
  (* with trace_sample = 1 both requests landed in the trace ring *)
  match Client.request c (Protocol.Traces { id = "tr"; limit = None }) with
  | Ok ("tr", Protocol.R_ok j) -> (
    match Option.bind (Json.member "traces" j) Json.to_list_opt with
    | Some traces ->
      let ids =
        List.filter_map (fun t -> Option.bind (Json.member "trace" t) Json.to_str_opt)
          traces
      in
      Alcotest.(check bool) "client trace id names its sampled span tree" true
        (List.mem "my-trace-7" ids);
      Alcotest.(check bool) "sampled traces carry spans" true
        (List.for_all (fun t -> Json.member "spans" t <> None) traces)
    | None -> Alcotest.fail "traces reply lacks the traces list")
  | Ok _ -> Alcotest.fail "traces: expected ok payload"
  | Error e -> Alcotest.failf "traces: %s" e

let test_serve_reload () =
  let v2 = Filename.temp_file "fq_state_v2" ".db" in
  write_file v2 "# epoch-2 database\nE/2=7,8\nS/1=7\n";
  with_server (base_config (fresh_addr ())) @@ fun c ->
  (* Pipeline eval / reload / eval on one connection.  The reader admits
     in line order, and each job pins the epoch current at admission: the
     first eval must answer from epoch 1 even though the swap can win the
     race against the worker. *)
  List.iter
    (fun r ->
      match Client.send c r with
      | Ok () -> ()
      | Error e -> Alcotest.failf "send: %s" e)
    [ eval_req "old" "exists y. E(x,y)";
      Protocol.Reload { id = "r"; path = Some v2 };
      eval_req "new" "exists y. E(x,y)" ];
  let replies = ref [] in
  for _ = 1 to 3 do
    match Client.recv c with
    | Ok (id, reply) -> replies := (id, reply) :: !replies
    | Error e -> Alcotest.failf "recv: %s" e
  done;
  let find id =
    match List.assoc_opt id !replies with
    | Some r -> r
    | None -> Alcotest.failf "no reply for %S" id
  in
  (match find "old" with
  | Protocol.R_outcome { verdict = Complete { answer; _ }; _ } ->
    Alcotest.(check int) "epoch-1 answer" 2 (Relation.cardinal answer)
  | _ -> Alcotest.fail "old: expected a complete outcome from epoch 1");
  (match find "r" with
  | Protocol.R_ok j ->
    (match Option.bind (Json.member "epoch" j) Json.to_int_opt with
    | Some 2 -> ()
    | _ -> Alcotest.fail "reload ack lacks epoch 2")
  | _ -> Alcotest.fail "reload: expected an ok ack");
  (match find "new" with
  | Protocol.R_outcome { verdict = Complete { answer; _ }; _ } ->
    Alcotest.(check int) "epoch-2 answer" 1 (Relation.cardinal answer)
  | _ -> Alcotest.fail "new: expected a complete outcome from epoch 2");
  (match Client.request c (Protocol.Health { id = "h" }) with
  | Ok ("h", Protocol.R_ok j) ->
    (match Option.bind (Json.member "epoch" j) Json.to_int_opt with
    | Some 2 -> ()
    | _ -> Alcotest.fail "health must report epoch 2");
    (match Json.member "breakers" j with
    | Some _ -> ()
    | None -> Alcotest.fail "health lacks breaker states")
  | Ok _ -> Alcotest.fail "health: expected ok"
  | Error e -> Alcotest.failf "health: %s" e);
  (* a bad path is a structured reply, and serving continues on epoch 2 *)
  (match
     Client.request c (Protocol.Reload { id = "nope"; path = Some "/nonexistent/x.db" })
   with
  | Ok ("nope", Protocol.R_malformed _) -> ()
  | Ok _ -> Alcotest.fail "bad reload: expected malformed"
  | Error e -> Alcotest.failf "bad reload: %s" e);
  (match Client.request c (Protocol.Health { id = "h2" }) with
  | Ok ("h2", Protocol.R_ok j) ->
    (match Option.bind (Json.member "epoch" j) Json.to_int_opt with
    | Some 2 -> ()
    | _ -> Alcotest.fail "failed reload must not bump the epoch")
  | Ok _ -> Alcotest.fail "health after bad reload"
  | Error e -> Alcotest.failf "health after bad reload: %s" e);
  Sys.remove v2

(* An anchored query answers through a column index cached on the
   epoch's state; a reload must answer from the new state's own. *)
let test_serve_reload_anchored () =
  let v2 = Filename.temp_file "fq_state_v2" ".db" in
  write_file v2 "E/2=a,c;b,c;c,d\nS/1=a\n";
  with_server (base_config (fresh_addr ())) @@ fun c ->
  let answer id formula =
    match Client.request c (eval_req ~domain:"equality" id formula) with
    | Ok (_, Protocol.R_outcome { verdict = Complete { answer; _ }; _ }) -> answer
    | Ok _ -> Alcotest.failf "%s: expected a complete outcome" id
    | Error e -> Alcotest.failf "%s: %s" id e
  in
  let col vs = Relation.make ~arity:1 (List.map (fun v -> [ Value.str v ]) vs) in
  Alcotest.(check bool) "epoch 1: E(x, \"2\")" true
    (Relation.equal (col [ "1" ]) (answer "old" {|E(x, "2")|}));
  (match Client.request c (Protocol.Reload { id = "r"; path = Some v2 }) with
  | Ok ("r", Protocol.R_ok _) -> ()
  | Ok _ -> Alcotest.fail "reload: expected an ok ack"
  | Error e -> Alcotest.failf "reload: %s" e);
  Alcotest.(check bool) "epoch 2: E(x, \"c\")" true
    (Relation.equal (col [ "a"; "b" ]) (answer "new" {|E(x, "c")|}));
  Alcotest.(check bool) "epoch 2: E(x, \"2\") is empty" true
    (Relation.is_empty (answer "gone" {|E(x, "2")|}));
  Sys.remove v2

let test_serve_oversized_line () =
  with_server { (base_config (fresh_addr ())) with max_line_bytes = 128 } @@ fun c ->
  (* an oversize request line is answered (not fatal) and drained *)
  (match Client.request c (eval_req "big" (String.make 256 'a')) with
  | Ok (_, Protocol.R_malformed reason) ->
    Alcotest.(check bool) "names the bound" true (contains reason "exceeds")
  | Ok _ -> Alcotest.fail "expected malformed for an oversize line"
  | Error e -> Alcotest.failf "oversize: %s" e);
  match Client.request c (Protocol.Ping { id = "p" }) with
  | Ok ("p", Protocol.R_ok _) -> ()
  | Ok _ -> Alcotest.fail "connection must survive an oversize line"
  | Error e -> Alcotest.failf "ping after oversize: %s" e

(* A resume token whose row does not match its arity is a malformed
   request: the reply says so, and the same connection then answers a
   ping.  Sent as a raw line, since the typed client cannot build such a
   token. *)
let test_serve_ragged_resume_token () =
  let cfg = base_config (fresh_addr ()) in
  with_server cfg @@ fun _ ->
  let path = match cfg.Server.addr with Server.Unix_path p -> p | Server.Tcp _ -> assert false in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX path);
  (* a server that never answers fails the read instead of hanging it *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  let ic = Unix.in_channel_of_descr fd in
  let exchange line =
    let line = line ^ "\n" in
    ignore (Unix.write_substring fd line 0 (String.length line));
    match Json.parse (input_line ic) with
    | Ok j -> Protocol.classify_reply j
    | Error e -> Error e
  in
  (match
     exchange
       {|{"op":"eval","id":"1","formula":"E(x,y)","resume":{"seen":0,"found":{"arity":2,"rows":[["a"]]}}}|}
   with
  | Ok (_, Protocol.R_malformed reason) ->
    Alcotest.(check bool) "names the bad row" true (contains reason "bad row")
  | Ok _ -> Alcotest.fail "expected malformed for a ragged resume token"
  | Error e -> Alcotest.failf "ragged token: %s" e);
  (match
     exchange
       {|{"op":"eval","id":"2","formula":"E(x,y)","resume":{"seen":0,"found":{"arity":-1,"rows":[]}}}|}
   with
  | Ok (_, Protocol.R_malformed _) -> ()
  | Ok _ -> Alcotest.fail "expected malformed for a negative arity"
  | Error e -> Alcotest.failf "negative arity: %s" e);
  match exchange {|{"op":"ping","id":"p"}|} with
  | Ok ("p", Protocol.R_ok _) -> ()
  | Ok _ -> Alcotest.fail "connection must survive a bad resume token"
  | Error e -> Alcotest.failf "ping after bad token: %s" e

let test_serve_watchdog () =
  let release = Atomic.make false in
  let wedged =
    Fq_domain.Domain.with_decide presburger (fun _ ->
        while not (Atomic.get release) do
          Unix.sleepf 0.005
        done;
        Ok true)
  in
  let cfg =
    { (base_config (fresh_addr ())) with
      jobs = 1;
      watchdog_grace_ms = 100;
      extra_domains = [ ("wedge", wedged) ] }
  in
  with_server cfg @@ fun c ->
  Fun.protect ~finally:(fun () -> Atomic.set release true) @@ fun () ->
  (* the wedge ignores its budget's cancel hook, so the watchdog must
     escalate: force-answer the request and recycle the worker seat *)
  (match
     Client.request c
       (eval_req ~domain:"wedge" ~timeout_ms:50 "w" "forall x. exists y. x < y")
   with
  | Ok ("w", Protocol.R_outcome { verdict = Failed { reason }; _ }) ->
    Alcotest.(check bool) "classified as a watchdog recycle" true
      (contains reason "watchdog")
  | Ok ("w", Protocol.R_outcome o) ->
    Alcotest.failf "expected a watchdog failure, got %s" (Outcome.status o)
  | Ok _ -> Alcotest.fail "expected an outcome"
  | Error e -> Alcotest.failf "watchdog eval: %s" e);
  Atomic.set release true;
  (* the replacement domain serves the very next request *)
  match Client.request c (eval_req "after" "S(x)") with
  | Ok ("after", Protocol.R_outcome { verdict = Complete { answer; _ }; _ }) ->
    Alcotest.(check int) "replacement worker answers" 1 (Relation.cardinal answer)
  | Ok _ -> Alcotest.fail "expected a complete answer after the recycle"
  | Error e -> Alcotest.failf "post-recycle eval: %s" e

(* Each seat's evaluation must be governed by its own request's budget
   alone, whether seats are domains or threads of one domain (run this
   suite under [taskset -c 0] for the latter).  Two spin decides meet
   before they start, then charge the ambient budget and sleep every ten
   ticks, so they interleave; each checks on every tick that the ambient
   budget is still the one its request installed.  One must then stop on
   its own fuel, the other on its own deadline. *)
let test_serve_budgets_per_seat () =
  let arrived = Atomic.make 0 in
  let spin =
    Fq_domain.Domain.with_decide presburger (fun _ ->
        let own = Budget.ambient () in
        let give_up = Unix.gettimeofday () +. 10. in
        Atomic.incr arrived;
        while Atomic.get arrived < 2 && Unix.gettimeofday () < give_up do
          Unix.sleepf 0.001
        done;
        let rec go n =
          if Option.is_none own || Unix.gettimeofday () > give_up then
            Error "spin: ran ungoverned"
          else if not (Option.equal ( == ) (Budget.ambient ()) own) then
            Error "spin: saw another request's budget"
          else begin
            Budget.tick_ambient ();
            if n mod 10 = 0 then Unix.sleepf 0.0002;
            go (n + 1)
          end
        in
        go 1)
  in
  let cfg = { (base_config (fresh_addr ())) with extra_domains = [ ("spin", spin) ] } in
  with_server cfg @@ fun _ ->
  let ask id ~fuel ?timeout_ms formula () =
    match Client.connect ~retries:20 ~delay_ms:25 cfg.Server.addr with
    | Error e -> Error e
    | Ok c ->
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      Client.request c
        (Protocol.Eval
           { id; domain = Some "spin"; formula; fuel = Some fuel; timeout_ms; resume = None;
             trace = None })
  in
  let spawn f =
    let out = ref (Error "no reply") in
    let t = Thread.create (fun () -> out := f ()) () in
    fun () -> Thread.join t; !out
  in
  let fuel = spawn (ask "fuel" ~fuel:2_000 "forall x. exists y. x < y") in
  let deadline =
    spawn (ask "deadline" ~fuel:1_000_000 ~timeout_ms:300 "exists x. forall y. y < x")
  in
  let stopped_by what id = function
    | Ok (rid, Protocol.R_outcome o) when rid = id ->
      (match o.Outcome.verdict with
      | Outcome.Partial { reason; _ } ->
        Alcotest.(check string) (id ^ ": stopped by") (Budget.error_string what)
          (Budget.error_string reason)
      | Outcome.Failed { reason } ->
        Alcotest.(check string) (id ^ ": stopped by") (Budget.error_string what) reason
      | Outcome.Complete _ -> Alcotest.failf "%s: completed" id);
      o.Outcome.usage.Budget.ticks
    | Ok _ -> Alcotest.failf "%s: expected an outcome" id
    | Error e -> Alcotest.failf "%s: %s" id e
  in
  let fuel_ticks = stopped_by Budget.Fuel_exhausted "fuel" (fuel ()) in
  let deadline_ticks = stopped_by Budget.Deadline_exceeded "deadline" (deadline ()) in
  Alcotest.(check int) "fuel request charged only its own budget" 2_001 fuel_ticks;
  Alcotest.(check bool) "deadline request stopped well short of its fuel" true
    (deadline_ticks < 500_000)

(* ---------------------- compaction vs late verdicts ------------------ *)

(* A verdict journaled after a save's cache walk is not in that snapshot,
   so the journal reset that follows the save must keep it: otherwise a
   kill -9 before the next save loses it.  The snapshot's temp file is a
   FIFO and the snapshot outgrows a pipe buffer, so the save blocks
   between its walk and its publish while the test decides one more
   sentence; the test then drains the FIFO and recovers from what a
   crash at that moment leaves: the published snapshot plus the
   journal. *)
let test_compaction_keeps_late_verdicts () =
  let snap = fresh_journal () in
  let jpath = snap ^ ".journal" in
  (* ~2 MB of snapshot: more than a pipe buffers, so the save blocks *)
  let filler = Decide_cache.create ~capacity:4096 () in
  for i = 0 to 1999 do
    Decide_cache.restore filler
      (Fq_logic.Parser.formula_exn (Printf.sprintf "exists x. x = %d" i))
      (Error (String.make 1000 'e'))
  done;
  (match Decide_cache.save filler snap with
  | Ok 2000 -> ()
  | Ok n -> Alcotest.failf "filler saved %d entries" n
  | Error e -> Alcotest.failf "filler save: %s" e);
  Unix.mkfifo (snap ^ ".tmp") 0o600;
  let cfg = { (base_config (fresh_addr ())) with snapshot = Some snap } in
  let late = "forall x. exists y. x < y" in
  let published, journal =
    with_server cfg @@ fun c ->
    let saver =
      Thread.create
        (fun () ->
          match Client.connect ~retries:50 ~delay_ms:20 cfg.Server.addr with
          | Error e -> Alcotest.failf "connect: %s" e
          | Ok c2 ->
            ignore (Client.request c2 (Protocol.Snapshot { id = "s" }));
            Client.close c2)
        ()
    in
    (* opening the read end returns once the save has walked the cache
       and opened its temp file *)
    let ic = open_in_bin (snap ^ ".tmp") in
    (match Client.request c (eval_req ~domain:"presburger" "late" late) with
    | Ok (_, Protocol.R_outcome { verdict = Complete _; _ }) -> ()
    | Ok _ -> Alcotest.fail "late eval: expected complete"
    | Error e -> Alcotest.failf "late eval: %s" e);
    let published = In_channel.input_all ic in
    close_in ic;
    Thread.join saver;
    (published, read_file jpath)
  in
  let crashed = fresh_journal () in
  write_file crashed published;
  write_file jpath journal;
  let recovered = Decide_cache.create ~capacity:4096 () in
  List.iter
    (fun path ->
      match Decide_cache.load recovered path with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "load %s: %s" path e)
    [ crashed; jpath ];
  Alcotest.(check bool) "the late verdict survives in snapshot + journal" true
    (Decide_cache.decide recovered poisoned (Fq_logic.Parser.formula_exn late) = Ok true);
  List.iter Sys.remove [ snap; jpath; crashed ]

(* ------------------- snapshot save fault containment ----------------- *)

let test_snapshot_save_fault_containment () =
  (* a failed snapshot save must never corrupt the snapshot already on
     disk: the decide_cache.snapshot.save site fires before the temp
     file opens, so the bytes at [path] stay identical *)
  let cache = Decide_cache.create () in
  let formula =
    match Fq_logic.Parser.formula "forall x. exists y. x < y" with
    | Ok f -> f
    | Error e -> Alcotest.failf "parse: %s" e
  in
  (match Decide_cache.decide cache presburger formula with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "decide: expected true"
  | Error e -> Alcotest.failf "decide: %s" e);
  let path = Filename.temp_file "fq_snap_fault" ".fq" in
  (match Decide_cache.save cache path with
  | Ok n when n >= 1 -> ()
  | Ok n -> Alcotest.failf "first save wrote %d entries" n
  | Error e -> Alcotest.failf "first save: %s" e);
  let before = read_file path in
  let plan =
    Fault.plan ~seed:11
      ~rules:
        [ Fault.At
            { site = "decide_cache.snapshot.save"; hits = [ 1 ]; action = Crash "disk full" } ]
      ()
  in
  Fault.with_plan plan (fun () ->
      match Decide_cache.save cache path with
      | Error e ->
        Alcotest.(check bool) "failure names the injected fault" true
          (contains e "injected")
      | Ok n -> Alcotest.failf "armed save succeeded (%d entries)" n);
  Alcotest.(check int) "the fault fired" 1 (Fault.injection_count plan);
  Alcotest.(check string) "existing snapshot byte-identical after failed save" before
    (read_file path);
  Alcotest.(check bool) "no temp file left behind" false (Sys.file_exists (path ^ ".tmp"));
  (* and the cache itself is still saveable once the fault clears *)
  (match Decide_cache.save cache path with
  | Ok n when n >= 1 -> ()
  | Ok n -> Alcotest.failf "post-fault save wrote %d" n
  | Error e -> Alcotest.failf "post-fault save: %s" e);
  Sys.remove path

(* ------------------- client failover: half-closed sockets ------------ *)

(* A stub worker that accepts one connection, reads the request, and
   slams the socket shut — the classic kill -9 mid-request — then
   answers properly on every later connection.  run_jobs must classify
   the cut as transient and redeliver the job, resume token and all. *)
let test_run_jobs_halfclosed_retry () =
  let addr = fresh_addr () in
  let path = match addr with Server.Unix_path p -> p | Server.Tcp _ -> assert false in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 8;
  let conns = Atomic.make 0 in
  let stop = Atomic.make false in
  let serve_stub () =
    while not (Atomic.get stop) do
      match Unix.select [ listener ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ -> (
        let fd, _ = Unix.accept listener in
        let n = Atomic.fetch_and_add conns 1 in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        let rec answer () =
          match input_line ic with
          | exception (End_of_file | Sys_error _) -> ()
          | line -> (
            match Protocol.parse_request (String.trim line) with
            | Ok (Protocol.Fleet_status { id }) ->
              output_string oc
                (Json.to_string
                   (Protocol.fleet_status_response ~id ~fleet:false
                      [ { Protocol.worker = "stub"; worker_addr = Server.addr_to_string addr;
                          up = true; pid = None; restarts = 0 } ]));
              output_char oc '\n';
              flush oc;
              answer ()
            | Ok (Protocol.Eval { id; resume; _ }) ->
              if n = 1 then
                (* half-close: the request was read and then the peer died *)
                ()
              else begin
                (* a real answer; echo whether the retry carried evidence *)
                let ans =
                  if resume = None then Relation.make ~arity:0 [ [] ]
                  else Relation.empty ~arity:0
                in
                let outcome =
                  { Outcome.verdict = Outcome.Complete { answer = ans; tier = "stub" };
                    usage = { Budget.ticks = 1; elapsed_ms = 0.1 };
                    attempts = [] }
                in
                output_string oc (Json.to_string (Protocol.outcome_response ~id outcome));
                output_char oc '\n';
                flush oc;
                answer ()
              end
            | Ok _ | Error _ -> answer ())
        in
        answer ();
        (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        (try close_in ic with Sys_error _ -> ()))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    Unix.close listener
  in
  let th = Thread.create serve_stub () in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join th;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let job =
        { Client.domain = None; formula = "S(x)"; fuel = None; timeout_ms = None;
          trace = None }
      in
      match Client.run_jobs ~addr [ job ] with
      | Error e -> Alcotest.failf "run_jobs: %s" e
      | Ok results ->
        Alcotest.(check int) "one result" 1 (Array.length results);
        let r = results.(0) in
        (match r.Client.reply with
        | Protocol.R_outcome { verdict = Outcome.Complete _; _ } -> ()
        | Protocol.R_outcome o ->
          Alcotest.failf "job not answered after the cut: %s" (Outcome.status o)
        | _ -> Alcotest.fail "expected an outcome");
        Alcotest.(check bool) "the cut connection registered as a failover" true
          (r.Client.failovers >= 1);
        Alcotest.(check bool) "stub saw the retry on a fresh connection" true
          (Atomic.get conns >= 2))

(* ------------------------ SIGTERM drain ordering --------------------- *)

let test_sigterm_drain_answers_inflight () =
  (* SIGTERM while a long eval is in flight: the admitted request must
     be answered (drain, not drop), the journal folded into the
     snapshot, and the exit graceful *)
  let gate = Atomic.make false in
  let slow =
    Fq_domain.Domain.with_decide presburger (fun _ ->
        while not (Atomic.get gate) do
          Unix.sleepf 0.005
        done;
        Ok true)
  in
  let snap = Filename.temp_file "fq_drain_snap" ".fq" in
  Sys.remove snap;
  let cfg =
    { (base_config (fresh_addr ())) with
      jobs = 1;
      snapshot = Some snap;
      extra_domains = [ ("slowdom", slow) ] }
  in
  let result = ref (Error "server never returned") in
  let th = Thread.create (fun () -> result := Server.run cfg) () in
  let c =
    match Client.connect ~retries:200 ~delay_ms:25 cfg.Server.addr with
    | Ok c -> c
    | Error e -> Alcotest.failf "connect: %s" e
  in
  (match Client.send c (eval_req ~domain:"slowdom" "slow" "forall x. exists y. x < y") with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send: %s" e);
  (* let the request get admitted, then pull the plug *)
  Unix.sleepf 0.15;
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  Unix.sleepf 0.05;
  Atomic.set gate true;
  (match Client.recv c with
  | Ok ("slow", Protocol.R_outcome { verdict = Outcome.Complete _; _ }) -> ()
  | Ok ("slow", Protocol.R_outcome o) ->
    Alcotest.failf "in-flight request mis-answered during drain: %s" (Outcome.status o)
  | Ok _ -> Alcotest.fail "expected the in-flight outcome"
  | Error e -> Alcotest.failf "drain dropped the in-flight request: %s" e);
  Client.close c;
  Thread.join th;
  (match !result with
  | Ok 0 -> ()
  | Ok n -> Alcotest.failf "drain exit %d" n
  | Error e -> Alcotest.failf "server: %s" e);
  Alcotest.(check bool) "snapshot written by the drain" true (Sys.file_exists snap);
  Sys.remove snap

(* ------------------------------ fleet -------------------------------- *)

module Fleet = Fq_server.Fleet

(* The in-process fleet harness: Fleet.run on a thread (it forks worker
   processes underneath), shut down over the wire, exit code checked.
   Unix-socket fleets derive worker addresses as ADDR.i next to the
   control socket. *)
let fleet_config ?(workers = 2) ?snapshot addr =
  let serve = Server.default_config ~state:served_state addr in
  { (Fleet.default_config { serve with Server.jobs = 2; snapshot; log = ignore }) with
    Fleet.workers;
    base_backoff_ms = 50;
    max_backoff_ms = 400;
    probe_interval_ms = 200;
    probe_timeout_ms = 500 }

let with_fleet cfg k =
  let result = ref (Error "fleet never returned") in
  let th = Thread.create (fun () -> result := Fleet.run cfg) () in
  let addr = cfg.Fleet.serve.Server.addr in
  let ctl req =
    match Client.connect ~retries:200 ~delay_ms:25 addr with
    | Error e -> Error e
    | Ok c ->
      let r = Client.request c req in
      Client.close c;
      r
  in
  Fun.protect
    ~finally:(fun () ->
      (match ctl (Protocol.Shutdown { id = "bye" }) with
      | Ok (_, Protocol.R_ok _) -> ()
      | Ok _ -> Alcotest.fail "fleet shutdown: expected ok ack"
      | Error e -> Alcotest.failf "fleet shutdown: %s" e);
      Thread.join th;
      match !result with
      | Ok 0 -> ()
      | Ok n -> Alcotest.failf "fleet exited %d" n
      | Error e -> Alcotest.failf "fleet: %s" e)
    (fun () -> k ctl)

let fleet_status_workers ctl =
  match ctl (Protocol.Fleet_status { id = "fs" }) with
  | Ok (_, Protocol.R_ok j) -> (
    match Protocol.fleet_status_of_json j with
    | Ok (true, ws) -> ws
    | Ok (false, _) -> Alcotest.fail "fleet-status did not identify as a fleet"
    | Error e -> Alcotest.failf "fleet-status parse: %s" e)
  | Ok _ -> Alcotest.fail "fleet-status: expected ok"
  | Error e -> Alcotest.failf "fleet-status: %s" e

let eval_jobs n =
  List.init n (fun i ->
      { Client.domain = Some "presburger";
        formula = Printf.sprintf "exists x. x + x = %d" (2 * i);
        fuel = None; timeout_ms = None; trace = None })

let all_answered results =
  Array.iteri
    (fun i (r : Client.job_result) ->
      match r.Client.reply with
      | Protocol.R_outcome { verdict = Outcome.Complete _; _ } -> ()
      | Protocol.R_outcome { verdict = Outcome.Failed { reason }; _ } ->
        Alcotest.failf "job %d lost: %s" i reason
      | Protocol.R_outcome o -> Alcotest.failf "job %d: %s" i (Outcome.status o)
      | _ -> Alcotest.failf "job %d: no outcome" i)
    results

let test_fleet_boot_and_serve () =
  let addr = fresh_addr () in
  with_fleet (fleet_config addr) @@ fun ctl ->
  let ws = fleet_status_workers ctl in
  Alcotest.(check int) "both workers listed" 2 (List.length ws);
  Alcotest.(check bool) "both workers up" true (List.for_all (fun w -> w.Protocol.up) ws);
  (* jobs are spread across the fleet and every one is answered, each
     reply stamped with the answering worker's id *)
  match Client.run_jobs ~addr (eval_jobs 8) with
  | Error e -> Alcotest.failf "run_jobs: %s" e
  | Ok results ->
    Alcotest.(check int) "all replies" 8 (Array.length results);
    all_answered results;
    Alcotest.(check bool) "replies carry worker stamps" true
      (Array.for_all (fun (r : Client.job_result) -> r.Client.worker <> None) results)

let test_fleet_kill9_no_lost_requests seed =
  (* the acceptance drill: kill -9 one worker while >= 50 pipelined
     requests are in flight — zero lost client requests, the worker
     respawned within backoff bounds *)
  let addr = fresh_addr () in
  with_fleet (fleet_config addr) @@ fun ctl ->
  let ws = fleet_status_workers ctl in
  let victim = List.nth ws (seed mod List.length ws) in
  let pid =
    match victim.Protocol.pid with
    | Some p -> p
    | None -> Alcotest.fail "live worker reports no pid"
  in
  let results = ref (Error "run_jobs never returned") in
  let runner = Thread.create (fun () -> results := Client.run_jobs ~addr (eval_jobs 60)) () in
  (* let the pool connect and start draining, then murder the victim *)
  Unix.sleepf 0.1;
  Unix.kill pid Sys.sigkill;
  Thread.join runner;
  (match !results with
  | Error e -> Alcotest.failf "run_jobs under kill -9: %s" e
  | Ok results ->
    Alcotest.(check int) "every request answered" 60 (Array.length results);
    all_answered results);
  (* the supervisor respawns the victim within backoff bounds *)
  let deadline = Unix.gettimeofday () +. 5. in
  let rec wait_respawn () =
    let ws = fleet_status_workers ctl in
    let v = List.find (fun w -> w.Protocol.worker = victim.Protocol.worker) ws in
    if List.for_all (fun w -> w.Protocol.up) ws && v.Protocol.restarts >= 1 then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "victim not respawned within 5s (up %b, restarts %d)" v.Protocol.up
        v.Protocol.restarts
    else begin
      Unix.sleepf 0.05;
      wait_respawn ()
    end
  in
  wait_respawn ()

let test_fleet_rolling_reload () =
  let v2 = Filename.temp_file "fq_fleet_state_v2" ".db" in
  write_file v2 "E/2=7,8\nS/1=7\n";
  let addr = fresh_addr () in
  with_fleet (fleet_config addr) @@ fun ctl ->
  (* a broken state file must roll zero workers *)
  let bad = Filename.temp_file "fq_fleet_state_bad" ".db" in
  write_file bad "not a database\n";
  (match ctl (Protocol.Reload { id = "bad"; path = Some bad }) with
  | Ok (_, Protocol.R_malformed _) -> ()
  | Ok _ -> Alcotest.fail "bad reload: expected malformed"
  | Error e -> Alcotest.failf "bad reload: %s" e);
  Sys.remove bad;
  (* a good one rolls every live worker, one at a time, and the fleet
     keeps answering throughout *)
  let results = ref (Error "run_jobs never returned") in
  let runner = Thread.create (fun () -> results := Client.run_jobs ~addr (eval_jobs 20)) () in
  (match ctl (Protocol.Reload { id = "r"; path = Some v2 }) with
  | Ok (_, Protocol.R_ok j) ->
    (match Option.bind (Json.member "workers_reloaded" j) Json.to_int_opt with
    | Some 2 -> ()
    | Some n -> Alcotest.failf "reloaded %d workers, want 2" n
    | None -> Alcotest.fail "reload ack lacks workers_reloaded")
  | Ok _ -> Alcotest.fail "reload: expected ok"
  | Error e -> Alcotest.failf "reload: %s" e);
  Thread.join runner;
  (match !results with
  | Error e -> Alcotest.failf "run_jobs during reload: %s" e
  | Ok results -> all_answered results);
  (* new admissions see the reloaded database on every worker *)
  let ws = fleet_status_workers ctl in
  List.iter
    (fun w ->
      match Server.addr_of_string w.Protocol.worker_addr with
      | Error e -> Alcotest.failf "worker addr: %s" e
      | Ok waddr -> (
        match Client.connect ~retries:20 waddr with
        | Error e -> Alcotest.failf "%s: %s" w.Protocol.worker e
        | Ok c ->
          (match Client.request c (eval_req "q" "exists y. E(x,y)") with
          | Ok (_, Protocol.R_outcome { verdict = Outcome.Complete { answer; _ }; _ }) ->
            Alcotest.(check int)
              (w.Protocol.worker ^ " answers from the new epoch")
              1 (Relation.cardinal answer)
          | Ok _ -> Alcotest.failf "%s: expected a complete outcome" w.Protocol.worker
          | Error e -> Alcotest.failf "%s eval: %s" w.Protocol.worker e);
          Client.close c))
    ws;
  Sys.remove v2

(* A control connection held open and pinged every 300 ms must not stall
   supervision: a kill -9'd worker is reaped and respawned while it is
   open, observed over that same connection. *)
let test_fleet_held_control_conn () =
  let addr = fresh_addr () in
  with_fleet (fleet_config addr) @@ fun _ctl ->
  let c =
    match Client.connect ~retries:200 ~delay_ms:25 ~timeout_ms:5_000 addr with
    | Ok c -> c
    | Error e -> Alcotest.failf "connect: %s" e
  in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let status () =
    (match Client.request c (Protocol.Ping { id = "p" }) with
    | Ok ("p", Protocol.R_ok _) -> ()
    | Ok _ -> Alcotest.fail "ping: expected ok"
    | Error e -> Alcotest.failf "ping: %s" e);
    match Client.request c (Protocol.Fleet_status { id = "fs" }) with
    | Ok (_, Protocol.R_ok j) -> (
      match Protocol.fleet_status_of_json j with
      | Ok (_, ws) -> ws
      | Error e -> Alcotest.failf "fleet-status parse: %s" e)
    | Ok _ -> Alcotest.fail "fleet-status: expected ok"
    | Error e -> Alcotest.failf "fleet-status: %s" e
  in
  let victim = List.hd (status ()) in
  (match victim.Protocol.pid with
  | Some pid -> Unix.kill pid Sys.sigkill
  | None -> Alcotest.fail "live worker reports no pid");
  let deadline = Unix.gettimeofday () +. 2. in
  let rec wait_restart () =
    Unix.sleepf 0.3;
    let ws = status () in
    let v = List.find (fun w -> w.Protocol.worker = victim.Protocol.worker) ws in
    if v.Protocol.restarts >= 1 && List.for_all (fun w -> w.Protocol.up) ws then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "no restart within 2s while the control connection was held (restarts %d)"
        v.Protocol.restarts
    else wait_restart ()
  in
  wait_restart ()

(* The control socket applies the serve line bound: a 2 MiB ping is
   answered as oversize (never echoed back), and the connection goes on
   to answer a normal ping. *)
let test_fleet_control_oversize_line () =
  let addr = fresh_addr () in
  with_fleet (fleet_config addr) @@ fun _ctl ->
  match Client.connect ~retries:200 ~delay_ms:25 ~timeout_ms:5_000 addr with
  | Error e -> Alcotest.failf "connect: %s" e
  | Ok c ->
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    (match Client.request c (Protocol.Ping { id = String.make (2 lsl 20) 'x' }) with
    | Ok ("", Protocol.R_malformed reason) ->
      Alcotest.(check string) "names the bound" "protocol: line exceeds 1048576 bytes" reason
    | Ok _ -> Alcotest.fail "expected the line-exceeds reply"
    | Error e -> Alcotest.failf "oversize ping: %s" e);
    match Client.request c (Protocol.Ping { id = "p" }) with
    | Ok ("p", Protocol.R_ok _) -> ()
    | Ok _ -> Alcotest.fail "ping after oversize: expected ok"
    | Error e -> Alcotest.failf "ping after oversize: %s" e

(* Fleet chaos properties: ride the QCHECK_SEED matrix — the seed picks
   the victim worker and the fault sites armed in the supervisor. *)
let prop_fleet_kill9 =
  QCheck.Test.make ~name:"fleet: kill -9 loses zero client requests" ~count:2
    QCheck.(make Gen.(int_bound 1000))
    (fun seed ->
      test_fleet_kill9_no_lost_requests seed;
      true)

let prop_fleet_spawn_faults =
  QCheck.Test.make ~name:"fleet: armed spawn/probe faults never lose requests" ~count:2
    QCheck.(make Gen.(int_bound 99999))
    (fun seed ->
      let plan =
        Fault.chaos ~seed ~sites:[ "fleet.spawn"; "fleet.probe" ] ~permille:120
          ~actions:[ Fault.Crash "injected: supervisor" ]
          ()
      in
      Fault.with_plan plan (fun () ->
          let addr = fresh_addr () in
          with_fleet (fleet_config addr) @@ fun _ctl ->
          match Client.run_jobs ~addr (eval_jobs 12) with
          | Error e -> QCheck.Test.fail_reportf "run_jobs under chaos: %s" e
          | Ok results ->
            if Array.length results <> 12 then
              QCheck.Test.fail_reportf "%d of 12 replies" (Array.length results);
            all_answered results);
      true)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "server"
    [ ( "codecs",
        [ Alcotest.test_case "json print/parse roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "outcome json roundtrip" `Quick test_outcome_roundtrip;
          Alcotest.test_case "request json roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "reply classification" `Quick test_reply_classify ] );
      ( "control",
        [ Alcotest.test_case "an exception answers malformed, reading goes on" `Quick
            test_answer_survives_exception ] );
      ("snapshot", [ qt prop_snapshot_agrees ]);
      ( "journal",
        [ Alcotest.test_case "crc32 check value" `Quick test_journal_crc;
          Alcotest.test_case "append/recover roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "torn tail truncated in place" `Quick test_journal_torn_tail;
          Alcotest.test_case "corrupt record skipped" `Quick test_journal_corrupt_record;
          Alcotest.test_case "reset compacts atomically" `Quick test_journal_reset;
          Alcotest.test_case "reset keeps the records after a mark" `Quick
            test_journal_reset_since;
          Alcotest.test_case "wrong header refused, missing file empty" `Quick
            test_journal_not_a_journal;
          Alcotest.test_case "armed faults leave a valid prefix" `Quick
            test_journal_fault_containment;
          qt prop_journal_recovery;
          qt prop_journal_chaos ] );
      (* the fleet group must run before any in-process daemon boots:
         OCaml 5 refuses Unix.fork once another domain has ever been
         spawned, and Server.run spawns its worker seats as domains in
         this process when more than one CPU is available — the fleet
         parent itself only forks and threads *)
      ( "fleet",
        [ Alcotest.test_case "boot, discover, spread, shutdown" `Quick
            test_fleet_boot_and_serve;
          Alcotest.test_case "rolling reload serves throughout" `Quick
            test_fleet_rolling_reload;
          Alcotest.test_case "held control connection does not stall supervision" `Quick
            test_fleet_held_control_conn;
          Alcotest.test_case "control socket bounds its lines" `Quick
            test_fleet_control_oversize_line;
          qt prop_fleet_kill9;
          qt prop_fleet_spawn_faults ] );
      ( "daemon",
        [ Alcotest.test_case "boot, eval, metrics, shutdown" `Quick test_serve_roundtrip;
          Alcotest.test_case "trace ids echo, mint, and reach the ring" `Quick
            test_serve_trace_roundtrip;
          Alcotest.test_case "admission reject carries resume" `Quick test_serve_reject;
          Alcotest.test_case "snapshot warm start" `Quick test_serve_snapshot_warm;
          Alcotest.test_case "damaged snapshot boots warm" `Quick test_serve_damaged_snapshot;
          Alcotest.test_case "hot reload swaps epochs without drops" `Quick
            test_serve_reload;
          Alcotest.test_case "anchored queries answer from the reloaded state" `Quick
            test_serve_reload_anchored;
          Alcotest.test_case "oversize line answered and drained" `Quick
            test_serve_oversized_line;
          Alcotest.test_case "ragged resume token answered, connection kept" `Quick
            test_serve_ragged_resume_token;
          Alcotest.test_case "failed snapshot save leaves the old snapshot intact" `Quick
            test_snapshot_save_fault_containment;
          Alcotest.test_case "compaction keeps verdicts journaled during a save" `Quick
            test_compaction_keeps_late_verdicts;
          Alcotest.test_case "half-closed socket classified transient and retried" `Quick
            test_run_jobs_halfclosed_retry;
          Alcotest.test_case "SIGTERM drains the in-flight request" `Quick
            test_sigterm_drain_answers_inflight;
          Alcotest.test_case "watchdog recycles a wedged worker" `Quick
            test_serve_watchdog;
          Alcotest.test_case "each seat is governed by its own budget" `Quick
            test_serve_budgets_per_seat ] ) ]
