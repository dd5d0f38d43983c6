(* fqbench — the fq benchmark.

     fqbench --workload W --seed N --seconds S --trace 0|1

   Run from the root of an fq checkout where `dune build bin/fq.exe` has
   been run (perfbench/run.py builds and runs it); outputs go under
   perfbench/out.

   Workloads (inputs generated from --seed; fq only ever sees them):

   - serve-point: closed loop, one connection, one request in flight,
     against `fq serve -j 2 -d equality` on a 2,000-edge string-valued
     state file.  Constant-anchored safe-range queries — a selection, a
     2-hop join and a guarded negation — all answered by ranf-algebra.
   - offline-join: no server.  One thread calls Query.eval_resilient on a
     URI-labelled graph of 4,000 vertices x fan 12 (48k edges); per fifty
     ops, 46 constant-anchored queries and one each of the whole-relation
     2-hop, anti-join, triangle and union.
   - serve-decide: two connections, each pipelining up to four requests,
     against `fq serve -j 2 -d presburger --snapshot --journal` booted
     warm from a 256-sentence hot-set snapshot.  ~80% of requests re-ask
     a hot sentence (cache hits), ~20% ask a never-seen one (quantifier
     elimination, a journal append, a compaction every 512 appends).

   Every reply and answer is checked against an oracle computed here
   (Oracle); any mismatch fails the run and the exit code.  Served
   latency quantiles and throughput are medians over ten equal slices of
   the measured period; offline-join takes them over the whole run.  With
   --trace 0 the last stdout line carries the end-to-end metrics.  With
   --trace 1 the served run is halved and followed by an untraced and a
   traced in-process replay of the same op stream (Replay); the last line
   carries the per-layer metrics, and the traced replay's spans go to
   perfbench/out/trace-W-seedN.jsonl. *)

open Finite_queries

type args = { workload : string; seed : int; seconds : float; trace : bool }

let fq = "_build/default/bin/fq.exe"
let out = "perfbench/out"

let usage =
  "usage: fqbench --workload serve-point|offline-join|serve-decide --seed N --seconds S \
   --trace 0|1"

let parse_args () =
  let rec go a = function
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = float_of_string v } rest
    | "--trace" :: v :: rest -> go { a with trace = v = "1" } rest
    | [] -> a
    | x :: _ -> failwith (Printf.sprintf "unknown argument %S\n%s" x usage)
  in
  go { workload = ""; seed = 1; seconds = 10.; trace = false } (List.tl (Array.to_list Sys.argv))

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* What one run reports. *)
type report = {
  e2e : Sample.metric list;
  layers : Sample.metric list;  (* --trace 1 only *)
  tally : Load.tally;  (* every checked op of the run *)
  traced : Replay.traced option;
  steal_pct : float;  (* host CPU steal during the measured window *)
  server : Sample.metric list;  (* the server-side scrape, served workloads *)
}

(* Traced replays stop after this many ops, which bounds the spans kept
   in memory and written out. *)
let replay_cap = 10_000

(* The share of CPU time the host withheld from this machine between two
   readings of /proc/stat, in percent. *)
let cpu_ticks () =
  In_channel.with_open_text "/proc/stat" input_line
  |> String.split_on_char ' '
  |> List.filter_map int_of_string_opt
  |> Array.of_list

let steal_pct before after =
  let d = Array.mapi (fun i x -> float_of_int (x - before.(i))) after in
  100. *. d.(7) /. Array.fold_left ( +. ) 0. d

(* Latency quantiles and throughput are taken in each of [windows] equal
   slices of the measured period and reported as the mean of the middle
   half of the slices.  On a shared host the machine's speed flips every
   few seconds; the mean averages over those flips, where a median would
   jump between them, and dropping the outer quarters keeps a burst of
   CPU steal from moving the result.  Each slice of a served workload
   still holds well over 1000 replies. *)
let e2e_metrics (t : Load.tally) ~start ~windows ~setup_s ~peak_rss_mb =
  let open Sample in
  let span = (t.Load.last_reply -. start) /. float_of_int windows in
  let slices = Array.make windows [] in
  List.iter
    (fun (at, us) ->
      let k = min (windows - 1) (int_of_float ((at -. start) /. span)) in
      slices.(k) <- us :: slices.(k))
    t.Load.samples;
  let per f = interquartile_mean (Array.map (fun l -> f (sorted (Array.of_list l))) slices) in
  [ m "latency_p50_us" "us" (per (fun s -> quantile_sorted s 0.5));
    m "latency_p99_us" "us" (per (fun s -> quantile_sorted s 0.99));
    m "throughput_ops" "ops/s" (per (fun s -> float_of_int (Array.length s) /. span));
    m "setup_s" "s" setup_s;
    m "peak_rss_mb" "MB" peak_rss_mb ]

let setup_metrics ?(codec = 0.) ?(stats = 0.) ?(cache = 0.) ?(journal = 0.) ?(record_bytes = 0.) ()
    =
  Sample.
    [ m "codec.load_state_ms" "ms" (codec *. 1000.);
      m "stats.of_state_ms" "ms" (stats *. 1000.);
      m "decide_cache.load_ms" "ms" (cache *. 1000.);
      m "journal.recover_ms" "ms" (journal *. 1000.);
      m "journal.bytes_per_record" "bytes" record_bytes ]

(* The untraced replay of [ops] for [seconds], then the traced replay of
   the same prefix; [env_of] builds a fresh environment for each. *)
let replays env_of ops ~seconds =
  let untraced = Replay.untraced (env_of ()) ops ~until:(now () +. seconds) in
  let traced = Replay.traced (env_of ()) (Array.sub ops 0 untraced.Replay.ops) in
  (untraced, traced)

let layer_report ~e2e ~steal_pct ~served ~tallies ~untraced ~traced ~setup =
  let tally = Load.merge (untraced.Replay.tally :: traced.Replay.pass.Replay.tally :: tallies) in
  let failed_frac =
    Sample.m "failed_frac" "ratio"
      (float_of_int tally.Load.failed /. float_of_int (max 1 tally.Load.attempted))
  in
  let steal = Sample.m "host.steal_pct" "%" steal_pct in
  { e2e; layers = (failed_frac :: steal :: served) @ Replay.per_layer_metrics ~untraced traced @ setup;
    tally; traced = Some traced; steal_pct; server = [] }

(* A served workload: boot the server 21 times (setup_s is the median;
   single boots on a shared host range over 2-4x), keep the last one, warm
   it up, and measure [load] between two scrapes.  Returns the report
   pieces and the measured tally. *)
let served a ~dir ~serve_args ~before_boot ~warmup ~load =
  let boot tag =
    before_boot ();
    Child.spawn ~fq ~dir ~tag serve_args
  in
  let boots =
    List.init 20 (fun i ->
        let c, s = boot (Printf.sprintf "boot%d" i) in
        Child.shutdown c;
        s)
  in
  let server, s = boot "main" in
  let setup_s = Sample.median (Array.of_list (s :: boots)) in
  let conn = Child.connect server in
  let warm = Load.tally () in
  warmup conn warm;
  let measure = if a.trace then a.seconds /. 2. else a.seconds in
  let before = Scrape.take server conn in
  let ticks = cpu_ticks () in
  let start = now () in
  let t = load server conn ~until:(start +. measure) in
  let steal = steal_pct ticks (cpu_ticks ()) in
  let after = Scrape.take server conn in
  Out_channel.with_open_text
    (Filename.concat out (Printf.sprintf "scrape-%s-seed%d.txt" a.workload a.seed))
    (fun oc -> output_string oc after.Scrape.text);
  let peak = Child.peak_rss_mb (string_of_int server.Child.pid) in
  Client.close conn;
  Child.shutdown server;
  let e2e = e2e_metrics t ~start ~windows:20 ~setup_s ~peak_rss_mb:peak in
  let scraped =
    Scrape.derive ~before ~after ~ops:t.Load.attempted
      ~client_p50_us:(List.find (fun x -> x.Sample.name = "latency_p50_us") e2e).Sample.value
  in
  (e2e, steal, scraped, t, warm)

let served_ops ~fuel next n =
  Array.init (min n replay_cap) (fun i ->
      let q = next i in
      let req = Load.request ~id:(string_of_int i) ~fuel q in
      { Replay.index = i; query = q; line = Some (Json.to_string (Protocol.request_to_json req)) })

(* ---------------------------- serve-point --------------------------- *)

let fuel = 1_000_000
let stream_len = 1 lsl 18

let serve_point a ~dir =
  let rng = Random.State.make [| a.seed; 1 |] in
  let g = Oracle.graph rng ~vertices:500 ~fan:4 ~label:(Printf.sprintf "v%d") in
  let state_file = Filename.concat dir "state.fq" in
  Oracle.write_state_file g state_file;
  let anchors = Array.init 200 (fun _ -> Random.State.int rng (Oracle.vertices g)) in
  let pool = Array.map (fun s -> Array.map (Oracle.graph_query g s) anchors) Oracle.anchored in
  let picks = Array.init stream_len (fun _ -> Random.State.int rng (Array.length anchors)) in
  let next i = pool.(i mod 3).(picks.(i mod stream_len)) in
  let e2e, steal_pct, scraped, t, warm =
    served a ~dir
      ~serve_args:[ "-d"; "equality"; "-j"; "2"; "--state-file"; state_file ]
      ~before_boot:ignore
      ~warmup:(fun conn warm ->
        Load.closed_loop conn ~fuel ~until:(now () +. 0.5)
          ~next:(fun i -> next ((stream_len / 2) + i)) warm)
      ~load:(fun _ conn ~until ->
        let t = Load.tally () in
        Load.closed_loop conn ~fuel ~until ~next t;
        t)
  in
  if not a.trace then
    { e2e; layers = []; tally = Load.merge [ t; warm ]; traced = None; steal_pct; server = scraped }
  else begin
    let codec = ref 0. and stats = ref 0. in
    let env_of () =
      let state, c = timed (fun () -> Replay.ok_or_fail "state" (Codec.load_state state_file)) in
      let st, s = timed (fun () -> Optimizer.Stats.of_state state) in
      codec := c;
      stats := s;
      { Replay.state; stats = st; domain = (module Eq_domain); fuel = None }
    in
    let untraced, traced =
      replays env_of (served_ops ~fuel next t.Load.attempted) ~seconds:(a.seconds /. 4.)
    in
    layer_report ~e2e ~steal_pct ~served:scraped ~tallies:[ t; warm ] ~untraced ~traced
      ~setup:(setup_metrics ~codec:!codec ~stats:!stats ())
  end

(* ---------------------------- offline-join -------------------------- *)

let offline_join a ~dir =
  let rng = Random.State.make [| a.seed; 2 |] in
  let g =
    Oracle.graph rng ~vertices:4000 ~fan:12 ~label:(Printf.sprintf "http://example.org/node/%d")
  in
  let build () =
    let state = Oracle.state g in
    (state, Optimizer.Stats.of_state state)
  in
  let builds =
    List.init 5 (fun _ ->
        Gc.full_major ();
        timed build)
  in
  let state, stats = fst (List.hd builds) in
  let setup_s = Sample.median (Array.of_list (List.map snd builds)) in
  let anchors = Array.init 200 (fun _ -> Random.State.int rng (Oracle.vertices g)) in
  let anchored = Array.map (fun s -> Array.map (Oracle.graph_query g s) anchors) Oracle.anchored in
  let whole = Array.map (fun s -> Oracle.graph_query g s 0) Oracle.whole in
  let picks = Array.init stream_len (fun _ -> Random.State.int rng (Array.length anchors)) in
  (* per fifty ops, the four whole-relation queries at positions 11, 23,
     35 and 47 and anchored ones (shapes in turn) elsewhere: each whole
     query is 2% of ops, so the slowest alone holds the top percentile *)
  let next i =
    let p = i mod 50 in
    if p mod 12 = 11 && p < 48 then whole.(p / 12) else anchored.(i mod 3).(picks.(i mod stream_len))
  in
  Array.iter (Array.iter (fun q -> ignore (Lazy.force q.Oracle.formula))) anchored;
  Array.iter (fun q -> ignore (Lazy.force q.Oracle.formula)) whole;
  let eq = (module Eq_domain : Domain.S) in
  let op t (q : Oracle.query) =
    let f = Lazy.force q.Oracle.formula in
    let t0 = now () in
    let o = Query.eval_resilient ~budget:(Budget.make ()) ~stats ~domain:eq ~state f in
    Load.record t ~t0 ~t1:(now ());
    Load.check t q o
  in
  let warm = Load.tally () in
  Array.iter (op warm) whole;
  for i = 0 to 39 do
    op warm (next ((stream_len / 2) + (i * 10)))
  done;
  let measure = if a.trace then a.seconds /. 2. else a.seconds in
  Gc.compact ();
  let t = Load.tally () in
  let ticks = cpu_ticks () in
  let start = now () in
  let i = ref 0 in
  (* whole fifty-op cycles only, so the mix is the same in every run *)
  while now () < start +. measure || !i mod 50 <> 0 do
    op t (next !i);
    incr i
  done;
  let steal_pct = steal_pct ticks (cpu_ticks ()) in
  (* one slice: the top percentile is the slowest whole-relation query,
     2% of ops, so it needs the whole run's ~1000 ops *)
  let e2e = e2e_metrics t ~start ~windows:1 ~setup_s ~peak_rss_mb:(Child.peak_rss_mb "self") in
  if not a.trace then
    { e2e; layers = []; tally = Load.merge [ t; warm ]; traced = None; steal_pct; server = [] }
  else begin
    let state_file = Filename.concat dir "state.fq" in
    Oracle.write_state_file g state_file;
    let _, codec = timed (fun () -> Replay.ok_or_fail "state" (Codec.load_state state_file)) in
    let _, stats_s = timed (fun () -> Optimizer.Stats.of_state state) in
    let env_of () = { Replay.state; stats; domain = eq; fuel = None } in
    let ops = Array.init (min !i replay_cap) (fun i -> { Replay.index = i; query = next i; line = None }) in
    let untraced, traced = replays env_of ops ~seconds:(a.seconds /. 2.) in
    layer_report ~e2e ~steal_pct ~served:Scrape.absent ~tallies:[ t; warm ] ~untraced ~traced
      ~setup:(setup_metrics ~codec ~stats:stats_s ())
  end

(* ---------------------------- serve-decide -------------------------- *)

let hot_size = 256
let fresh_share = 0.2
let depth = 4

let serve_decide a ~dir =
  let rng = Random.State.make [| a.seed; 3 |] in
  let hot_base = 2 + Random.State.int rng 100 and fresh_base = 1000 + Random.State.int rng 100_000 in
  let hot = Array.init hot_size (Oracle.nth_sentence ~base:hot_base) in
  (* per connection, op i is a hot sentence (>= 0) or the r-th fresh one
     (-(r + 1)); fresh sentences interleave across connections, so no
     sentence is ever asked twice *)
  let plan =
    Array.init 2 (fun _ ->
        let fresh = ref 0 in
        Array.init stream_len (fun _ ->
            if Random.State.float rng 1. < fresh_share then begin
              incr fresh;
              - !fresh
            end
            else Random.State.int rng hot_size))
  in
  let next c i =
    match plan.(c).(i mod stream_len) with
    | h when h >= 0 -> hot.(h)
    | r -> Oracle.nth_sentence ~base:fresh_base ((2 * (-r - 1)) + c)
  in
  let empty = State.make ~schema:Schema.empty [] in
  let presburger = (module Presburger : Domain.S) in
  (* the hot-set snapshot, filled through eval_resilient exactly as the
     server's cache is, which also checks the oracle's truth values *)
  let warm = Load.tally () in
  let cache = Decide_cache.create () in
  Array.iter
    (fun (q : Oracle.query) ->
      let o =
        Query.eval_resilient ~budget:(Budget.make ~fuel ()) ~cache ~domain:presburger ~state:empty
          (Lazy.force q.Oracle.formula)
      in
      Load.check warm q o)
    hot;
  let hot_snapshot = Filename.concat dir "hot.snapshot" in
  ignore (Replay.ok_or_fail "snapshot" (Decide_cache.save cache hot_snapshot));
  let snapshot = Filename.concat dir "serve.snapshot" and journal = Filename.concat dir "serve.journal" in
  let copy src dst =
    let s = In_channel.with_open_bin src In_channel.input_all in
    Out_channel.with_open_bin dst (fun oc -> output_string oc s)
  in
  let e2e, steal_pct, scraped, t, warm2 =
    served a ~dir
      ~serve_args:[ "-d"; "presburger"; "-j"; "2"; "--snapshot"; snapshot; "--journal"; journal ]
      ~before_boot:(fun () ->
        copy hot_snapshot snapshot;
        try Sys.remove journal with Sys_error _ -> ())
      ~warmup:(fun conn warm ->
        Load.closed_loop conn ~fuel ~until:(now () +. 0.5) ~next:(fun i -> hot.(i mod hot_size)) warm)
      ~load:(fun server conn ~until ->
        let conns = [ (0, conn); (1, Child.connect server) ] in
        let tallies = List.map (fun _ -> Load.tally ()) conns in
        Load.in_threads (List.combine conns tallies) (fun ((c, conn), t) ->
            Load.pipelined conn ~depth ~fuel ~until ~next:(next c) t);
        Client.close (List.assoc 1 conns);
        Load.merge tallies)
  in
  if not a.trace then
    { e2e; layers = []; tally = Load.merge [ t; warm; warm2 ]; traced = None; steal_pct;
      server = scraped }
  else begin
    let load_s = ref 0. and replay_journal = Filename.concat dir "replay.journal" in
    let open_journal = ref None in
    let env_of () =
      let cache = Decide_cache.create () in
      let _, l = timed (fun () -> Replay.ok_or_fail "load" (Decide_cache.load cache hot_snapshot)) in
      load_s := l;
      (try Sys.remove replay_journal with Sys_error _ -> ());
      Option.iter (fun (j, _) -> Journal.close j) !open_journal;
      let j = Replay.ok_or_fail "journal" (Journal.open_append replay_journal) in
      open_journal := Some (j, (Unix.stat replay_journal).Unix.st_size);
      { Replay.state = empty; stats = Optimizer.Stats.of_state empty;
        domain = Replay.decide_domain ~cache ~journal:j; fuel = None }
    in
    (* the replayed stream: both connections' ops, alternating *)
    let per_conn = t.Load.attempted / 2 in
    let ops = served_ops ~fuel (fun i -> next (i mod 2) (i / 2)) (2 * per_conn) in
    let untraced, traced = replays env_of ops ~seconds:(a.seconds /. 4.) in
    let j, header = Option.get !open_journal in
    let appended = Journal.appended j in
    Journal.close j;
    let size = (Unix.stat replay_journal).Unix.st_size in
    let _, recover =
      timed (fun () -> Replay.ok_or_fail "recover" (Journal.recover replay_journal ~f:ignore))
    in
    layer_report ~e2e ~steal_pct ~served:scraped ~tallies:[ t; warm; warm2 ] ~untraced ~traced
      ~setup:
        (setup_metrics ~cache:!load_s ~journal:recover
           ~record_bytes:(float_of_int (size - header) /. float_of_int (max 1 appended))
           ())
  end

(* ------------------------------- main ------------------------------- *)

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun { Sample.name; value; unit } -> Printf.printf "  %-34s %16.3f %s\n" name value unit)
    ms

let () =
  let a = try parse_args () with Failure e -> prerr_endline e; exit 2 in
  let run =
    match a.workload with
    | "serve-point" -> serve_point
    | "offline-join" -> offline_join
    | "serve-decide" -> serve_decide
    | w ->
      Printf.eprintf "unknown workload %S\n%s\n" w usage;
      exit 2
  in
  if not (Sys.file_exists fq) then begin
    Printf.eprintf "fqbench: no fq binary at %s (build it first)\n" fq;
    exit 2
  end;
  (* a hard ceiling: no run outlives its budget or leaves a child behind *)
  ignore (Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> Child.kill_all (); exit 3)));
  ignore (Unix.alarm 170);
  let dir = Filename.concat out (Printf.sprintf "%s-%d" a.workload (Unix.getpid ())) in
  (try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir dir 0o755;
  let r =
    match run a ~dir with
    | r -> r
    | exception e ->
      Child.kill_all ();
      Child.remove_tree dir;
      Printf.eprintf "fqbench: %s failed: %s\n" a.workload (Printexc.to_string e);
      exit 1
  in
  Child.remove_tree dir;
  let t = r.tally in
  Printf.printf "fqbench %s seed=%d seconds=%g trace=%d: %d ops checked, %d failed, host steal %.1f%%\n"
    a.workload a.seed a.seconds (Bool.to_int a.trace) t.Load.attempted t.Load.failed r.steal_pct;
  print_metrics "end-to-end" r.e2e;
  Printf.printf "  %-34s %16.3f ratio\n" "failed_frac"
    (float_of_int t.Load.failed /. float_of_int (max 1 t.Load.attempted));
  if r.server <> [] then print_metrics "server-side (scraped over the same window)" r.server;
  Option.iter
    (fun traced ->
      print_metrics "per-layer" r.layers;
      List.iter print_endline (Replay.rollup_lines traced);
      let path = Filename.concat out (Printf.sprintf "trace-%s-seed%d.jsonl" a.workload a.seed) in
      Replay.write_spans path traced;
      Printf.printf "spans: %s\n" path)
    r.traced;
  Option.iter (Printf.printf "first failure: %s\n") t.Load.first_error;
  let correct = t.Load.failed = 0 in
  print_endline
    (Sample.result_line ~correct ~attempted:t.Load.attempted ~failed:t.Load.failed
       (if a.trace then r.layers else r.e2e));
  exit (if correct then 0 else 1)
