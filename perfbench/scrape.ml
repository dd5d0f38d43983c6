(* The server-side view of a served run: its metrics exposition (fetched
   with the metrics op, read with Aggregate.parse_exposition) and its
   /proc CPU time, taken before and after the measured window. *)

open Finite_queries

type t = {
  text : string;  (* the exposition as served *)
  samples : (string * (string * string) list * float) list;
  cpu_ms : float;
}

let take child conn =
  let text =
    match Client.request conn (Protocol.Metrics { id = "scrape" }) with
    | Ok (_, Protocol.R_ok json) -> (
      match Json.member "exposition" json with
      | Some (Json.Str s) -> s
      | _ -> Child.fail child "metrics reply has no exposition")
    | _ -> Child.fail child "metrics op failed"
  in
  { text; samples = Aggregate.parse_exposition text; cpu_ms = Child.cpu_ms child }

(* Sum of a family's samples over all label sets. *)
let total t name =
  List.fold_left (fun acc (n, _, v) -> if n = name then acc +. v else acc) 0. t.samples

(* Per-bucket counts of a histogram family on the fixed Aggregate ladder.
   The exposition renders only buckets that advance the cumulative count,
   so each rendered [le] fills the ladder up to the next rendered one. *)
let buckets t family =
  let name = family ^ "_bucket" and n = Aggregate.bucket_count in
  let per_set = Hashtbl.create 4 in
  List.iter
    (fun (metric, labels, v) ->
      if metric = name then begin
        let key = List.filter (fun (k, _) -> k <> "le") labels in
        let cum =
          match Hashtbl.find_opt per_set key with
          | Some c -> c
          | None ->
            let c = Array.make n 0. in
            Hashtbl.replace per_set key c;
            c
        in
        let le = List.assoc "le" labels in
        let le = if le = "+Inf" then infinity else float_of_string le in
        (* rendered bounds are rounded: divide by less than one bucket step *)
        for j = Aggregate.bucket_index (le /. 1.05) to n - 1 do
          cum.(j) <- Float.max cum.(j) v
        done
      end)
    t.samples;
  let cum = Array.make n 0. in
  Hashtbl.iter (fun _ c -> Array.iteri (fun j x -> cum.(j) <- cum.(j) +. x) c) per_set;
  Array.mapi (fun i c -> if i = 0 then c else c -. cum.(i - 1)) cum

(* Quantile of the observations a histogram gained between two scrapes,
   interpolated linearly inside the bucket that holds it. *)
let window_quantile ~before ~after family q =
  let b = buckets before family and a = buckets after family in
  let d = Array.mapi (fun i x -> x -. b.(i)) a in
  let n = Array.fold_left ( +. ) 0. d in
  if n <= 0. then nan
  else
    let target = q *. n in
    let rec go i acc =
      if i >= Array.length d - 1 then Aggregate.bucket_le (Array.length d - 2)
      else if acc +. d.(i) >= target && d.(i) > 0. then
        let lo = if i = 0 then 0. else Aggregate.bucket_le (i - 1) in
        let hi = Aggregate.bucket_le i in
        lo +. ((hi -. lo) *. ((target -. acc) /. d.(i)))
      else go (i + 1) (acc +. d.(i))
    in
    go 0 0.

let names =
  [ ("server.eval_p50_us", "us"); ("server.eval_p99_us", "us");
    ("server.outside_eval_p50_us", "us"); ("server.cpu_ms_per_kop", "ms");
    ("decide_cache.hit_rate", "ratio"); ("decide_cache.misses", "count");
    ("decide_cache.evictions", "count"); ("journal.compactions", "count") ]

(* The server-side per-layer numbers of one measured window, in the
   order of [names]. *)
let derive ~before ~after ~ops ~client_p50_us =
  let delta name = total after name -. total before name in
  let hits = delta "fq_decide_cache_hits_total" and misses = delta "fq_decide_cache_misses_total" in
  let eval_q q = 1000. *. window_quantile ~before ~after "fq_request_latency_ms" q in
  let eval_p50 = eval_q 0.5 in
  List.map2
    (fun (n, u) v -> Sample.m n u v)
    names
    [ eval_p50; eval_q 0.99; client_p50_us -. eval_p50;
      (after.cpu_ms -. before.cpu_ms) /. (float_of_int ops /. 1000.);
      (if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
      misses; delta "fq_decide_cache_evictions_total"; delta "fq_journal_compactions_total" ]

(* The same names for a workload with no server. *)
let absent = List.map (fun (n, u) -> Sample.m n u 0.) names
