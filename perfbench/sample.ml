(* Order statistics over latency samples, and the result line. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Nearest-rank quantile: with n samples, exactly n - ceil(q n) samples lie
   above the returned one, so p99 over 1000 samples leaves 10 beyond it. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then nan
  else
    let k = int_of_float (ceil (q *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))

let quantile a q = quantile_sorted (sorted a) q
let median a = quantile a 0.5
let sum a = Array.fold_left ( +. ) 0. a

(* Mean of the middle half of the values (all of them when fewer than 4). *)
let interquartile_mean a =
  let s = sorted a and n = Array.length a in
  let lo = n / 4 in
  let mid = Array.sub s lo (n - (2 * lo)) in
  sum mid /. float_of_int (Array.length mid)

(* A metric as printed: name, value, unit. *)
type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

(* JSON has no nan: an unmeasurable per-layer number (a layer the
   workload never reached) prints as 0. *)
let json_number v =
  if Float.is_nan v || Float.abs v = infinity then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun { name; value; unit } ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body
