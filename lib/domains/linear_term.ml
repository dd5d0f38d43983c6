module B = Fq_numeric.Bigint
module Term = Fq_logic.Term

module Smap = Map.Make (String)

type t = { coeffs : B.t Smap.t; const : B.t }
(* Invariant: no zero coefficient is stored. *)

let zero = { coeffs = Smap.empty; const = B.zero }
let const c = { coeffs = Smap.empty; const = c }
let of_int n = const (B.of_int n)
let var x = { coeffs = Smap.singleton x B.one; const = B.zero }

let norm c = if B.is_zero c then None else Some c

let add a b =
  { coeffs =
      Smap.union (fun _ ca cb -> norm (B.add ca cb)) a.coeffs b.coeffs
      |> Smap.filter (fun _ c -> not (B.is_zero c));
    const = B.add a.const b.const }

let scale k t =
  if B.is_zero k then zero
  else { coeffs = Smap.map (B.mul k) t.coeffs; const = B.mul k t.const }

let neg t = scale B.minus_one t
let sub a b = add a (neg b)
let succ t = { t with const = B.succ t.const }

let coeff x t = match Smap.find_opt x t.coeffs with Some c -> c | None -> B.zero
let const_part t = t.const
let vars t = List.map fst (Smap.bindings t.coeffs)
let is_const t = Smap.is_empty t.coeffs

let equal a b = Smap.equal B.equal a.coeffs b.coeffs && B.equal a.const b.const

let remove x t = { t with coeffs = Smap.remove x t.coeffs }

let subst x u t =
  let c = coeff x t in
  if B.is_zero c then t else add (remove x t) (scale c u)

let eval ~env t =
  Smap.fold
    (fun x c acc ->
      Result.bind acc (fun total ->
          match List.assoc_opt x env with
          | Some v -> Ok (B.add total (B.mul c v))
          | None -> Error (Printf.sprintf "unbound variable %s" x)))
    t.coeffs (Ok t.const)

let is_numeral s =
  let body = if s <> "" && s.[0] = '-' then String.sub s 1 (String.length s - 1) else s in
  body <> "" && String.for_all (fun c -> c >= '0' && c <= '9') body

let of_term term =
  let ( let* ) = Result.bind in
  let rec go = function
    | Term.Var x -> Ok (var x)
    | Term.Const c ->
      if is_numeral c then Ok (const (B.of_string c))
      else Error (Printf.sprintf "constant %S is not a numeral" c)
    | Term.App ("+", [ a; b ]) ->
      let* ta = go a in
      let* tb = go b in
      Ok (add ta tb)
    | Term.App ("-", [ a; b ]) ->
      let* ta = go a in
      let* tb = go b in
      Ok (sub ta tb)
    | Term.App ("neg", [ a ]) ->
      let* ta = go a in
      Ok (neg ta)
    | Term.App ("s", [ a ]) ->
      let* ta = go a in
      Ok (succ ta)
    | Term.App ("*", [ a; b ]) ->
      let* ta = go a in
      let* tb = go b in
      if is_const ta then Ok (scale (const_part ta) tb)
      else if is_const tb then Ok (scale (const_part tb) ta)
      else Error "nonlinear product"
    | Term.App (f, args) ->
      Error (Printf.sprintf "non-Presburger function %s/%d" f (List.length args))
  in
  go term

let pp fmt t =
  let pp_mono fmt (x, c) =
    if B.equal c B.one then Format.pp_print_string fmt x
    else Format.fprintf fmt "%a*%s" B.pp c x
  in
  let monos = Smap.bindings t.coeffs in
  match monos with
  | [] -> B.pp fmt t.const
  | _ ->
    Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt " + ") pp_mono fmt monos;
    if not (B.is_zero t.const) then Format.fprintf fmt " + %a" B.pp t.const
