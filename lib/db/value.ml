module Bigint = Fq_numeric.Bigint

type t =
  | Int of Bigint.t
  | Str of string

let int n = Int (Bigint.of_int n)
let big n = Int n
let str s = Str s

let compare a b =
  match (a, b) with
  | Int x, Int y -> Bigint.compare x y
  | Int _, Str _ -> -1
  | Str _, Int _ -> 1
  | Str x, Str y -> String.compare x y

(* dictionary-decoded cells are shared, so equal values are often the
   same block *)
let equal a b = a == b || compare a b = 0

let hash = function
  | Int n -> Bigint.hash n
  | Str s -> Hashtbl.hash s

let pp fmt = function
  | Int n -> Bigint.pp fmt n
  | Str s -> Format.fprintf fmt "%S" s

let to_string v = Format.asprintf "%a" pp v

let to_const = function
  | Int n -> Bigint.to_string n
  | Str s -> s

let as_int = function Int n -> Some n | Str _ -> None
let as_str = function Str s -> Some s | Int _ -> None
