(* Sign-magnitude arbitrary-precision integers.

   Representation: [{ sign; mag }] where [mag] is a little-endian array of
   limbs in base 10000 with no trailing zero limb, and [sign] is [-1], [0]
   or [1]. Zero is uniquely [{ sign = 0; mag = [||] }].

   Base 10000 keeps every intermediate product below 10^8, far within
   native-int range, and makes decimal printing trivial. Performance is
   ample for the formula coefficients this library manipulates. *)

let base = 10_000
let base_digits = 4

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

(* ------------------------------------------------------------------ *)
(* Magnitude helpers (arrays of limbs, no sign)                        *)
(* ------------------------------------------------------------------ *)

let mag_normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let mag_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + Stdlib.max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s mod base;
    carry := s / base
  done;
  assert (!carry = 0);
  mag_normalize r

(* Requires a >= b. *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if s < 0 then begin r.(i) <- s + base; borrow := 1 end
    else begin r.(i) <- s; borrow := 0 end
  done;
  assert (!borrow = 0);
  mag_normalize r

let mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        let s = r.(i + j) + (a.(i) * b.(j)) + !carry in
        r.(i + j) <- s mod base;
        carry := s / base
      done;
      r.(i + lb) <- r.(i + lb) + !carry
    done;
    mag_normalize r
  end

(* Multiply magnitude by a small int (0 <= k < base). *)
let mag_mul_small a k =
  if k = 0 then [||]
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let s = (a.(i) * k) + !carry in
      r.(i) <- s mod base;
      carry := s / base
    done;
    r.(la) <- !carry;
    mag_normalize r
  end

(* Shift left by [k] limbs (multiply by base^k). *)
let mag_shift a k =
  let la = Array.length a in
  if la = 0 then [||]
  else begin
    let r = Array.make (la + k) 0 in
    Array.blit a 0 r k la;
    r
  end

(* Long division of magnitudes: returns (quotient, remainder).
   Quotient limbs are found by binary search, which is slow-ish but simple
   and obviously correct; divisions in this library are on short numbers. *)
let mag_div_rem a b =
  if Array.length b = 0 then raise Division_by_zero;
  if mag_compare a b < 0 then ([||], a)
  else begin
    let la = Array.length a in
    let q = Array.make la 0 in
    let rem = ref [||] in
    for i = la - 1 downto 0 do
      rem := mag_add (mag_shift !rem 1) (mag_normalize [| a.(i) |]);
      (* binary search for the largest digit d with b*d <= rem *)
      let lo = ref 0 and hi = ref (base - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if mag_compare (mag_mul_small b mid) !rem <= 0 then lo := mid else hi := mid - 1
      done;
      q.(i) <- !lo;
      rem := mag_sub !rem (mag_mul_small b !lo)
    done;
    (mag_normalize q, !rem)
  end

(* ------------------------------------------------------------------ *)
(* Construction and normalization                                      *)
(* ------------------------------------------------------------------ *)

let make sign mag =
  let mag = mag_normalize mag in
  if Array.length mag = 0 then zero else { sign; mag }

let of_int n =
  if n = 0 then zero
  else begin
    let sign = if n > 0 then 1 else -1 in
    (* min_int negation is unsafe; go through a list using abs on pieces *)
    let rec limbs n acc = if n = 0 then List.rev acc else limbs (n / base) ((Stdlib.abs (n mod base)) :: acc) in
    { sign; mag = Array.of_list (limbs n []) }
  end

let one = of_int 1
let minus_one = of_int (-1)

let to_int_opt n =
  (* Accumulate negatively so that [min_int] (whose magnitude exceeds
     [max_int]) is representable during the fold. *)
  let rec go i acc =
    if i < 0 then Some acc
    else if acc < (min_int + n.mag.(i)) / base then None
    else go (i - 1) ((acc * base) - n.mag.(i))
  in
  match go (Array.length n.mag - 1) 0 with
  | None -> None
  | Some v -> if n.sign >= 0 then (if v = min_int then None else Some (-v)) else Some v

let to_int_exn n =
  match to_int_opt n with
  | Some i -> i
  | None -> failwith "Bigint.to_int_exn: value out of native int range"

let sign n = n.sign
let is_zero n = n.sign = 0

let compare a b =
  if a.sign <> b.sign then compare a.sign b.sign
  else if a.sign >= 0 then mag_compare a.mag b.mag
  else mag_compare b.mag a.mag

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let hash n = Hashtbl.hash (n.sign, n.mag)

let neg n = if n.sign = 0 then zero else { n with sign = -n.sign }
let abs n = if n.sign < 0 then neg n else n

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then make a.sign (mag_add a.mag b.mag)
  else
    let c = mag_compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sign (mag_sub a.mag b.mag)
    else make b.sign (mag_sub b.mag a.mag)

let sub a b = add a (neg b)
let succ n = add n one
let pred n = sub n one

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else make (a.sign * b.sign) (mag_mul a.mag b.mag)

let div_rem a b =
  if b.sign = 0 then raise Division_by_zero;
  let q_mag, r_mag = mag_div_rem a.mag b.mag in
  let q = make (a.sign * b.sign) q_mag in
  let r = make a.sign r_mag in
  (q, r)

let ediv_rem a b =
  let q, r = div_rem a b in
  if r.sign >= 0 then (q, r)
  else if b.sign > 0 then (pred q, add r b)
  else (succ q, sub r b)

let div a b = fst (div_rem a b)
let rem a b = snd (div_rem a b)

let divisible ~by n =
  if is_zero by then invalid_arg "Bigint.divisible: zero divisor";
  is_zero (rem n by)

let rec gcd_mag a b = if is_zero b then a else gcd_mag b (rem a b)
let gcd a b = gcd_mag (abs a) (abs b)

let lcm a b =
  if is_zero a || is_zero b then zero
  else
    let g = gcd a b in
    abs (mul (div a g) b)

let lcm_list = List.fold_left lcm one

let pow b e =
  if e < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else if e land 1 = 1 then go (mul acc b) (mul b b) (e lsr 1)
    else go acc (mul b b) (e lsr 1)
  in
  go one b e

let to_string n =
  if n.sign = 0 then "0"
  else begin
    let buf = Buffer.create 16 in
    if n.sign < 0 then Buffer.add_char buf '-';
    let hi = Array.length n.mag - 1 in
    Buffer.add_string buf (string_of_int n.mag.(hi));
    for i = hi - 1 downto 0 do
      Buffer.add_string buf (Printf.sprintf "%0*d" base_digits n.mag.(i))
    done;
    Buffer.contents buf
  end

let pp fmt n = Format.pp_print_string fmt (to_string n)

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let sign_mult, start =
    match s.[0] with
    | '-' -> (-1, 1)
    | '+' -> (1, 1)
    | _ -> (1, 0)
  in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  String.iteri
    (fun i c ->
      if i >= start && not (c >= '0' && c <= '9') then
        invalid_arg (Printf.sprintf "Bigint.of_string: bad character %C" c))
    s;
  (* Parse digits in base-10^4 chunks from the right. *)
  let ndigits = len - start in
  let nlimbs = (ndigits + base_digits - 1) / base_digits in
  let mag = Array.make nlimbs 0 in
  let pos = ref len in
  for i = 0 to nlimbs - 1 do
    let lo = Stdlib.max start (!pos - base_digits) in
    mag.(i) <- int_of_string (String.sub s lo (!pos - lo));
    pos := lo
  done;
  make sign_mult mag

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( mod ) = rem
  let ( = ) = equal
  let ( <> ) a b = not (equal a b)
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
  let ( ~- ) = neg
end
