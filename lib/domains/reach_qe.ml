open Reach
module Budget = Fq_core.Budget
module Fault = Fq_core.Fault
module Telemetry = Fq_core.Telemetry
module Word = Fq_words.Word
module Trace = Fq_tm.Trace
module Builder = Fq_tm.Builder

(* ------------------------------------------------------------------ *)
(* Utilities                                                           *)
(* ------------------------------------------------------------------ *)

let atom_terms = function
  | Eq (t, u) -> [ t; u ]
  | Cls (_, t) -> [ t ]
  | B (_, t) -> [ t ]
  | D (_, t, u) | E (_, t, u) -> [ t; u ]

let mentions_x x = function
  | Base (Var v) | W_of (Var v) | M_of (Var v) -> v = x
  | Base (Const _) | W_of (Const _) | M_of (Const _) -> false

let atom_mentions x a = List.exists (mentions_x x) (atom_terms a)

let lit_mentions x = function
  | Atom a | Not (Atom a) -> atom_mentions x a
  | _ -> invalid_arg "lit_mentions: not a literal"

(* Ground-normalize a term: w/m of constants compute (nested applications
   were already flattened to ε at construction). *)
let ground_term = function
  | W_of (Const c) -> Base (Const (Trace.w_fn c))
  | M_of (Const c) -> Base (Const (Trace.m_fn c))
  | t -> t

let map_atom_terms fn = function
  | Eq (t, u) -> Eq (fn t, fn u)
  | Cls (c, t) -> Cls (c, fn t)
  | B (s, t) -> B (s, fn t)
  | D (i, t, u) -> D (i, fn t, fn u)
  | E (i, t, u) -> E (i, fn t, fn u)

let is_const_term = function Base (Const _) -> true | _ -> false

(* All words over {1,-} of length exactly n (2^n of them). *)
let words_of_length n =
  (* 2^n words — the exponential seat of cases W/M; one checkpoint per word
     lets a governed caller cut the expansion short. *)
  let rec go n =
    if n = 0 then [ "" ]
    else
      List.concat_map
        (fun w ->
          Budget.tick_ambient ();
          Fault.hit "qe.reach";
          Telemetry.count "qe.reach.steps";
          [ w ^ "1"; w ^ "-" ])
        (go (n - 1))
  in
  go n

let neg_qf f = Reach.nnf (Not f)

(* Possible classes of a term's value, conservatively. *)
let possible_classes = function
  | Base (Const c) -> [ Reach.cls_of_word c ]
  | Base (Var _) -> [ Machines; Inputs; Traces; Others ]
  | W_of _ -> [ Inputs ]
  | M_of _ -> [ Machines; Inputs ] (* a machine word, or ε which is an input *)

(* ------------------------------------------------------------------ *)
(* Literal normalization                                               *)
(*                                                                     *)
(* [norm ?xcls ~pos a] rewrites the literal [a] (negated when [pos] is  *)
(* false) into an equivalent quantifier-free formula whose literals are *)
(* canonical for eliminating the variable [x] assumed in class [cls]    *)
(* (when [xcls = Some (x, cls)]); x-free literals are simplified        *)
(* statically. Negated B/D/E literals become positive ones (the paper's *)
(* duality tricks); D/E atoms whose input argument is non-constant and  *)
(* involved with x expand through B_v (the Case M reduction).           *)
(* ------------------------------------------------------------------ *)

let rec norm ?xcls ~pos a : Reach.t =
  let a = map_atom_terms ground_term a in
  let on_x t = match xcls with Some (x, _) -> mentions_x x t | None -> false in
  let x_involved = List.exists on_x (atom_terms a) in
  if List.for_all is_const_term (atom_terms a) then
    match Reach.eval_atom a with
    | Ok b -> if b = pos then True else False
    | Error _ -> if pos then False else True
  else
    match a with
    | Cls (c, t) -> norm_cls ?xcls ~pos ~x_involved c t
    | Eq (t, u) -> norm_eq ?xcls ~pos ~x_involved t u
    | B (s, t) -> norm_b ?xcls ~pos ~x_involved s t
    | D (i, t, u) -> norm_de ?xcls ~pos ~x_involved ~exact:false i t u
    | E (i, t, u) -> norm_de ?xcls ~pos ~x_involved ~exact:true i t u

and norm_cls ?xcls ~pos ~x_involved c t =
  let decide b = if b = pos then True else False in
  match (xcls, t) with
  | Some (x, cls), Base (Var v) when x_involved && v = x -> decide (c = cls)
  | Some (x, Traces), W_of (Var v) when v = x -> decide (c = Inputs)
  | Some (x, Traces), M_of (Var v) when v = x -> decide (c = Machines)
  | Some (x, _), t when mentions_x x t ->
    (* w(x)/m(x) for a non-trace x is ε, an input *)
    decide (c = Inputs)
  | _, W_of (Var _) -> decide (c = Inputs)
  | _, M_of (Var y) -> (
    (* m(y) is a machine iff y is a trace, ε (an input) otherwise *)
    match c with
    | Machines -> if pos then Atom (Cls (Traces, Base (Var y))) else Not (Atom (Cls (Traces, Base (Var y))))
    | Inputs -> if pos then Not (Atom (Cls (Traces, Base (Var y)))) else Atom (Cls (Traces, Base (Var y)))
    | Traces | Others -> decide false)
  | _, t -> if pos then Atom (Cls (c, t)) else Not (Atom (Cls (c, t)))

and norm_eq ?xcls ~pos ~x_involved t u =
  let decide b = if b = pos then True else False in
  if t = u then decide true
  else
    match xcls with
    | Some (x, cls) when x_involved ->
      let xt, other = if mentions_x x t then (t, u) else (u, t) in
      if mentions_x x other then begin
        match cls with
        | Traces ->
          (* two different x-shapes: a trace, its input and its machine lie
             in pairwise disjoint classes *)
          decide false
        | Machines | Inputs | Others ->
          (* w(x) and m(x) are both ε for a non-trace x, so the two shapes
             can coincide — ε-normalize and renormalize (the recursion
             terminates: no w/m application on x survives) *)
          let eps = function
            | (W_of (Var v) | M_of (Var v)) when v = x -> Base (Const "")
            | t -> t
          in
          norm ?xcls ~pos (Eq (eps xt, eps other))
      end
      else begin
        (* For a non-trace class, w(x)/m(x) were ground-normalized... they
           were not: do it here — they equal ε. *)
        let xt =
          match (cls, xt) with
          | (Machines | Inputs | Others), (W_of _ | M_of _) -> Base (Const "")
          | _ -> xt
        in
        if not (mentions_x x xt) then norm ?xcls ~pos (Eq (xt, other))
        else
          let xclass =
            match xt with Base _ -> cls | W_of _ -> Inputs | M_of _ -> Machines
          in
          if not (List.mem xclass (possible_classes other)) then decide false
          else if pos then Atom (Eq (xt, other))
          else Not (Atom (Eq (xt, other)))
      end
    | _ -> (
      let pt = possible_classes t and pu = possible_classes u in
      if not (List.exists (fun c -> List.mem c pu) pt) then decide false
      else
        match (t, u) with
        | W_of a, M_of b | M_of b, W_of a ->
          (* equal only when both sides are ε: b is not a trace, w(a) = ε *)
          let f =
            And
              ( Not (Atom (Cls (Traces, Base b))),
                norm ~pos:true (Eq (W_of a, Base (Const ""))) )
          in
          if pos then f else neg_qf f
        | _ -> if pos then Atom (Eq (t, u)) else Not (Atom (Eq (t, u))))

and norm_b ?xcls ~pos ~x_involved:_ s t =
  let decide b = if b = pos then True else False in
  match (xcls, t) with
  | Some (x, Inputs), Base (Var v) when v = x -> norm_b_expand ~pos s t
  | Some (x, Traces), W_of (Var v) when v = x -> norm_b_expand ~pos s t
  | Some (x, (Machines | Inputs | Others)), (W_of (Var v) | M_of (Var v)) when v = x ->
    (* w(x)/m(x) = ε for non-traces *)
    norm ?xcls ~pos (B (s, Base (Const "")))
  | Some (x, _), t when mentions_x x t -> decide false
  | _, M_of (Var y) ->
    (* m(y) is an input only when ε *)
    if Reach.b_holds s "" then
      if pos then Not (Atom (Cls (Traces, Base (Var y))))
      else Atom (Cls (Traces, Base (Var y)))
    else decide false
  | _, (Base (Var _) | W_of (Var _)) ->
    if pos then Atom (B (s, t)) else Not (Atom (B (s, t)))
  | _, t -> if pos then Atom (B (s, t)) else Not (Atom (B (s, t)))

and norm_b_expand ~pos s t =
  if pos then Atom (B (s, t))
  else
    (* an input satisfies exactly one B per length *)
    disj
      (List.filter_map
         (fun s' -> if s' = s then None else Some (Atom (B (s', t))))
         (words_of_length (String.length s)))

and norm_de ?xcls ~pos ~x_involved ~exact i t u =
  let mk i t u = if exact then E (i, t, u) else D (i, t, u) in
  if not pos then begin
    (* ¬D_i(t,u) ⟺ ¬M(t) ∨ ¬W(u) ∨ ⋁_{r<i} E_r(t,u);
       ¬E_j adds the D_{j+1} disjunct. *)
    let not_machine = norm ?xcls ~pos:false (Cls (Machines, t)) in
    let not_input = norm ?xcls ~pos:false (Cls (Inputs, u)) in
    let smaller = List.init (i - 1) (fun r -> norm ?xcls ~pos:true (E (r + 1, t, u))) in
    let extra = if exact then [ norm ?xcls ~pos:true (D (i + 1, t, u)) ] else [] in
    disj ((not_machine :: not_input :: smaller) @ extra)
  end
  else begin
    (* normalize ε-valued w/m applications of a non-trace x first *)
    let fix_eps tt =
      match (xcls, tt) with
      | Some (x, (Machines | Inputs | Others)), (W_of (Var v) | M_of (Var v)) when v = x ->
        Base (Const "")
      | _ -> tt
    in
    let t = ground_term (fix_eps t) and u = ground_term (fix_eps u) in
    (* machine-side static falsities *)
    match t with
    | W_of _ -> False
    | Base (Const c) when not (Word.is_machine_shaped c) -> False
    | _ -> (
      (* the machine side involving x must be Base x (class M) or m(x)
         (class T) *)
      let machine_side_ok =
        match (xcls, t) with
        | Some (x, cls), tt when mentions_x x tt -> (
          match (cls, tt) with
          | Machines, Base (Var _) -> true
          | Traces, M_of (Var _) -> true
          | _ -> false)
        | _ -> true
      in
      if not machine_side_ok then False
      else
        match u with
        | M_of y ->
          And
            ( norm ?xcls ~pos:false (Cls (Traces, Base y)),
              norm ?xcls ~pos:true (mk i t (Base (Const ""))) )
        | Base (Const c) when not (Word.is_input c) -> False
        | Base (Const _) -> (
          match (xcls, u) with
          | Some (x, cls), uu when mentions_x x uu -> (
            ignore cls;
            ignore x;
            Atom (mk i t u))
          | _ -> Atom (mk i t u))
        | Base (Var _) | W_of _ ->
          let input_on_x =
            match (xcls, u) with
            | Some (x, cls), uu when mentions_x x uu -> (
              match (cls, uu) with
              | Inputs, Base (Var _) -> true (* case W: canonical as-is *)
              | Traces, W_of (Var _) -> false (* must expand through B *)
              | _ -> false)
            | _ -> true (* x-free input argument: canonical *)
          in
          if x_involved && not input_on_x then
            (* D_i depends only on the first i tape cells: expand the input
               argument over all padded prefixes of length i *)
            disj
              (List.map
                 (fun v ->
                   And
                     ( norm ?xcls ~pos:true (B (v, u)),
                       norm ?xcls ~pos:true (mk i t (Base (Const v))) ))
                 (words_of_length i))
          else if x_involved && (match t with Base (Var _) | M_of _ -> (match xcls with Some (x, _) -> mentions_x x t | None -> false) | _ -> false)
          then
            (* machine side on x but input non-constant: same expansion *)
            disj
              (List.map
                 (fun v ->
                   And
                     ( norm ?xcls ~pos:true (B (v, u)),
                       norm ?xcls ~pos:true (mk i t (Base (Const v))) ))
                 (words_of_length i))
          else Atom (mk i t u))
  end

(* Re-normalize every literal of a quantifier-free formula statically
   (after a substitution, say). *)
let rec renorm f =
  match f with
  | True | False -> f
  | Atom a -> norm ~pos:true a
  | Not (Atom a) -> norm ~pos:false a
  | Not g -> Reach.simplify_bool (Not (renorm g))
  | And (g, h) -> Reach.simplify_bool (And (renorm g, renorm h))
  | Or (g, h) -> Reach.simplify_bool (Or (renorm g, renorm h))
  | Exists (v, g) -> Exists (v, renorm g)
  | Forall (v, g) -> Forall (v, renorm g)

(* ------------------------------------------------------------------ *)
(* Per-class clause elimination                                        *)
(*                                                                     *)
(* Each function receives the x-literals of one DNF clause (canonical   *)
(* for its class) and the x-free literals [rest], and returns a         *)
(* quantifier-free formula equivalent to ∃x∈class. clause.              *)
(* ------------------------------------------------------------------ *)

exception Not_canonical of string

let not_canonical lit =
  raise (Not_canonical (Reach.to_string lit))

(* Substitute an arbitrary x-free term for Base-x occurrences; only legal
   when x never occurs under w/m (classes M, W, O after normalization). *)
let subst_flat x t f =
  let sub_term = function
    | Base (Var v) when v = x -> t
    | (W_of (Var v) | M_of (Var v)) when v = x ->
      raise (Not_canonical "w/m applied to a non-trace variable")
    | tt -> tt
  in
  let rec go f =
    match f with
    | True | False -> f
    | Atom a -> Atom (map_atom_terms sub_term a)
    | Not g -> Not (go g)
    | And (g, h) -> And (go g, go h)
    | Or (g, h) -> Or (go g, go h)
    | Exists _ | Forall _ -> invalid_arg "subst_flat: quantifier"
  in
  go f

let cls_formula c t = norm ~pos:true (Cls (c, t))

(* Lemma A.2: satisfiability of a D/E system on one machine with constant
   input words. *)
let system_satisfiable ds es =
  Builder.satisfiable
    (List.map (fun (i, w) -> Builder.At_least (w, i)) ds
    @ List.map (fun (j, w) -> Builder.Exactly (w, j)) es)

(* Find a positive equality Base x = t among the literals. *)
let find_x_eq x lits =
  let rec go seen = function
    | [] -> None
    | (Atom (Eq (t, u)) as lit) :: rest -> (
      let xt, other = if mentions_x x t then (t, u) else (u, t) in
      match xt with
      | Base (Var v) when v = x && not (mentions_x x other) ->
        Some (other, List.rev_append seen rest)
      | _ -> go (lit :: seen) rest)
    | lit :: rest -> go (lit :: seen) rest
  in
  go [] lits

(* --------------------------- Case M -------------------------------- *)

let eliminate_machine x xlits rest =
  match find_x_eq x xlits with
  | Some (t, others) ->
    renorm (conj (cls_formula Machines t :: subst_flat x t (conj others) :: rest))
  | None ->
    let ds = ref [] and es = ref [] in
    List.iter
      (fun lit ->
        match lit with
        | Not (Atom (Eq _)) -> () (* disequalities never block: infinitely
                                     many equivalent machine encodings *)
        | Atom (D (i, Base (Var v), Base (Const c))) when v = x -> ds := (i, c) :: !ds
        | Atom (E (i, Base (Var v), Base (Const c))) when v = x -> es := (i, c) :: !es
        | lit -> not_canonical lit)
      xlits;
    if system_satisfiable !ds !es then conj rest else False

(* --------------------------- Case W -------------------------------- *)

let eliminate_input x xlits rest =
  match find_x_eq x xlits with
  | Some (t, others) ->
    renorm (conj (cls_formula Inputs t :: subst_flat x t (conj others) :: rest))
  | None ->
    (* collect B-prefixes, D/E constraints D_i(t, x); disequalities drop
       (each padded-prefix class of inputs is infinite) *)
    let bs = ref [] and des = ref [] in
    List.iter
      (fun lit ->
        match lit with
        | Not (Atom (Eq _)) -> ()
        | Atom (B (s, Base (Var v))) when v = x -> bs := s :: !bs
        | Atom (D (i, t, Base (Var v))) when v = x && not (mentions_x x t) ->
          des := (`D, i, t) :: !des
        | Atom (E (i, t, Base (Var v))) when v = x && not (mentions_x x t) ->
          des := (`E, i, t) :: !des
        | lit -> not_canonical lit)
      xlits;
    let bound =
      List.fold_left max 1
        (List.map String.length !bs @ List.map (fun (_, i, _) -> i) !des)
    in
    (* a witness input, if any, exists in some padded-prefix class of
       length [bound]; every such class is infinite and all its members
       agree on every B/D/E literal above *)
    let case_of p =
      let b_ok = List.for_all (fun s -> Reach.b_holds s p) !bs in
      if not b_ok then False
      else
        conj
          (List.map
             (fun (kind, i, t) ->
               let a = match kind with `D -> D (i, t, Base (Const p)) | `E -> E (i, t, Base (Const p)) in
               norm ~pos:true a)
             !des)
    in
    let cases =
      List.map
        (fun p ->
          Budget.tick_ambient ();
          Fault.hit "qe.reach";
          Telemetry.count "qe.reach.steps";
          case_of p)
        (words_of_length bound)
    in
    Reach.simplify_bool (conj (disj cases :: rest))

(* --------------------------- Case O -------------------------------- *)

let eliminate_other x xlits rest =
  match find_x_eq x xlits with
  | Some (t, others) ->
    renorm (conj (cls_formula Others t :: subst_flat x t (conj others) :: rest))
  | None ->
    (* only disequalities can mention x; class O is infinite *)
    List.iter
      (fun lit -> match lit with Not (Atom (Eq _)) -> () | lit -> not_canonical lit)
      xlits;
    conj rest

(* --------------------------- Case T -------------------------------- *)

(* Substitute a base for x under w/m as well (class T). *)
let subst_trace x b f = Reach.subst_base x b f

let rec subsets = function
  | [] -> [ ([], []) ]
  | x :: rest ->
    List.concat_map
      (fun (inside, outside) -> [ (x :: inside, outside); (inside, x :: outside) ])
      (subsets rest)

let rec partitions = function
  | [] -> [ [] ]
  | x :: rest ->
    List.concat_map
      (fun parts ->
        ([ x ] :: parts)
        :: List.mapi (fun i _ -> List.mapi (fun j g -> if i = j then x :: g else g) parts) parts)
      (partitions rest)

let eliminate_trace x xlits rest =
  match find_x_eq x xlits with
  | Some (t, others) -> (
    (* x = t: t must be a base (other shapes are class-infeasible and were
       normalized to False) *)
    match t with
    | Base b ->
      renorm (conj (cls_formula Traces t :: subst_trace x b (conj others) :: rest))
    | W_of _ | M_of _ -> False)
  | None ->
    (* collect the canonical shapes of the Appendix's display (2)-(7) *)
    let m_eq = ref [] and m_ne = ref [] and w_eq = ref [] and w_ne = ref [] in
    let bs = ref [] and ds = ref [] and es = ref [] and x_ne = ref [] in
    List.iter
      (fun lit ->
        match lit with
        | Not (Atom (Eq (t, u))) -> (
          let xt, other = if mentions_x x t then (t, u) else (u, t) in
          match xt with
          | Base (Var v) when v = x -> x_ne := other :: !x_ne
          | M_of (Var v) when v = x -> m_ne := other :: !m_ne
          | W_of (Var v) when v = x -> w_ne := other :: !w_ne
          | _ -> not_canonical lit)
        | Atom (Eq (t, u)) -> (
          let xt, other = if mentions_x x t then (t, u) else (u, t) in
          match xt with
          | M_of (Var v) when v = x -> m_eq := other :: !m_eq
          | W_of (Var v) when v = x -> w_eq := other :: !w_eq
          | _ -> not_canonical lit)
        | Atom (B (s, W_of (Var v))) when v = x -> bs := s :: !bs
        | Atom (D (i, M_of (Var v), Base (Const c))) when v = x -> ds := (i, c) :: !ds
        | Atom (E (i, M_of (Var v), Base (Const c))) when v = x -> es := (i, c) :: !es
        | lit -> not_canonical lit)
      xlits;
    (* multiple m(x)= / w(x)= equalities reduce to one plus x-free links *)
    let pick = function [] -> None | t :: _ -> Some t in
    let extra_links =
      (match !m_eq with
      | t :: more -> List.map (fun u -> norm ~pos:true (Eq (t, u))) more
      | [] -> [])
      @
      match !w_eq with
      | t :: more -> List.map (fun u -> norm ~pos:true (Eq (t, u))) more
      | [] -> []
    in
    let b_compatible =
      (* all B-prefixes pairwise agree on overlaps *)
      let rec pairs = function
        | [] -> true
        | s :: rest ->
          List.for_all
            (fun s' ->
              let n = min (String.length s) (String.length s') in
              let rec chk i = i >= n || (s.[i] = s'.[i] && chk (i + 1)) in
              chk 0)
            rest
          && pairs rest
      in
      pairs !bs
    in
    if not b_compatible then False
    else begin
      let de_system_ok = system_satisfiable !ds !es in
      match (pick !m_eq, pick !w_eq) with
      | None, None ->
        (* T-1: machine, input and trace word are all free; Lemma A.2
           decides the D/E system, everything else is satisfiable *)
        if de_system_ok then conj (extra_links @ rest) else False
      | Some t, None ->
        (* T-2: machine fixed to t; any machine has at least one trace on
           any input, so only the substituted x-free residue remains *)
        let subst_m = List.map (fun u -> norm ~pos:false (Eq (t, u))) !m_ne in
        let des =
          List.map (fun (i, c) -> norm ~pos:true (D (i, t, Base (Const c)))) !ds
          @ List.map (fun (i, c) -> norm ~pos:true (E (i, t, Base (Const c)))) !es
        in
        renorm (conj ((cls_formula Machines t :: extra_links) @ subst_m @ des @ rest))
      | None, Some v ->
        (* T-3: input fixed to v; machines remain free, so Lemma A.2
           decides the D/E system and w-constraints substitute *)
        if not de_system_ok then False
        else
          let subst_w =
            List.map (fun u -> norm ~pos:false (Eq (v, u))) !w_ne
            @ List.map (fun s -> norm ~pos:true (B (s, v))) !bs
          in
          renorm (conj ((cls_formula Inputs v :: extra_links) @ subst_w @ rest))
      | Some t, Some v ->
        let () = x_ne := List.sort_uniq compare !x_ne in
        (* T-4: both fixed; x ranges over traces of t in v avoiding the
           excluded terms p ∈ x_ne. Such an x exists iff t has strictly
           more traces in v than the number of distinct excluded values
           that are themselves traces of t in v. Expand over which
           excluded terms are such traces and over their equality
           pattern. *)
        let subst_m = List.map (fun u -> norm ~pos:false (Eq (t, u))) !m_ne in
        let subst_w =
          List.map (fun u -> norm ~pos:false (Eq (v, u))) !w_ne
          @ List.map (fun s -> norm ~pos:true (B (s, v))) !bs
        in
        let des =
          List.map (fun (i, c) -> norm ~pos:true (D (i, t, Base (Const c)))) !ds
          @ List.map (fun (i, c) -> norm ~pos:true (E (i, t, Base (Const c)))) !es
        in
        let is_trace_of p =
          conj
            [ norm ~pos:true (Cls (Traces, p));
              norm ~pos:true (Eq (Reach.apply_m p, t));
              norm ~pos:true (Eq (Reach.apply_w p, v)) ]
        in
        let not_trace_of p =
          disj
            [ norm ~pos:false (Cls (Traces, p));
              norm ~pos:false (Eq (Reach.apply_m p, t));
              norm ~pos:false (Eq (Reach.apply_w p, v)) ]
        in
        (* Fast path: when the machine, the input and an excluded term are
           all constants, whether that term is one of the traces of t in v
           is a ground fact — count it directly instead of expanding the
           subset/partition disjunction over it. This keeps the Section 1.1
           completeness checks (whose exclusions are all ground) linear. *)
        let ground_ok =
          match (t, v) with
          | Base (Const _), Base (Const _) -> true
          | _ -> false
        in
        let ground_excluded, symbolic =
          List.partition
            (fun p -> ground_ok && match p with Base (Const _) -> true | _ -> false)
            !x_ne
        in
        let ground_count =
          match (t, v) with
          | Base (Const tc), Base (Const vc) ->
            List.filter_map (function Base (Const pc) -> Some pc | _ -> None) ground_excluded
            |> List.sort_uniq compare
            |> List.filter (fun pc -> Trace.p_pred tc vc pc)
            |> List.length
          | _ -> 0
        in
        let ground_words =
          List.filter_map (function Base (Const pc) -> Some pc | _ -> None) ground_excluded
        in
        let counting =
          disj
            (List.concat_map
               (fun (inside, outside) ->
                 List.map
                   (fun parts ->
                     let eqs =
                       List.concat_map
                         (fun group ->
                           match group with
                           | [] -> []
                           | g0 :: grest ->
                             List.map (fun g -> norm ~pos:true (Eq (g0, g))) grest)
                         parts
                     in
                     let reps = List.filter_map (function [] -> None | g0 :: _ -> Some g0) parts in
                     let rec distinct = function
                       | [] -> []
                       | r :: rs ->
                         List.map (fun r' -> norm ~pos:false (Eq (r, r'))) rs @ distinct rs
                     in
                     (* symbolic representatives must not collide with the
                        directly-counted ground exclusions *)
                     let apart_from_ground =
                       List.concat_map
                         (fun r ->
                           List.map
                             (fun pg -> norm ~pos:false (Eq (r, Base (Const pg))))
                             ground_words)
                         reps
                     in
                     conj
                       (List.map is_trace_of inside
                       @ List.map not_trace_of outside
                       @ eqs @ distinct reps @ apart_from_ground
                       @ [ norm ~pos:true
                             (D (List.length parts + ground_count + 1, t, v)) ]))
                   (partitions inside))
               (subsets symbolic))
        in
        renorm
          (conj
             ((cls_formula Machines t :: cls_formula Inputs v :: extra_links)
             @ subst_m @ subst_w @ des @ [ counting ] @ rest))
    end

let _ = subsets (* used above *)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let rec eliminate_exists x g =
  let g = Reach.simplify_bool g in
  if not (List.mem x (Reach.free_vars g)) then g
  else begin
    let per_class cls eliminate =
      (* normalize under the class assumption, then DNF *)
      let normalized =
        renorm_with (Some (x, cls)) g
      in
      let clauses = Reach.dnf (Reach.nnf (Reach.simplify_bool normalized)) in
      disj
        (List.map
           (fun lits ->
             (* deduplicate literals and prune contradictory clauses: the
                DNF expansion repeats literals heavily, and the Case T-4
                expansion is exponential in the number of distinct
                disequalities *)
             Budget.tick_ambient ();
             Fault.hit "qe.reach";
             Telemetry.count "qe.reach.steps";
             let lits = List.sort_uniq compare lits in
             let contradictory =
               List.exists
                 (fun l -> match l with Not g -> List.mem g lits | _ -> false)
                 lits
             in
             if contradictory then False
             else
               let xlits, rest = List.partition (lit_mentions x) lits in
               eliminate x xlits rest)
           clauses)
    in
    Reach.simplify_bool
      (disj
         [ per_class Machines eliminate_machine;
           per_class Inputs eliminate_input;
           per_class Traces eliminate_trace;
           per_class Others eliminate_other ])
  end

and renorm_with xcls f =
  match f with
  | True | False -> f
  | Atom a -> norm ?xcls ~pos:true a
  | Not (Atom a) -> norm ?xcls ~pos:false a
  | Not g -> Reach.simplify_bool (Not (renorm_with xcls g))
  | And (g, h) -> Reach.simplify_bool (And (renorm_with xcls g, renorm_with xcls h))
  | Or (g, h) -> Reach.simplify_bool (Or (renorm_with xcls g, renorm_with xcls h))
  | Exists _ | Forall _ -> invalid_arg "renorm_with: quantifier"

let eliminate f =
  let rec go f =
    match Reach.nnf f with
    | (True | False | Atom _ | Not _) as f -> f
    | And (g, h) -> And (go g, go h)
    | Or (g, h) -> Or (go g, go h)
    | Exists (x, g) -> eliminate_exists x (go g)
    | Forall (x, g) -> neg_qf (eliminate_exists x (neg_qf (go g)))
  in
  Reach.simplify_bool (go (Reach.nnf f))

let decide f =
  Budget.protect (fun () ->
      Telemetry.with_span "qe.reach" @@ fun () ->
      if not (Reach.is_sentence f) then
        Error
          (Printf.sprintf "formula has free variables: %s"
             (String.concat ", " (Reach.free_vars f)))
      else
        match eliminate f with
        | qf -> Reach.eval_ground (renorm qf)
        | exception Not_canonical msg -> Error ("internal: non-canonical literal: " ^ msg))

let decide_formula f =
  Budget.protect (fun () -> Result.bind (Reach.of_formula f) (fun r -> decide r))
