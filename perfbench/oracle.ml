(* The workloads' inputs and their expected answers.

   Every answer is computed here without the engine under test: eval
   queries by walking adjacency lists of the generated graph, Presburger
   sentences from their construction (each shape's truth is a closed
   arithmetic condition on its constants). *)

open Finite_queries

(* A large answer is expected as a digest — its size and the sum of its
   rows' structural hashes — so the oracle's answers do not sit in the
   heap the measured engine collects. *)
type expect = Rows of Relation.t | Digest of { card : int; sum : int } | Truth of bool

let row_sum acc cells = (acc + Hashtbl.hash (cells : Value.t array)) land max_int

(* The formula is parsed only where an in-process path needs it; the
   served loads send the text. *)
type query = { text : string; formula : Formula.t Lazy.t; expect : expect }

let query text expect =
  let parse () =
    match Parser.formula text with
    | Ok f -> f
    | Error e -> failwith (Printf.sprintf "generated query %S does not parse: %s" text e)
  in
  { text; formula = Lazy.from_fun parse; expect }

(* [Ok ()] when an outcome is the complete expected answer from the
   tier the workload is defined by. *)
let check expect (o : Outcome.t) =
  match (o.Outcome.verdict, expect) with
  | Outcome.Complete { answer; tier = "ranf-algebra" }, Rows r ->
    if Relation.equal answer r then Ok () else Error "wrong answer"
  | Outcome.Complete { answer; tier = "ranf-algebra" }, Digest { card; sum } ->
    let got = Array.fold_left (fun acc r -> row_sum acc (Row.cells r)) 0 (Relation.rows answer) in
    if Relation.cardinal answer = card && got = sum then Ok () else Error "wrong answer"
  | Outcome.Complete { answer; tier = "enumerate" }, Truth b ->
    if Relation.arity answer = 0 && Relation.is_empty answer = not b then Ok ()
    else Error "wrong truth value"
  | Outcome.Complete { tier; _ }, _ -> Error ("answered by unexpected tier " ^ tier)
  | Outcome.Partial _, _ -> Error "partial answer"
  | Outcome.Failed { reason }, _ -> Error reason

(* ------------------------------ graphs ------------------------------ *)

type graph = {
  labels : string array;
  out : int list array;  (* successors *)
  inn : int list array;  (* predecessors *)
  edge : (int * int, unit) Hashtbl.t;
}

(* Every vertex gets [fan] distinct successors other than itself. *)
let graph rng ~vertices ~fan ~label =
  let out = Array.make vertices [] and inn = Array.make vertices [] in
  let edge = Hashtbl.create (vertices * fan) in
  for v = 0 to vertices - 1 do
    let k = ref 0 in
    while !k < fan do
      let w = Random.State.int rng vertices in
      if w <> v && not (Hashtbl.mem edge (v, w)) then begin
        Hashtbl.replace edge (v, w) ();
        out.(v) <- w :: out.(v);
        inn.(w) <- v :: inn.(w);
        incr k
      end
    done
  done;
  { labels = Array.init vertices label; out; inn; edge }

let vertices g = Array.length g.labels
let value g v = Value.str g.labels.(v)

let relation g =
  Relation.make ~arity:2
    (Hashtbl.fold (fun (v, w) () acc -> [ value g v; value g w ] :: acc) g.edge [])

let state g = State.make ~schema:(Schema.make [ ("F", 2) ]) [ ("F", relation g) ]

(* The state as a file fq serve --state-file and Codec.load_state read. *)
let write_state_file g path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Codec.relation_to_string "F" (relation g));
      output_char oc '\n')

(* Query shapes over the edge relation F.  The first three are anchored
   at a vertex constant (the interactive shapes); the rest read the
   whole relation. *)
type shape = Select | Hop2 | Guarded | Hop2_all | Anti_join | Triangle | Union

let anchored = [| Select; Hop2; Guarded |]
let whole = [| Hop2_all; Anti_join; Triangle; Union |]

let shape_text g shape k =
  let c = g.labels.(k) in
  match shape with
  | Select -> Printf.sprintf {|F(x, "%s")|} c
  | Hop2 -> Printf.sprintf {|exists y. F("%s", y) /\ F(y, z)|} c
  | Guarded -> Printf.sprintf {|F(x, y) /\ y = "%s" /\ ~F(y, x)|} c
  | Hop2_all -> {|exists y. F(x, y) /\ F(y, z)|}
  | Anti_join -> {|F(x, y) /\ ~F(y, x)|}
  | Triangle -> {|exists z. F(x, y) /\ F(y, z) /\ F(z, x)|}
  | Union -> {|F(x, y) \/ F(y, x)|}

(* The answer by direct evaluation over the adjacency lists. *)
let shape_expect g shape k =
  let mem x y = Hashtbl.mem g.edge (x, y) in
  let set = Hashtbl.create 1024 in
  let add row = Hashtbl.replace set row () in
  let edges f = Hashtbl.iter (fun (x, y) () -> f x y) g.edge in
  (match shape with
  | Select -> List.iter (fun x -> add [ x ]) g.inn.(k)
  | Hop2 -> List.iter (fun y -> List.iter (fun z -> add [ z ]) g.out.(y)) g.out.(k)
  | Guarded -> List.iter (fun x -> if not (mem k x) then add [ x; k ]) g.inn.(k)
  | Hop2_all -> edges (fun x y -> List.iter (fun z -> add [ x; z ]) g.out.(y))
  | Anti_join -> edges (fun x y -> if not (mem y x) then add [ x; y ])
  | Triangle -> edges (fun x y -> if List.exists (fun z -> mem z x) g.out.(y) then add [ x; y ])
  | Union ->
    edges (fun x y ->
        add [ x; y ];
        add [ y; x ]));
  let values row = List.map (value g) row in
  if Array.mem shape whole then
    Digest
      { card = Hashtbl.length set;
        sum = Hashtbl.fold (fun row () acc -> row_sum acc (Array.of_list (values row))) set 0 }
  else
    let arity = match shape with Select | Hop2 -> 1 | _ -> 2 in
    Rows (Relation.make ~arity (Hashtbl.fold (fun row () acc -> values row :: acc) set []))

let graph_query g shape k = query (shape_text g shape k) (shape_expect g shape k)

(* ----------------------- Presburger sentences ----------------------- *)

(* Sentence [n] of shape [shape] with constants offset by [base]; distinct
   (shape, n) pairs give distinct sentences, none with a coefficient that
   grows with n, so quantifier elimination stays bounded. *)
let sentence ~base shape n =
  let k = base + n in
  let text, truth =
    match shape mod 6 with
    | 0 -> (Printf.sprintf {|forall x. exists y. x < y /\ y < x + %d|} k, k >= 2)
    | 1 ->
      let d = n mod 3 in
      (Printf.sprintf {|exists x. %d < x /\ x < %d|} k (k + d), d >= 2)
    | 2 -> (Printf.sprintf {|forall x. x < %d \/ %d < x|} k (k + (n mod 5)), false)
    | 3 ->
      let d = n mod 4 in
      (Printf.sprintf {|exists x y. x + y = %d /\ x = y + %d|} k d, k >= d && (k - d) mod 2 = 0)
    | 4 -> (Printf.sprintf {|exists x. x + x = %d|} k, k mod 2 = 0)
    | _ -> (Printf.sprintf {|forall x. exists y. x + %d < y|} k, true)
  in
  query text (Truth truth)

(* The [j]th sentence of a family: shapes round-robin, constants unique. *)
let nth_sentence ~base j = sentence ~base (j mod 6) (j / 6)
