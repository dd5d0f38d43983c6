type t = {
  schema : Schema.t;
  relations : (string * Relation.t) list;
  constants : (string * Value.t) list;  (* names without the @ prefix *)
  (* One engine-private memo slot (the [exn] is an extensible carrier so
     this module stays ignorant of the engine's types): the columnar
     engine stores the state's dictionary-encoded image here, built once
     and reused by every evaluation over this state.  A single word,
     written atomically; racing builders both produce valid caches and
     last-write-wins. *)
  mutable memo : exn option;
}

let strip_at c =
  if String.length c > 0 && c.[0] = '@' then String.sub c 1 (String.length c - 1) else c

let check_relation schema (name, rel) =
  match Schema.arity schema name with
  | None -> invalid_arg (Printf.sprintf "State: relation %s is not in the scheme" name)
  | Some a when a <> Relation.arity rel ->
    invalid_arg
      (Printf.sprintf "State: relation %s has arity %d, scheme says %d" name
         (Relation.arity rel) a)
  | Some _ -> ()

let make ~schema ?(constants = []) relations =
  List.iter (check_relation schema) relations;
  let constants = List.map (fun (c, v) -> (strip_at c, v)) constants in
  List.iter
    (fun (c, _) ->
      if not (Schema.mem_constant schema c) then
        invalid_arg (Printf.sprintf "State: constant %s is not in the scheme" c))
    constants;
  List.iter
    (fun c ->
      if not (List.mem_assoc c constants) then
        invalid_arg (Printf.sprintf "State: scheme constant %s is uninterpreted" c))
    (Schema.constants schema);
  { schema; relations; constants; memo = None }

let schema st = st.schema
let memo st = st.memo
let set_memo st e = st.memo <- Some e

let relation st name =
  match List.assoc_opt name st.relations with
  | Some r -> r
  | None -> (
    match Schema.arity st.schema name with
    | Some a -> Relation.empty ~arity:a
    | None -> raise Not_found)

let constant st name = List.assoc (strip_at name) st.constants
let constants st = st.constants

let active_domain st =
  let from_relations =
    List.concat_map (fun (name, _) -> Relation.values (relation st name)) st.relations
  in
  let from_constants = List.map snd st.constants in
  List.sort_uniq Value.compare (from_relations @ from_constants)

let pp fmt st =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (name, _) -> Format.fprintf fmt "%s = %a@," name Relation.pp (relation st name))
    (Schema.relations st.schema);
  List.iter (fun (c, v) -> Format.fprintf fmt "@%s = %a@," c Value.pp v) st.constants;
  Format.fprintf fmt "@]"
