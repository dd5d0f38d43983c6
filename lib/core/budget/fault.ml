type action =
  | Trip of Budget.failure
  | Crash of string
  | Flaky of string

type rule =
  | At of { site : string; hits : int list; action : action }
  | Chaos of { sites : string list option; permille : int; actions : action array }

type plan = {
  seed : int;
  rules : rule list;
  counters : (string, int) Hashtbl.t;
  mutable log : (string * int * action) list; (* reversed *)
  lock : Mutex.t;
      (* a plan may be shared between worker domains; the counters and the
         log are the only mutable state, guarded here.  Decisions are pure,
         so the lock is held only around the counter bump and log push. *)
}

exception Injected of { site : string; hit : int; transient : bool; reason : string }

let plan ?(rules = []) ~seed () =
  { seed; rules; counters = Hashtbl.create 16; log = []; lock = Mutex.create () }

let default_actions =
  [ Trip Budget.Fuel_exhausted; Trip Budget.Deadline_exceeded; Crash "injected crash";
    Flaky "injected transient fault" ]

let chaos ?sites ?(permille = 20) ?(actions = default_actions) ~seed () =
  plan ~rules:[ Chaos { sites; permille; actions = Array.of_list actions } ] ~seed ()

(* The fire/no-fire decision and the action choice for the nth hit of a
   site are a pure hash of (seed, site, n): [Hashtbl.hash] is the
   non-seeded, deterministic structural hash, so a schedule replays
   identically across runs and is independent of what other sites did in
   between. *)
let decide_action p site n =
  let rec go = function
    | [] -> None
    | At { site = s; hits; action } :: rest ->
      if String.equal s site && List.mem n hits then Some action else go rest
    | Chaos { sites; permille; actions } :: rest ->
      let applies =
        (match sites with None -> true | Some l -> List.mem site l)
        && Array.length actions > 0
      in
      if applies then begin
        let h = Hashtbl.hash (p.seed, site, n) in
        if h mod 1000 < permille then Some actions.((h / 1000) mod Array.length actions)
        else go rest
      end
      else go rest
  in
  go p.rules

let active_key : plan option Thread_local.key = Thread_local.new_key None

let enabled () = Option.is_some (Thread_local.get active_key)

let with_plan p f = Thread_local.with_value active_key (Some p) f

let hit site =
  match Thread_local.get active_key with
  | None -> ()
  | Some p -> (
    Mutex.lock p.lock;
    let n = (match Hashtbl.find_opt p.counters site with Some n -> n | None -> 0) + 1 in
    Hashtbl.replace p.counters site n;
    let act = decide_action p site n in
    (match act with Some a -> p.log <- (site, n, a) :: p.log | None -> ());
    Mutex.unlock p.lock;
    match act with
    | None -> ()
    | Some a ->
      Telemetry.count "fault.injections";
      Telemetry.count ("fault.injections:" ^ site);
      (match a with
      | Trip fl -> raise (Budget.Exhausted fl)
      | Crash reason -> raise (Injected { site; hit = n; transient = false; reason })
      | Flaky reason -> raise (Injected { site; hit = n; transient = true; reason })))

let injections p =
  Mutex.lock p.lock;
  let l = List.rev p.log in
  Mutex.unlock p.lock;
  l

let injection_count p =
  Mutex.lock p.lock;
  let n = List.length p.log in
  Mutex.unlock p.lock;
  n

let transient_exn = function Injected { transient; _ } -> transient | _ -> false

let pp_action ppf = function
  | Trip fl -> Format.fprintf ppf "trip(%a)" Budget.pp_failure fl
  | Crash m -> Format.fprintf ppf "crash(%s)" m
  | Flaky m -> Format.fprintf ppf "flaky(%s)" m
