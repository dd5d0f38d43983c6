type failure =
  | Fuel_exhausted
  | Deadline_exceeded
  | Oversize of int
  | Cancelled
  | Unsupported of string

exception Exhausted of failure

type t = {
  fuel_limit : int; (* max_int = unlimited *)
  deadline : float; (* absolute gettimeofday; infinity = none *)
  cancelled : unit -> bool;
  shared : bool; (* eligible to become the ambient budget under [guard] *)
  started : float;
  mutable spent : int;
  mutable yield_at : float; (* next slow check that offers the runtime lock *)
}

let never_cancelled () = false

let now () = Unix.gettimeofday ()

(* Tick clock: every budget advances it alongside its own [spent].  The
   telemetry layer reads it at span boundaries to attribute fuel to the
   innermost open span, whichever budget (ambient or unshared) was
   charged.  The clock is thread-local and runs only inside
   [with_tick_clock]: the supervised batch runner evaluates on a pool of
   domains and [fq serve] on worker seats that may be threads of one
   domain, and a shared counter would charge every worker's spans with
   the other workers' ticks. *)
let clock : int ref option Thread_local.key = Thread_local.new_key None

let global_ticks () = match Thread_local.get clock with Some r -> !r | None -> 0

let advance_clock n = match Thread_local.get clock with Some r -> r := !r + n | None -> ()

let with_tick_clock f =
  match Thread_local.get clock with
  | Some _ -> f ()
  | None -> Thread_local.with_value clock (Some (ref 0)) f

(* How often a busy evaluation offers the runtime lock; see [slow_check]. *)
let yield_interval = 0.001

let make ?fuel ?timeout_ms ?cancel () =
  let started = now () in
  {
    fuel_limit = Option.value fuel ~default:max_int;
    deadline =
      (match timeout_ms with
      | None -> infinity
      | Some ms -> started +. (float_of_int ms /. 1000.));
    cancelled = Option.value cancel ~default:never_cancelled;
    shared = true;
    started;
    spent = 0;
    yield_at = started +. yield_interval;
  }

let of_fuel ?(share = true) fuel =
  let b = make ~fuel () in
  if share then b else { b with shared = false }

(* Deadline and cancellation are polled only every [slow_mask + 1] ticks:
   a gettimeofday per checkpoint would dominate tight QE loops. *)
let slow_mask = 255

(* A slow check is also the evaluation's scheduling point: once the
   evaluation has run for [yield_interval], and at most that often, it
   offers the runtime lock to the other threads of its domain (a no-op
   when none waits).  OCaml switches threads on its own only every
   50 ms, which on [fq serve]'s thread seats would hold control ops, the
   watchdog and the other seats that long behind one busy evaluation. *)
let slow_check b =
  if b.cancelled () then raise (Exhausted Cancelled);
  let t = now () in
  if t > b.deadline then raise (Exhausted Deadline_exceeded);
  if t >= b.yield_at then begin
    b.yield_at <- t +. yield_interval;
    Thread.yield ()
  end

let tick b =
  let n = b.spent + 1 in
  b.spent <- n;
  advance_clock 1;
  if n > b.fuel_limit then raise (Exhausted Fuel_exhausted);
  if n land slow_mask = 0 && (b.deadline < infinity || b.cancelled != never_cancelled)
  then slow_check b

let charge b n =
  if n > 0 then begin
    b.spent <- b.spent + n;
    advance_clock n;
    if b.spent > b.fuel_limit then raise (Exhausted Fuel_exhausted);
    if b.deadline < infinity || b.cancelled != never_cancelled then slow_check b
  end

let unsupported msg = raise (Exhausted (Unsupported msg))

(* Ambient (dynamically-scoped) budget, so decision procedures behind the
   fixed [Domain.S.decide] signature can still checkpoint.  The slot is
   thread-local: with a shared slot, a [guard] in one worker would install
   its budget into every other worker's decision procedures (and the
   save/restore discipline would reinstate a foreign budget on exit). *)
let current : t option Thread_local.key = Thread_local.new_key None

let ambient () = Thread_local.get current

let tick_ambient () =
  match Thread_local.get current with
  | None -> ()
  | Some b -> tick b

let charge_ambient n =
  match Thread_local.get current with
  | None -> ()
  | Some b -> charge b n

let guard b f =
  let run () = match f () with v -> Ok v | exception Exhausted fl -> Error fl in
  if b.shared then Thread_local.with_value current (Some b) run else run ()

let pp_failure ppf = function
  | Fuel_exhausted -> Format.pp_print_string ppf "fuel exhausted"
  | Deadline_exceeded -> Format.pp_print_string ppf "deadline exceeded"
  | Oversize n -> Format.fprintf ppf "result size over %d" n
  | Cancelled -> Format.pp_print_string ppf "cancelled"
  | Unsupported msg -> Format.fprintf ppf "unsupported: %s" msg

let error_string = function
  | Fuel_exhausted -> "budget: fuel exhausted"
  | Deadline_exceeded -> "budget: deadline exceeded"
  | Oversize n -> Printf.sprintf "budget: result size over %d" n
  | Cancelled -> "budget: cancelled"
  | Unsupported msg -> "unsupported: " ^ msg

let failure_of_string s =
  let prefix p = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  let after p = String.sub s (String.length p) (String.length s - String.length p) in
  if s = "budget: fuel exhausted" then Some Fuel_exhausted
  else if s = "budget: deadline exceeded" then Some Deadline_exceeded
  else if s = "budget: cancelled" then Some Cancelled
  else if prefix "budget: result size over " then
    int_of_string_opt (after "budget: result size over ") |> Option.map (fun n -> Oversize n)
  else if prefix "unsupported: " then Some (Unsupported (after "unsupported: "))
  else None

let protect ?budget f =
  let run () = match f () with r -> r | exception Exhausted fl -> Error (error_string fl) in
  match budget with
  | None -> run ()
  | Some b -> (
    match guard b run with
    | Ok r -> r
    | Error fl -> Error (error_string fl))

type usage = { ticks : int; elapsed_ms : float }

let usage b = { ticks = b.spent; elapsed_ms = (now () -. b.started) *. 1000. }

let spent b = b.spent
