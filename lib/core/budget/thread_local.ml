(* Each domain keeps a table from thread id to that thread's cell, plus
   [last], the cell of the most recent lookup.  Only the owning thread
   writes a cell's value, and [last] is replaced with one word write, so
   the fast path needs no lock: a thread that reads [last] and finds its
   own descriptor there holds its own cell.

   A thread's cell enters the table when a [with_value] scope opens and
   leaves it when a scope exit restores the default; a thread that only
   reads gets an unregistered cell holding the default.  So a thread
   that ends outside every scope leaves nothing behind.  [bound] counts
   the registered cells: while it is 0 every thread reads the default,
   and [get] skips the lookup. *)

module Tbl = Hashtbl.Make (Int)

type 'a cell = { owner : Thread.t; mutable value : 'a }

type 'a slots = { lock : Mutex.t; cells : 'a cell Tbl.t; mutable last : 'a cell }

type 'a key = {
  default : 'a;
  slots : 'a slots Domain.DLS.key;
  bound : int Atomic.t;  (* cells in the tables of all domains *)
}

let new_key default =
  { default;
    bound = Atomic.make 0;
    slots =
      Domain.DLS.new_key (fun () ->
          { lock = Mutex.create ();
            cells = Tbl.create 8;
            last = { owner = Thread.self (); value = default } })
  }

let miss k s me =
  let c =
    match Mutex.protect s.lock (fun () -> Tbl.find_opt s.cells (Thread.id me)) with
    | Some c -> c
    | None -> { owner = me; value = k.default }
  in
  s.last <- c;
  c.value

let get k =
  if Atomic.get k.bound = 0 then k.default
  else
    let s = Domain.DLS.get k.slots in
    let me = Thread.self () in
    let c = s.last in
    if c.owner == me then c.value else miss k s me

let with_value k v f =
  let s = Domain.DLS.get k.slots in
  let me = Thread.self () in
  let id = Thread.id me in
  let c =
    Mutex.protect s.lock (fun () ->
        match Tbl.find_opt s.cells id with
        | Some c -> c
        | None ->
          let c = { owner = me; value = k.default } in
          Tbl.replace s.cells id c;
          Atomic.incr k.bound;
          c)
  in
  s.last <- c;
  let saved = c.value in
  c.value <- v;
  Fun.protect f ~finally:(fun () ->
      c.value <- saved;
      Mutex.protect s.lock (fun () ->
          match (saved == k.default, Tbl.mem s.cells id) with
          | true, true -> Tbl.remove s.cells id; Atomic.decr k.bound
          | false, false -> Tbl.replace s.cells id c; Atomic.incr k.bound
          | _ -> ());
      s.last <- c)
