module Make (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  type key = K.t

  type 'a node = {
    key : key;
    mutable value : 'a;
    mutable prev : 'a node option;
    mutable next : 'a node option;
  }

  type 'a t = {
    table : 'a node H.t;
    mutable head : 'a node option;
    mutable tail : 'a node option;
    capacity : int; (* <= 0 means unbounded *)
    on_evict : key -> 'a -> unit;
    mutable evictions : int;
  }

  let create ?(on_evict = fun _ _ -> ()) capacity =
    { table = H.create 16; head = None; tail = None; capacity; on_evict; evictions = 0 }

  let length t = H.length t.table
  let evictions t = t.evictions

  let unlink t n =
    (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
    (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
    n.prev <- None;
    n.next <- None

  let push_front t n =
    n.next <- t.head;
    (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
    t.head <- Some n

  let touch t n =
    match t.head with
    | Some h when h == n -> ()
    | _ ->
      unlink t n;
      push_front t n

  let find t k =
    match H.find_opt t.table k with
    | Some n ->
      touch t n;
      Some n.value
    | None -> None

  let replace t k v =
    match H.find_opt t.table k with
    | Some n ->
      n.value <- v;
      touch t n;
      false
    | None ->
      let n = { key = k; value = v; prev = None; next = None } in
      H.add t.table k n;
      push_front t n;
      while t.capacity > 0 && H.length t.table > t.capacity do
        match t.tail with
        | None -> assert false (* length > 0 implies a tail *)
        | Some lru ->
          unlink t lru;
          H.remove t.table lru.key;
          t.evictions <- t.evictions + 1;
          t.on_evict lru.key lru.value
      done;
      true

  let fold f t init =
    let rec go acc = function None -> acc | Some n -> go (f n.key n.value acc) n.next in
    go init t.head
end
