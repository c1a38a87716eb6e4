(* Classic hashtable + doubly-linked recency list. *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type 'a t = {
  cap : int;
  table : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;  (* most recent *)
  mutable tail : 'a node option;  (* least recent *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  { cap = capacity; table = Hashtbl.create (min capacity 1024); head = None; tail = None }

let capacity t = t.cap
let length t = Hashtbl.length t.table

let unlink t node =
  (match node.prev with Some p -> p.next <- node.next | None -> t.head <- node.next);
  (match node.next with Some n -> n.prev <- node.prev | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let find t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some node ->
    unlink t node;
    push_front t node;
    Some node.value

let mem t key = Hashtbl.mem t.table key

let remove t key =
  match Hashtbl.find_opt t.table key with
  | None -> ()
  | Some node ->
    unlink t node;
    Hashtbl.remove t.table key

let put t key value =
  match Hashtbl.find_opt t.table key with
  | Some node ->
    node.value <- value;
    unlink t node;
    push_front t node;
    None
  | None ->
    let node = { key; value; prev = None; next = None } in
    Hashtbl.add t.table key node;
    push_front t node;
    if Hashtbl.length t.table > t.cap then begin
      match t.tail with
      | Some victim ->
        unlink t victim;
        Hashtbl.remove t.table victim.key;
        Some victim.key
      | None -> None
    end
    else None

let clear t =
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None

let iter f t = Hashtbl.iter (fun k node -> f k node.value) t.table
