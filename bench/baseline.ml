(* The pre-fast-path table engine, kept verbatim (modulo
   trimming of control-plane operations the benchmark never calls) as the
   "before" comparator for `main.exe perf`. This is benchmark scaffolding
   only — the simulator proper uses Nicsim.Engine.

   Characteristics being measured against:
   - lookups build a fresh string key per probed group (Buffer +
     List.combine allocation on the hot path);
   - shape groups live in a list that is fully rebuilt and re-sorted on
     every insert. *)

type shape_elem =
  | S_exact
  | S_prefix of int
  | S_mask of int64

type group = {
  shape : shape_elem list;
  total_prefix : int;
  max_priority : int;
  tbl : (string, P4ir.Table.entry) Hashtbl.t;
}

type backend =
  | Exact_hash of (string, P4ir.Table.entry) Hashtbl.t
  | Shaped of { mutable groups : group list; lpm_ordered : bool }

type t = { table : P4ir.Table.t; backend : backend }

let key_fields (tab : P4ir.Table.t) = List.map (fun (k : P4ir.Table.key) -> k.field) tab.keys

let all_exact (tab : P4ir.Table.t) =
  List.for_all
    (fun (k : P4ir.Table.key) -> P4ir.Match_kind.equal k.kind P4ir.Match_kind.Exact)
    tab.keys

let exact_key_of_entry (e : P4ir.Table.entry) =
  let buf = Buffer.create 32 in
  List.iter
    (fun p ->
      match p with
      | P4ir.Pattern.Exact v ->
        Buffer.add_int64_le buf v;
        Buffer.add_char buf '|'
      | _ -> invalid_arg "Baseline: non-exact pattern in exact table")
    e.patterns;
  Buffer.contents buf

let shape_of_pattern (p : P4ir.Pattern.t) =
  match p with
  | P4ir.Pattern.Exact _ -> S_exact
  | P4ir.Pattern.Lpm (_, len) -> S_prefix len
  | P4ir.Pattern.Ternary (_, mask) -> S_mask mask
  | P4ir.Pattern.Range _ -> invalid_arg "Baseline: range pattern unsupported"

let mask_of_shape (k : P4ir.Table.key) = function
  | S_exact -> P4ir.Value.truncate ~width:(P4ir.Field.width k.field) Int64.minus_one
  | S_prefix len -> P4ir.Value.prefix_mask ~width:(P4ir.Field.width k.field) ~prefix_len:len
  | S_mask m -> m

let masked_key (tab : P4ir.Table.t) shape values =
  let buf = Buffer.create 32 in
  List.iter2
    (fun (k, s) v ->
      Buffer.add_int64_le buf (Int64.logand v (mask_of_shape k s));
      Buffer.add_char buf '|')
    (List.combine tab.keys shape)
    values;
  Buffer.contents buf

let entry_values (e : P4ir.Table.entry) =
  List.map
    (fun (p : P4ir.Pattern.t) ->
      match p with
      | P4ir.Pattern.Exact v | P4ir.Pattern.Lpm (v, _) | P4ir.Pattern.Ternary (v, _) -> v
      | P4ir.Pattern.Range (lo, _) -> lo)
    e.patterns

let shape_of_entry (e : P4ir.Table.entry) = List.map shape_of_pattern e.patterns

let total_prefix_of_shape shape =
  List.fold_left
    (fun acc s ->
      acc + match s with S_exact -> 64 | S_prefix len -> len | S_mask _ -> 0)
    0 shape

let sort_groups lpm_ordered groups =
  if lpm_ordered then
    List.sort (fun a b -> compare b.total_prefix a.total_prefix) groups
  else groups

let hash_keep tbl key (e : P4ir.Table.entry) =
  match Hashtbl.find_opt tbl key with
  | Some (old : P4ir.Table.entry) when old.priority >= e.priority -> ()
  | _ -> Hashtbl.replace tbl key e

(* The old insert: rebuild and re-sort the whole group list every time. *)
let shaped_insert st ~lpm_ordered (tab : P4ir.Table.t) (e : P4ir.Table.entry) =
  let shape = shape_of_entry e in
  let key = masked_key tab shape (entry_values e) in
  match List.find_opt (fun g -> g.shape = shape) st with
  | Some g ->
    hash_keep g.tbl key e;
    sort_groups lpm_ordered
      (List.map
         (fun g' ->
           if g'.shape = shape then { g' with max_priority = max g'.max_priority e.priority }
           else g')
         st)
  | None ->
    let tbl = Hashtbl.create 64 in
    Hashtbl.replace tbl key e;
    sort_groups lpm_ordered
      ({ shape; total_prefix = total_prefix_of_shape shape; max_priority = e.priority; tbl }
       :: st)

let create (tab : P4ir.Table.t) =
  let backend =
    if all_exact tab then begin
      let h = Hashtbl.create (max 64 (List.length tab.entries)) in
      List.iter (fun e -> hash_keep h (exact_key_of_entry e) e) tab.entries;
      Exact_hash h
    end
    else begin
      let lpm_ordered =
        P4ir.Match_kind.equal (P4ir.Table.effective_kind tab) P4ir.Match_kind.Lpm
      in
      let groups =
        List.fold_left (fun st e -> shaped_insert st ~lpm_ordered tab e) [] tab.entries
      in
      Shaped { groups; lpm_ordered }
    end
  in
  { table = tab; backend }

let insert t e =
  match t.backend with
  | Exact_hash h -> Hashtbl.replace h (exact_key_of_entry e) e
  | Shaped s -> s.groups <- shaped_insert s.groups ~lpm_ordered:s.lpm_ordered t.table e

let packet_values t pkt = List.map (Nicsim.Packet.get pkt) (key_fields t.table)

let exact_key_of_values values =
  let buf = Buffer.create 32 in
  List.iter
    (fun v ->
      Buffer.add_int64_le buf v;
      Buffer.add_char buf '|')
    values;
  Buffer.contents buf

let lookup t pkt =
  match t.backend with
  | Exact_hash h ->
    let key = exact_key_of_values (packet_values t pkt) in
    (Hashtbl.find_opt h key, 1)
  | Shaped { groups; lpm_ordered } ->
    let values = packet_values t pkt in
    if lpm_ordered then
      let rec probe accesses = function
        | [] -> (None, max 1 accesses)
        | g :: rest -> (
          let key = masked_key t.table g.shape values in
          match Hashtbl.find_opt g.tbl key with
          | Some e -> (Some e, accesses + 1)
          | None -> probe (accesses + 1) rest)
      in
      probe 0 groups
    else begin
      let best = ref None in
      let accesses = ref 0 in
      List.iter
        (fun g ->
          incr accesses;
          let key = masked_key t.table g.shape values in
          match Hashtbl.find_opt g.tbl key with
          | Some e -> (
            match !best with
            | Some (b : P4ir.Table.entry) when b.priority >= e.priority -> ()
            | _ -> best := Some e)
          | None -> ())
        groups;
      (!best, max 1 !accesses)
    end
