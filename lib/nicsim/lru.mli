(** Bounded LRU map used by flow-cache tables (§3.2.2: "Pipeleon reserves
    a fixed budget for each cache and adopts LRU eviction"). *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity <= 0]. *)

val capacity : 'a t -> int
val length : 'a t -> int

val find : 'a t -> string -> 'a option
(** Refreshes recency on hit. *)

val mem : 'a t -> string -> bool
(** Does not refresh recency. *)

val put : 'a t -> string -> 'a -> string option
(** Insert or overwrite; returns the evicted key if the capacity bound
    forced one out. *)

val remove : 'a t -> string -> unit
val clear : 'a t -> unit
val iter : (string -> 'a -> unit) -> 'a t -> unit

