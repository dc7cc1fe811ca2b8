(** Growable append-only array with O(appended) rollback via
    {!truncate}. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [dummy] fills unused capacity (avoids [Obj.magic]). *)

val length : 'a t -> int
val get : 'a t -> int -> 'a

val set : 'a t -> int -> 'a -> unit
(** Overwrite an existing element in place ([0 <= i < length]). *)

val push : 'a t -> 'a -> unit

val truncate : 'a t -> int -> unit
(** Drop every element at index >= the given length. *)

val iter : 'a t -> ('a -> unit) -> unit
val iter_from : 'a t -> from:int -> ('a -> unit) -> unit

val to_list : 'a t -> 'a list

val to_array : 'a t -> 'a array
(** Elements [\[0, length)] as a fresh array. *)

val clear : 'a t -> unit
(** Drop all elements; capacity is kept for reuse. *)
