(** Byte arena with size-class free lists: length-prefixed blobs packed
    into a few large [Bytes] chunks, so retained state is opaque to the
    major GC (it marks a handful of unscanned blocks, not one boxed
    value per blob). Freed slots are reused by size class — footprint
    tracks the live set, not the allocation history. Single-owner; not
    thread-safe. *)

type slot
(** Handle to one stored blob. *)

type t

val create : ?chunk_bytes:int -> unit -> t
(** Fresh arena; chunks default to 1 MiB. *)

val store : t -> string -> slot
(** Copy [blob] into the arena (reusing a freed slot of the same size
    class when one exists) and return its handle. *)

val store_sub : t -> string -> off:int -> len:int -> slot
(** [store] of the [len] bytes of [src] starting at [off], without
    copying them out first. *)

val replace_sub : t -> slot -> string -> off:int -> len:int -> slot
(** [replace_sub t s src ~off ~len] overwrites a live slot with the
    [len] bytes of [src] starting at [off], in place when they fit its
    capacity — the common case for fixed-shape records — otherwise
    free + store. Returns the slot now holding the bytes. *)

val free : t -> slot -> unit
(** Return the slot to its size-class free list. Idempotent. *)

val read : t -> slot -> string
(** Copy the slot's bytes back out. *)

val live_bytes : t -> int
(** Total bytes across live slots. *)

val live_slots : t -> int

val capacity_bytes : t -> int
(** Total chunk bytes allocated from the OCaml heap. *)
