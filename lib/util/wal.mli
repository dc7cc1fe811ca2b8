(** Append-only write-ahead log: length-prefixed, CRC-framed,
    versioned records over an abstract byte sink.

    Frame layout (all integers little-endian):

    {v
      +----------+---------+------+-----------------+--------+
      | u32 plen | u8 ver  | u8 k | payload (plen)  | u32 crc|
      +----------+---------+------+-----------------+--------+
    v}

    [crc] is CRC-32 (IEEE) over the 6 header bytes and the payload, so
    any single-byte corruption of a complete frame is detected. A
    frame whose declared extent runs past the end of the log is a
    *torn tail* (a write interrupted by a crash): {!attach} truncates
    it in place and replays the surviving prefix. A complete frame
    with a CRC mismatch is *corruption* and replay refuses the log
    rather than mis-replaying it. *)

module Sink : sig
  (** Where the log bytes live. The WAL only ever appends, reads the
      whole contents back (at open), and truncates a torn tail. *)
  type t

  val memory : unit -> t
  (** Volatile in-process sink (tests, benches, crash simulation —
      the "disk" that survives a simulated tower kill). *)

  val file : string -> t
  (** File-backed sink; created empty if missing, appended otherwise. *)

  val size : t -> int
  val contents : t -> string
  val append : t -> string -> unit
  val truncate : t -> int -> unit
  (** Keep only the first [n] bytes. *)

  val flush : t -> unit
  val close : t -> unit
end

type record = { kind : int; payload : string }

type status =
  | Complete  (** every frame decoded *)
  | Torn of int  (** a torn tail of this many bytes was dropped *)

type error =
  | Bad_version of { offset : int; version : int }
  | Corrupt of { offset : int }
      (** complete frame whose CRC does not match *)

val error_to_string : error -> string

val version : int
(** Frame format version written by {!append}. *)

val frame_overhead : int
(** Framing bytes added per record (header + CRC). *)

val decode : string -> (record list * status, error) result
(** Pure frame decoder over raw log bytes: records oldest-first plus
    whether a torn tail was dropped. Never truncates anything. *)

type t
(** An open log handle over a sink. *)

val attach : Sink.t -> (t * record list * status, error) result
(** Open a WAL over a sink: decode existing frames, truncate a torn
    tail in place, and return the surviving records oldest-first. *)

val append : t -> kind:int -> string -> unit
(** Frame and append one record, then flush the sink — the record is
    durable when [append] returns. *)

val reset : t -> unit
(** Truncate the log to empty (the snapshot just superseded it). *)

val size : t -> int
(** Current log size in bytes. *)

val appended_bytes : t -> int
(** Bytes appended through this handle (WAL-overhead accounting;
    survives {!reset}). *)

val sink : t -> Sink.t
