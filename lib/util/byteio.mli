(** Byte-oriented serialization: a growable writer and a cursor reader,
    with Bitcoin-style little-endian integers and CompactSize varints. *)

module Writer : sig
  type t

  val create : unit -> t
  val contents : t -> string
  val length : t -> int

  val byte : t -> int -> unit
  (** Append the low 8 bits of the argument. *)

  val string : t -> string -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val u64 : t -> int64 -> unit

  val varint : t -> int -> unit
  (** Bitcoin CompactSize encoding.
      @raise Invalid_argument on negative values. *)

  val var_string : t -> string -> unit
  (** Varint length prefix followed by the raw bytes. *)

  val with_scratch : (t -> 'a) -> 'a
  (** [with_scratch f] runs [f] with a cleared writer borrowed from a
      domain-local arena instead of a fresh allocation; the writer is
      recycled when [f] returns and must not escape it. Borrows nest
      safely. *)
end

module Reader : sig
  type t

  exception Truncated
  (** Raised by every reading function on insufficient input. *)

  exception Malformed of string
  (** Raised on input no writer produces: a negative length, or a
      varint that is not in its shortest form or does not fit a
      non-negative [int]. Field codecs built on the reader raise it
      for their own non-canonical encodings too. *)

  val create : string -> t

  val pos : t -> int
  (** Bytes consumed so far. *)

  val remaining : t -> int
  val at_end : t -> bool
  val byte : t -> int
  val string : t -> int -> string
  val u16 : t -> int
  val u32 : t -> int
  val u64 : t -> int64

  val varint : t -> int
  (** CompactSize, canonical only. @raise Malformed otherwise. *)

  val var_string : t -> string
end
