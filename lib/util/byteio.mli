(** Byte-oriented serialization: a growable writer with Bitcoin-style
    little-endian integers and CompactSize varints. Decoding goes
    through {!Codec}, which describes both directions of a format. *)

module Writer : sig
  type t

  val create : unit -> t
  val contents : t -> string
  val length : t -> int

  val byte : t -> int -> unit
  (** Append the low 8 bits of the argument. *)

  val string : t -> string -> unit
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
