(** Two-way binary codecs: a ['a t] describes one format once and
    yields both its encoder and its decoder (pickler combinators, after
    Kennedy, {i Functional Pearl: Pickler Combinators}, JFP 2004).

    Integers are little-endian and lengths Bitcoin CompactSize varints,
    as {!Byteio.Writer} writes them. Decoders accept only canonical
    input: every accepted value re-encodes to the bytes it was read
    from. {!decode} never raises — truncated, malformed or padded input
    is an [Error]. *)

type 'a t

type error =
  | Truncated  (** input exhausted mid-value *)
  | Malformed of string  (** bytes no encoder writes, or trailing bytes *)

val error_to_string : error -> string

val encode : 'a t -> 'a -> string

val write : 'a t -> Byteio.Writer.t -> 'a -> unit
(** Append an encoding to a writer (after a caller's own framing). *)

val decode : ?off:int -> 'a t -> string -> ('a, error) result
(** Decode the whole of [s] from [off] (default 0); bytes left over are
    [Malformed "trailing bytes"].
    @raise Invalid_argument if [off] is outside [s]. *)

(** {1 Leaves} *)

val u8 : int t
val u32 : int t

val u64 : int t
(** An 8-byte field holding a non-negative [int]: values with either of
    the two top bits set are refused, since they do not fit.
    @raise Invalid_argument when encoding a negative value. *)

val varint : int t
(** CompactSize, shortest form only.
    @raise Invalid_argument when encoding a negative value. *)

val var_string : string t
(** Varint length, then the bytes. *)

val fixed : int -> string t
(** Exactly [n] raw bytes. @raise Invalid_argument when encoding a
    string of another length. *)

(** {1 Combinators} *)

val list : 'a t -> 'a list t
(** Varint count, then the elements. *)

val option : 'a t -> 'a option t
(** Byte 0, or byte 1 then the value. *)

val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

val conv : ('a -> 'b) -> ('b -> 'a) -> 'a t -> 'b t
(** [conv inj proj c] maps a codec through an isomorphism. *)

val check : ('a -> ('b, string) result) -> ('b -> 'a) -> 'a t -> 'b t
(** {!conv} whose decoding direction may refuse a value. *)

type 'a case

val case : int -> 'b t -> ('b -> 'a) -> ('a -> 'b option) -> 'a case
(** [case tag c inj proj]: one constructor of a tagged sum — [proj]
    selects the values it encodes, [inj] rebuilds them. *)

val sum : 'a case list -> 'a t
(** A tag byte, then the payload of the first case whose [proj]
    accepts the value. Unknown tags are refused. *)

val enum : ('a * int) list -> 'a t
(** A one-byte table of constant values. *)

type span = { src : string; off : int; len : int }
(** [len] bytes of [src] at [off]. *)

val spanned : 'a t -> ('a -> span -> 'b) -> ('b -> span) -> 'b t
(** [spanned c inj proj] decodes a [c] value and hands it [inj] with
    the span of input it was read from; encoding copies [proj]'s span
    as it is. For stores that keep encoded bytes — the span must hold
    a canonical [c] encoding. *)
