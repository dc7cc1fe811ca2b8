(** Bitcoin-style script: opcode set, byte sizing and printing.

    Byte sizes follow the counting conventions of the paper's
    Appendix H so measured transaction weights can be compared against
    its closed-form byte formulas: [Small _] costs 1 byte, [Num _]
    (timelock parameters) 4 bytes, [Push data] 1 + length bytes, every
    other opcode 1 byte. *)

type op =
  | Push of string  (** raw data push: pubkeys, hashes, preimages *)
  | Num of int  (** 4-byte script number: CLTV/CSV parameters *)
  | Small of int  (** small constant 0..16: multisig m/n and flags *)
  | If
  | Notif
  | Else
  | Endif
  | Verify
  | Return
  | Dup
  | Drop
  | Swap
  | Size
  | Equal
  | Equalverify
  | Hash160
  | Hash256
  | Sha256
  | Ripemd160
  | Checksig
  | Checksigverify
  | Checkmultisig
  | Checkmultisigverify
  | Cltv  (** OP_CHECKLOCKTIMEVERIFY *)
  | Csv  (** OP_CHECKSEQUENCEVERIFY *)

type t = op list

val op_size : op -> int

val size : t -> int
(** Serialized script size in bytes (Appendix-H counting). *)

val serialize : t -> string
(** Canonical injective serialization, used to hash scripts. *)

val hash : t -> string
(** SHA-256 of {!serialize} — the P2WSH witness program. *)

val pp : Format.formatter -> t -> unit

val multisig_2 : string -> string -> t
(** [multisig_2 pk1 pk2] = [2 <pk1> <pk2> 2 OP_CHECKMULTISIG]
    (71 bytes with 33-byte keys). *)

val p2pk : string -> t
(** [p2pk pk] = [<pk> OP_CHECKSIG]. *)
