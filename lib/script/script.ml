(** Bitcoin-style script: opcode set, byte sizing and pretty-printing.

    The byte-size conventions deliberately follow the counting used in
    the paper's Appendix H so that our *measured* transaction weights
    can be compared against its closed-form byte formulas:
    - [Small n] (OP_0..OP_16 style constants) costs 1 byte,
    - [Num v] (timelock/delay parameters) costs 4 bytes,
    - [Push data] costs 1 + length bytes (OP_DATA prefix),
    - every other opcode costs 1 byte. *)

type op =
  | Push of string  (** raw data push: pubkeys, hashes, preimages *)
  | Num of int  (** 4-byte script number: CLTV/CSV parameters *)
  | Small of int  (** small constant 0..16, used for multisig m/n and flags *)
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

let op_size = function
  | Push data -> 1 + String.length data
  | Num _ -> 4
  | Small _ -> 1
  | If | Notif | Else | Endif | Verify | Return | Dup | Drop | Swap | Size
  | Equal | Equalverify | Hash160 | Hash256 | Sha256 | Ripemd160 | Checksig
  | Checksigverify | Checkmultisig | Checkmultisigverify | Cltv | Csv -> 1

(** Serialized script size in bytes (Appendix-H counting). *)
let size (s : t) : int = List.fold_left (fun acc op -> acc + op_size op) 0 s

(* Opcode tags for the canonical byte serialization (used for hashing
   scripts into P2WSH programs; sizes above are authoritative for
   weight accounting). *)
let tag = function
  | Push _ -> 0x01
  | Num _ -> 0x02
  | Small _ -> 0x03
  | If -> 0x63
  | Notif -> 0x64
  | Else -> 0x67
  | Endif -> 0x68
  | Verify -> 0x69
  | Return -> 0x6a
  | Dup -> 0x76
  | Drop -> 0x75
  | Swap -> 0x7c
  | Size -> 0x82
  | Equal -> 0x87
  | Equalverify -> 0x88
  | Hash160 -> 0xa9
  | Hash256 -> 0xaa
  | Sha256 -> 0xa8
  | Ripemd160 -> 0xa6
  | Checksig -> 0xac
  | Checksigverify -> 0xad
  | Checkmultisig -> 0xae
  | Checkmultisigverify -> 0xaf
  | Cltv -> 0xb1
  | Csv -> 0xb2

(** Canonical injective serialization, used to hash scripts (P2WSH). *)
let serialize (s : t) : string =
  let module W = Daric_util.Byteio.Writer in
  W.with_scratch (fun w ->
      List.iter
        (fun op ->
          W.byte w (tag op);
          match op with
          | Push data -> W.var_string w data
          | Num v -> W.u32 w v
          | Small v -> W.byte w v
          | _ -> ())
        s;
      W.contents w)

let hash (s : t) : string = Daric_crypto.Sha256.digest (serialize s)

let pp_op ppf = function
  | Push d -> Fmt.pf ppf "<%s>" (Daric_util.Hex.short d)
  | Num v -> Fmt.pf ppf "%d" v
  | Small v -> Fmt.pf ppf "OP_%d" v
  | If -> Fmt.string ppf "OP_IF"
  | Notif -> Fmt.string ppf "OP_NOTIF"
  | Else -> Fmt.string ppf "OP_ELSE"
  | Endif -> Fmt.string ppf "OP_ENDIF"
  | Verify -> Fmt.string ppf "OP_VERIFY"
  | Return -> Fmt.string ppf "OP_RETURN"
  | Dup -> Fmt.string ppf "OP_DUP"
  | Drop -> Fmt.string ppf "OP_DROP"
  | Swap -> Fmt.string ppf "OP_SWAP"
  | Size -> Fmt.string ppf "OP_SIZE"
  | Equal -> Fmt.string ppf "OP_EQUAL"
  | Equalverify -> Fmt.string ppf "OP_EQUALVERIFY"
  | Hash160 -> Fmt.string ppf "OP_HASH160"
  | Hash256 -> Fmt.string ppf "OP_HASH256"
  | Sha256 -> Fmt.string ppf "OP_SHA256"
  | Ripemd160 -> Fmt.string ppf "OP_RIPEMD160"
  | Checksig -> Fmt.string ppf "OP_CHECKSIG"
  | Checksigverify -> Fmt.string ppf "OP_CHECKSIGVERIFY"
  | Checkmultisig -> Fmt.string ppf "OP_CHECKMULTISIG"
  | Checkmultisigverify -> Fmt.string ppf "OP_CHECKMULTISIGVERIFY"
  | Cltv -> Fmt.string ppf "OP_CHECKLOCKTIMEVERIFY"
  | Csv -> Fmt.string ppf "OP_CHECKSEQUENCEVERIFY"

let pp ppf (s : t) = Fmt.(list ~sep:sp pp_op) ppf s

(* ------------------------------------------------------------------ *)
(* Standard script templates shared by several channel constructions.  *)

(** [multisig_2 pk1 pk2]: 2 <pk1> <pk2> 2 OP_CHECKMULTISIG (71 bytes). *)
let multisig_2 (pk1 : string) (pk2 : string) : t =
  [ Small 2; Push pk1; Push pk2; Small 2; Checkmultisig ]

(** [p2pk pk]: <pk> OP_CHECKSIG. *)
let p2pk (pk : string) : t = [ Push pk; Checksig ]
