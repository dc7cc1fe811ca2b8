(** Transactions in the UTXO model of the paper (Section 2.1):
    TX = (txid, Input, nLT, Output, Witness) with txid = H(\[TX\]) over
    the body \[TX\] = (Input, nLT, Output).

    Weight accounting follows segwit rules with the byte-count
    conventions of Appendix H: weight = 4 x non-witness bytes + witness
    bytes; one vbyte is four weight units. *)

module Script = Daric_script.Script

type outpoint = { txid : string; vout : int }

val outpoint_equal : outpoint -> outpoint -> bool
val pp_outpoint : Format.formatter -> outpoint -> unit

(** Output condition (scriptPubKey). *)
type spk =
  | P2wsh of string  (** 32-byte script hash; spending reveals the script *)
  | P2wpkh of string  (** 20-byte pubkey hash *)
  | Raw of Script.t  (** bare script (tests and funding sources) *)
  | Op_return  (** provably unspendable *)

type output = { value : int; spk : spk }
(** [value] in satoshi. *)

type input = { prevout : outpoint; sequence : int }

type witness_elt =
  | Data of string
  | Wscript of Script.t  (** the revealed P2WSH witness script *)

type witness = witness_elt list
(** Bottom-to-top witness stack for one input (script last). *)

type enc
(** Opaque in-place encoding memo: serialized body, floating-suffix
    offset, txid and sighash digests, computed once per transaction
    value. *)

type t = private {
  inputs : input list;
  locktime : int;  (** nLockTime *)
  outputs : output list;
  witnesses : witness list;  (** parallel to [inputs] *)
  mutable enc : enc option;  (** encoding memo — maintained by this
                                 module; never observable through the
                                 serialization or sizing functions *)
}
(** The record is [private]: construct with {!make} / {!with_witnesses}
    so a body change can never carry a stale memo along. Field reads
    and pattern matching work as usual. *)

val make :
  ?locktime:int -> ?witnesses:witness list ->
  inputs:input list -> outputs:output list -> unit -> t
(** [make ~inputs ~outputs ()] builds a transaction (locktime 0 and no
    witnesses unless given). The encoding memo starts empty and is
    filled on first use. *)

val with_witnesses : t -> witness list -> t
(** [with_witnesses tx ws] is [tx] with its witness stacks replaced —
    the witness-completion idiom. The body is unchanged, so the result
    shares [tx]'s encoding memo: completing a transaction never
    re-serializes or re-hashes. *)

val empty : t
(** The empty transaction (no inputs, no outputs, locktime 0) — a
    placeholder for not-yet-negotiated slots. *)

val default_sequence : int
val input_of_outpoint : ?sequence:int -> outpoint -> input

val cached_msg : t -> int -> string option
(** [cached_msg tx slot] reads a sighash-digest slot of the memo
    (slot 0 = ALL, 1 = ANYPREVOUT, 2+i = ANYPREVOUT|SINGLE for input
    index i). Used by {!Sighash.message}; see {!cache_msg}. *)

val cache_msg : t -> int -> string -> unit
(** Store a sighash digest in the given slot. The digest must be the
    pure function of the body that the slot denotes — the memo is
    shared by every view of this transaction value. *)

val body_serialize : t -> string
(** Serialization of the body \[TX\] = (Input, nLT, Output). Memoized
    on the immutable body together with {!txid}. *)

val body_serialize_uncached : t -> string
(** Reference encoder: a fresh serialization pass with no memo table
    (property tests and the [tx-encode_naive] baseline). *)

val body_encoding : t -> string * int
(** [(body, off)] where [body] = {!body_serialize} and the floating
    body ⌊TX⌋ is exactly the suffix [body\[off..\]] — the zero-copy
    view used by sighash computation. *)

val txid : t -> string
(** txid = H(\[TX\]); 32 bytes. Witness data never affects it.
    Memoized on the (immutable) body — agrees with {!txid_uncached}. *)

val txid_uncached : t -> string
(** Recompute the digest without consulting the memo table (reference
    path for the property tests). *)

val seal : t -> unit
(** Drop the encoding memo's serialized body and sighash slots,
    keeping only the txid. Called by {!Daric_chain.Ledger.record} once
    the transaction is on chain: accepted transactions are retained
    forever in the ledger's log, and without sealing each one pins its
    dead memo bytes in the live heap the major GC must keep marking.
    Later body/sighash demands transparently recompute; {!txid} stays
    O(1). Idempotent. *)

val outpoint_of : t -> int -> outpoint

val floating_body_serialize : t -> string
(** The input-less body (nLT, Output) authorized by ANYPREVOUT
    signatures. *)

val output_size : output -> int
(** Serialized output bytes: P2WPKH 31, P2WSH 43, ... *)

val non_witness_size : t -> int
(** version(4) + counts + 41/input + outputs + locktime(4). *)

val witness_size : t -> int
(** 2-byte segwit header + per input: count byte + elements. *)

val weight : t -> int
(** 4 x non-witness + witness, in weight units. *)

val vbytes : t -> int
(** ceil(weight / 4). *)

val total_output_value : t -> int

val duplicate_input : t -> outpoint option
(** The first outpoint the transaction lists as input more than once,
    if any (Bitcoin's [bad-txns-inputs-duplicate]). *)

val pp : Format.formatter -> t -> unit
