(** Key material of a Daric channel party: the main pair (funding
    multisig and payouts) plus the sp/rv/rv' channel pairs of
    Appendix D. The two distinct revocation key sets are what prevent
    a party from "punishing" her own published commit. *)

module Schnorr = Daric_crypto.Schnorr

type role = Alice | Bob

val other_role : role -> role
val role_to_string : role -> string

type keypair = { sk : Schnorr.secret_key; pk : Schnorr.public_key }

val keygen : Daric_util.Rng.t -> keypair

type t = {
  main : keypair;
  sp : keypair;  (** floating split transactions (ANYPREVOUT) *)
  rv : keypair;  (** revocation branch of Alice's commits *)
  rv' : keypair;  (** revocation branch of Bob's commits *)
}

(** Public halves, as exchanged in the createInfo message. *)
type pub = {
  main_pk : Schnorr.public_key;
  sp_pk : Schnorr.public_key;
  rv_pk : Schnorr.public_key;
  rv'_pk : Schnorr.public_key;
}

val generate : Daric_util.Rng.t -> t
val pub : t -> pub

val enc : Schnorr.public_key -> string
(** The 33-byte encoding used inside scripts. *)

val pub_codec : Schnorr.public_key Daric_util.Codec.t -> pub Daric_util.Codec.t
(** The four public keys in order, each spelt by the given key codec:
    a [u32] in the durable formats, the 33-byte {!enc} on the wire. *)

val role_codec : role Daric_util.Codec.t
(** One byte: 0 for Alice, 1 for Bob. *)
