(** Key material of a Daric channel party.

    Per Appendix D, each party holds, besides the main key pair used for
    the funding multisig and revocation payout, three channel key pairs:
    - [sp]: signs the floating split transactions (ANYPREVOUT),
    - [rv]: revocation keys appearing in the script of *A's* commit
      transactions,
    - [rv']: revocation keys appearing in the script of *B's* commit
      transactions.

    The two distinct revocation key sets are what prevents a party from
    "punishing" her own published commit: A's floating revocation
    transaction carries rv'-signatures and therefore only matches the
    revocation branch of B's commits, and vice versa. *)

module Schnorr = Daric_crypto.Schnorr

type role = Alice | Bob

let other_role = function Alice -> Bob | Bob -> Alice
let role_to_string = function Alice -> "A" | Bob -> "B"

type keypair = { sk : Schnorr.secret_key; pk : Schnorr.public_key }

let keygen rng =
  let sk, pk = Schnorr.keygen rng in
  { sk; pk }

type t = {
  main : keypair;
  sp : keypair;
  rv : keypair;
  rv' : keypair;
}

(** Public halves, as exchanged in the createInfo message. *)
type pub = {
  main_pk : Schnorr.public_key;
  sp_pk : Schnorr.public_key;
  rv_pk : Schnorr.public_key;
  rv'_pk : Schnorr.public_key;
}

let generate (rng : Daric_util.Rng.t) : t =
  { main = keygen rng; sp = keygen rng; rv = keygen rng; rv' = keygen rng }

let pub (t : t) : pub =
  { main_pk = t.main.pk; sp_pk = t.sp.pk; rv_pk = t.rv.pk; rv'_pk = t.rv'.pk }

(** Byte encodings used inside scripts (33 bytes each). *)
let enc = Schnorr.encode_public_key

module C = Daric_util.Codec

(* The four keys in their fixed order; storage and the wire differ only
   in how one key is spelt. *)
let pub_codec (key : Schnorr.public_key C.t) : pub C.t =
  C.conv
    (fun ((main_pk, sp_pk), (rv_pk, rv'_pk)) -> { main_pk; sp_pk; rv_pk; rv'_pk })
    (fun k -> ((k.main_pk, k.sp_pk), (k.rv_pk, k.rv'_pk)))
    (C.pair (C.pair key key) (C.pair key key))

let role_codec : role C.t = C.enum [ (Alice, 0); (Bob, 1) ]
