(** SIGHASH computation and flag-carrying signature encodings.

    Three modes are needed by the reproduced schemes:
    - [All]: the signature authorizes inputs, nLockTime and all outputs
      (SIGHASH_ALL — the message is f(TX) over [TX]).
    - [Anyprevout]: the signature does not authorize the inputs, making
      the transaction *floating* (BIP-118 / NOINPUT — the message is
      f~(⌊TX⌋) over (nLT, Output)).
    - [Anyprevout_single]: additionally only the same-index output is
      authorized, allowing fee inputs/outputs to be attached later
      (Section 8, "Fee handling").

    The flag is carried in the last byte of the 73-byte signature
    encoding, mirroring Bitcoin's appended sighash byte. *)

type flag = All | Anyprevout | Anyprevout_single

let flag_byte = function
  | All -> 0x01
  | Anyprevout -> 0x41
  | Anyprevout_single -> 0x43

let flag_of_byte = function
  | 0x01 -> Some All
  | 0x41 -> Some Anyprevout
  | 0x43 -> Some Anyprevout_single
  | _ -> None

(* Fully uncached reference: fresh serialization, fresh tag digest. *)
let message_uncached (flag : flag) (tx : Tx.t) ~(input_index : int) : string =
  let payload =
    match flag with
    | All -> "all/" ^ Tx.body_serialize_uncached tx
    | Anyprevout -> "apo/" ^ Tx.floating_body_serialize tx
    | Anyprevout_single ->
        let o = List.nth tx.outputs input_index in
        let single = Tx.make ~locktime:tx.locktime ~inputs:[] ~outputs:[ o ] () in
        "apos/" ^ Tx.floating_body_serialize single
  in
  Daric_crypto.Hash.tagged_uncached "daric/sighash" payload

(* Zero-copy digest path: the cached body encoding is fed to the
   cached "daric/sighash" midstate as slices — a family's floating
   members (commit/split/revocation sharing ⌊TX⌋ structure) reuse the
   very suffix bytes of the full body, and nothing is concatenated. *)
let message_compute (flag : flag) (tx : Tx.t) ~(input_index : int) : string =
  let parts =
    match flag with
    | All ->
        let body, _ = Tx.body_encoding tx in
        [ ("all/", 0, 4); (body, 0, String.length body) ]
    | Anyprevout ->
        let body, off = Tx.body_encoding tx in
        [ ("apo/", 0, 4); (body, off, String.length body - off) ]
    | Anyprevout_single ->
        let o = List.nth tx.outputs input_index in
        let single = Tx.make ~locktime:tx.locktime ~inputs:[] ~outputs:[ o ] () in
        let body, off = Tx.body_encoding single in
        [ ("apos/", 0, 5); (body, off, String.length body - off) ]
  in
  Daric_crypto.Hash.tagged_parts "daric/sighash" parts

(** Message hashed and signed for a given flag. [input_index] selects
    the authorized output under [Anyprevout_single].

    Memoized in the transaction's own encoding memo (slot 0 = ALL,
    1 = ANYPREVOUT, 2+i = ANYPREVOUT|SINGLE): the same commit/split/
    revocation message is hashed by signer, peer, watchtower and ledger
    alike, and after the first computation each re-derivation is an
    array read — no table lookup, no structural key hashing. *)
let message (flag : flag) (tx : Tx.t) ~(input_index : int) : string =
  let slot =
    match flag with
    | All -> 0
    | Anyprevout -> 1
    | Anyprevout_single -> 2 + input_index
  in
  match Tx.cached_msg tx slot with
  | Some m -> m
  | None ->
      let m = message_compute flag tx ~input_index in
      Tx.cache_msg tx slot m;
      m

(** Sign a transaction for one input; returns the 73-byte flagged
    signature suitable for a witness element. *)
let sign (sk : Daric_crypto.Schnorr.secret_key) (flag : flag) (tx : Tx.t)
    ~(input_index : int) : string =
  let msg = message flag tx ~input_index in
  let s = Daric_crypto.Schnorr.sign_bytes sk msg in
  let b = Bytes.of_string s in
  Bytes.set b (Bytes.length b - 1) (Char.chr (flag_byte flag));
  Bytes.unsafe_to_string b

(** Sign a message directly (already-computed f(TX) / f~(⌊TX⌋)); used by
    protocol code that exchanges signatures on transaction *bodies*
    before the full transaction exists. *)
let sign_message (sk : Daric_crypto.Schnorr.secret_key) (flag : flag)
    (msg : string) : string =
  let s = Daric_crypto.Schnorr.sign_bytes sk msg in
  let b = Bytes.of_string s in
  Bytes.set b (Bytes.length b - 1) (Char.chr (flag_byte flag));
  Bytes.unsafe_to_string b

let verify_message (pk_bytes : string) (msg : string) (sig_bytes : string) : bool =
  Daric_crypto.Schnorr.verify_bytes pk_bytes msg sig_bytes

(** Keyed {!sign_message}: bit-identical signature, with the nonce
    prefix and public key amortized in the context. *)
let sign_message_keyed (kc : Daric_crypto.Keyctx.t) (flag : flag)
    (msg : string) : string =
  let s = Daric_crypto.Schnorr.sign_bytes_keyed kc msg in
  let b = Bytes.of_string s in
  Bytes.set b (Bytes.length b - 1) (Char.chr (flag_byte flag));
  Bytes.unsafe_to_string b

(** Pool-probing {!verify_message}: verifies through the key's
    window table when its context is resident. Same verdict. *)
let verify_message_pooled (pk_bytes : string) (msg : string)
    (sig_bytes : string) : bool =
  Daric_crypto.Schnorr.verify_bytes_pooled pk_bytes msg sig_bytes

(** Full signature check for the script interpreter: extract the flag
    from the signature, compute the matching message over [tx], verify. *)
let check (tx : Tx.t) ~(input_index : int) ~(pk_bytes : string)
    ~(sig_bytes : string) : bool =
  String.length sig_bytes = Daric_crypto.Schnorr.signature_size
  &&
  match flag_of_byte (Char.code sig_bytes.[String.length sig_bytes - 1]) with
  | None -> false
  | Some flag ->
      let msg = message flag tx ~input_index in
      (* pooled: channel keys pinned at open verify through their
         window tables; unknown keys take the plain path unchanged *)
      Daric_crypto.Schnorr.verify_bytes_pooled pk_bytes msg sig_bytes
