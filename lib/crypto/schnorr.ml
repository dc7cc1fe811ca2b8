(** Schnorr signatures over {!Group}, with deterministic nonces.

    Serialized sizes intentionally match the constants used throughout
    the paper's Appendix H: public keys serialize to exactly 33 bytes
    and signatures to exactly 73 bytes, so that the transactions we
    build have byte-accurate witness sizes.

    Verification runs on fast paths (Jacobi-symbol subgroup membership,
    Shamir double exponentiation, fixed-base g table); [verify_naive]
    keeps the textbook path as the reference the tests compare against. *)

type secret_key = Group.scalar
type public_key = Group.element

type signature = { r : Group.element; s : Group.scalar }

let public_key_size = 33
let signature_size = 73

(** [keygen rng] draws a fresh keypair. *)
let keygen (rng : Daric_util.Rng.t) : secret_key * public_key =
  let sk = 1 + Daric_util.Rng.int rng (Group.q - 1) in
  (sk, Group.pow_g sk)

let public_key_of_secret (sk : secret_key) : public_key = Group.pow_g sk

(** 33-byte encoding: 0x02 marker, 28 zero bytes, 4-byte element. *)
let encode_public_key (pk : public_key) : string =
  "\x02" ^ String.make 28 '\000' ^ Group.encode_element pk

let all_zero (s : string) ~(from : int) ~(upto : int) : bool =
  let rec go i = i > upto || (s.[i] = '\000' && go (i + 1)) in
  go from

let decode_public_key (s : string) : public_key option =
  if
    String.length s <> public_key_size
    || s.[0] <> '\x02'
    (* non-zero filler would give one key many encodings *)
    || not (all_zero s ~from:1 ~upto:28)
  then None
  else
    let pk = Group.decode_element (String.sub s 29 4) in
    if Group.is_element_fast pk then Some pk else None

(** 73-byte encoding: R (4), s (4), then zero padding; the final byte
    is left free for a SIGHASH flag. *)
let encode_signature (sg : signature) : string =
  Group.encode_element sg.r ^ Group.encode_scalar sg.s ^ String.make 65 '\000'

let decode_signature (s : string) : signature option =
  if
    String.length s <> signature_size
    (* strict padding: bytes 8..71 must be zero (the last byte carries
       the SIGHASH flag); otherwise one signature has 2^512 encodings
       and witness malleability would change txids *)
    || not (all_zero s ~from:8 ~upto:(signature_size - 2))
  then None
  else
    Some
      { r = Group.decode_element (String.sub s 0 4);
        s = Group.decode_int32 (String.sub s 4 4) }

let challenge_uncached (r : Group.element) (pk : public_key) (msg : string) :
    Group.scalar =
  Group.scalar_of_digest
    (Hash.tagged_uncached "daric/challenge"
       (Group.encode_element r ^ Group.encode_element pk ^ msg))

(* Fiat-Shamir challenges are recomputed for the same (R, pk, msg) by
   signer, peer, ledger, mempool and watchtower alike; e = H(...) is a
   pure function, so the scalar is memoized on its preimage. *)
let challenge_of_preimage : string -> Group.scalar =
  Daric_util.Memo.make ~cap:(1 lsl 16) (fun preimage ->
      Group.scalar_of_digest (Hash.tagged "daric/challenge" preimage))

let challenge (r : Group.element) (pk : public_key) (msg : string) : Group.scalar =
  challenge_of_preimage (Group.encode_element r ^ Group.encode_element pk ^ msg)

let nonce (sk : secret_key) (msg : string) (aux : string) : Group.scalar =
  let k =
    Group.scalar_of_digest
      (Hash.tagged "daric/nonce" (Group.encode_scalar sk ^ aux ^ msg))
  in
  if k = 0 then 1 else k

let sign (sk : secret_key) (msg : string) : signature =
  let k = nonce sk msg "" in
  let r = Group.pow_g k in
  let e = challenge r (public_key_of_secret sk) msg in
  { r; s = Group.scalar_add k (Group.scalar_mul e sk) }

(** Fast verify: membership via the Jacobi symbol, then the equation
    g^s = R * pk^e rewritten as g^s * pk^(-e) = R so both
    exponentiations share one Shamir ladder. *)
let verify (pk : public_key) (msg : string) (sg : signature) : bool =
  Group.is_element_fast pk
  && Group.is_element_fast sg.r
  &&
  let e = challenge sg.r pk msg in
  Group.dbl_pow Group.g sg.s pk (Group.scalar_sub 0 e) = sg.r

(* ------------------------------------------------------------------ *)
(* Keyed operations: the per-key half of every exponentiation and the
   key-dependent hash prefixes come precomputed from a {!Keyctx.t}.
   Each keyed operation agrees pointwise with its plain counterpart
   (the differential suite asserts it); the plain paths above stay as
   the oracles. *)

(** [sign_keyed kc msg] = [sign sk msg] for the context's secret key,
    bit-identical: the nonce preimage [enc sk || msg] is fed as slices
    from the context's cached scalar encoding (no per-call encode or
    concatenation), and the public key comes from the context instead
    of a fresh [pow_g].
    @raise Invalid_argument on a verify-only context. *)
let sign_keyed (kc : Keyctx.t) (msg : string) : signature =
  let sk =
    match Keyctx.sk kc with
    | Some sk -> sk
    | None -> invalid_arg "Schnorr.sign_keyed: verify-only context"
  in
  let sk_enc = Keyctx.sk_enc kc in
  let k =
    Group.scalar_of_digest
      (Hash.tagged_parts "daric/nonce"
         [ (sk_enc, 0, String.length sk_enc); (msg, 0, String.length msg) ])
  in
  let k = if k = 0 then 1 else k in
  let r = Group.pow_g k in
  let e = challenge r (Keyctx.pk kc) msg in
  { r; s = Group.scalar_add k (Group.scalar_mul e sk) }

(** [verify_keyed kc msg sg] = [verify (pk kc) msg sg], with the key's
    membership check amortized into context construction and the
    Shamir ladder replaced by two fixed-base window tables (the shared
    g table and the context's): a dozen multiplications instead of 30
    squarings. *)
let verify_keyed (kc : Keyctx.t) (msg : string) (sg : signature) : bool =
  Keyctx.is_valid kc
  && Group.is_element_fast sg.r
  &&
  let e = challenge sg.r (Keyctx.pk kc) msg in
  Group.dbl_pow_precomp Group.g_precomp sg.s (Keyctx.table kc)
    (Group.scalar_sub 0 e)
  = sg.r

(** Pool-probing verify: keyed when [pk]'s context is resident (a
    channel key pinned at open), the plain fast path otherwise. Never
    inserts into the pool, so cold keys cost one table probe extra. *)
let verify_pooled (pk : public_key) (msg : string) (sg : signature) : bool =
  match Keyctx.peek pk with
  | Some kc -> verify_keyed kc msg sg
  | None -> verify pk msg sg

(** Reference verify, reproducing the pre-optimization path end to
    end: two independent [Group.pow] ladders, two full x^q membership
    modexps and an uncached challenge — the baseline for the property
    tests and the bench's [_naive] timings. *)
let verify_naive (pk : public_key) (msg : string) (sg : signature) : bool =
  Group.is_element pk && Group.is_element sg.r
  &&
  let e = challenge_uncached sg.r pk msg in
  Group.pow Group.g sg.s = Group.mul sg.r (Group.pow pk e)

(* ------------------------------------------------------------------ *)
(* Batch verification (random linear combination).                     *)

(* No production path batches: the ledger and the watchtower verify each
   signature on its own. [batch_verify] and [batch_coeffs] (and
   [Group.multi_pow] under them) stay only because the repository
   benchmark (perfbench/micro.ml) times [batch_verify]; they go once it
   stops doing so. *)

(* Coefficients are derived deterministically from the whole batch, so
   the check needs no RNG input and an item cannot choose its own
   weight: one tagged hash absorbs a compact summary of every item —
   (pk, R, s, e), where e = H(R || pk || msg) already binds the message
   through SHA-256 — and a splitmix64 expander stretches the digest
   into one 24-bit coefficient per item. 24 bits bound the
   false-accept probability by 2^-24 while keeping the R_i^z_i side of
   the multi-exponentiation short. *)
let batch_coeff_bits = 24

let batch_coeffs (items : (public_key * string * signature) list)
    (challenges : Group.scalar list) : Group.scalar list =
  let buf = Buffer.create (16 * List.length items) in
  List.iter2
    (fun (pk, _, sg) e ->
      Buffer.add_string buf (Group.encode_element pk);
      Buffer.add_string buf (Group.encode_element sg.r);
      Buffer.add_string buf (Group.encode_int32 sg.s);
      Buffer.add_string buf (Group.encode_int32 e))
    items challenges;
  let seed =
    Hash.digest_to_int (Hash.tagged "daric/batch-seed" (Buffer.contents buf))
  in
  let prg = Daric_util.Rng.create ~seed in
  List.map (fun _ -> 1 + Daric_util.Rng.int prg ((1 lsl batch_coeff_bits) - 1)) items

(** [batch_verify items] accepts iff (whp) every (pk, msg, sig) triple
    individually verifies. One fixed-base exponentiation plus two
    shared-ladder multi-exponentiations replace 2N independent ladders:
    with random z_i it checks
      g^(sum z_i s_i) * prod pk_i^(-z_i e_i)  =  prod R_i^(z_i). *)
let batch_verify (items : (public_key * string * signature) list) : bool =
  match items with
  | [] -> true
  | [ (pk, msg, sg) ] -> verify pk msg sg
  | _ ->
      List.for_all
        (fun (pk, _, sg) -> Group.is_element_fast pk && Group.is_element_fast sg.r)
        items
      &&
      let es = List.map (fun (pk, msg, sg) -> challenge sg.r pk msg) items in
      let zs = batch_coeffs items es in
      let s_sum =
        List.fold_left2
          (fun acc (_, _, sg) z -> Group.scalar_add acc (Group.scalar_mul z sg.s))
          0 items zs
      in
      let lhs_terms =
        List.map2
          (fun ((pk, _, _), e) z -> (pk, Group.scalar_sub 0 (Group.scalar_mul z e)))
          (List.combine items es) zs
      in
      let rhs_terms = List.map2 (fun (_, _, sg) z -> (sg.r, z)) items zs in
      Group.mul (Group.pow_g s_sum) (Group.multi_pow lhs_terms)
      = Group.multi_pow rhs_terms

(* Convenience wrappers over the wire encodings, used by the script
   interpreter which only sees byte strings. *)

let sign_bytes (sk : secret_key) (msg : string) : string = encode_signature (sign sk msg)

let verify_bytes (pk_bytes : string) (msg : string) (sig_bytes : string) : bool =
  match (decode_public_key pk_bytes, decode_signature sig_bytes) with
  | Some pk, Some sg -> verify pk msg sg
  | _ -> false

let sign_bytes_keyed (kc : Keyctx.t) (msg : string) : string =
  encode_signature (sign_keyed kc msg)

let verify_bytes_pooled (pk_bytes : string) (msg : string) (sig_bytes : string)
    : bool =
  match (decode_public_key pk_bytes, decode_signature sig_bytes) with
  | Some pk, Some sg -> verify_pooled pk msg sg
  | _ -> false
