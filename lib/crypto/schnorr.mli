(** Schnorr signatures over {!Group} with deterministic nonces.

    Serialized sizes match the constants of the paper's Appendix H:
    public keys are exactly 33 bytes, signatures exactly 73 bytes, so
    the transactions built from them have byte-accurate witnesses. *)

type secret_key = Group.scalar
type public_key = Group.element

type signature = { r : Group.element; s : Group.scalar }

val public_key_size : int
(** 33. *)

val signature_size : int
(** 73. *)

val keygen : Daric_util.Rng.t -> secret_key * public_key
val public_key_of_secret : secret_key -> public_key

val encode_public_key : public_key -> string
(** 33-byte encoding. *)

val decode_public_key : string -> public_key option
(** Returns [None] on malformed input (including non-zero filler
    bytes — each key has exactly one encoding) or non-subgroup points.
    Every call runs the subgroup membership check: decoded keys arrive
    from outside the program. *)

val encode_signature : signature -> string
(** 73-byte encoding (the last byte is free for a SIGHASH flag). *)

val decode_signature : string -> signature option
(** [None] unless the input is 73 bytes with all-zero padding (the
    final byte excepted — it carries the SIGHASH flag): each signature
    has exactly one encoding per flag, so witnesses are non-malleable. *)

val challenge : Group.element -> public_key -> string -> Group.scalar
(** The Fiat-Shamir challenge e = H(R || pk || msg); exposed for the
    adaptor-signature construction. *)

val nonce : secret_key -> string -> string -> Group.scalar
(** Deterministic nonce derivation; [aux] separates usage domains. *)

val sign : secret_key -> string -> signature

val verify : public_key -> string -> signature -> bool
(** Fast path: Jacobi-symbol membership and one Shamir double
    exponentiation. Agrees pointwise with {!verify_naive}. *)

val verify_naive : public_key -> string -> signature -> bool
(** Reference path (two independent ladders, x^q membership); kept for
    property tests and the [_naive] bench baselines. *)

val batch_verify : (public_key * string * signature) list -> bool
(** Random-linear-combination batch verification: accepts iff (up to a
    2^-24 soundness error against adversarially crafted batches) every
    triple individually verifies. N triples cost roughly one
    multi-exponentiation instead of N full verifies. No production path
    calls it; it stays for the repository benchmark's batch entries
    (perfbench/micro.ml). *)

(** {2 Keyed operations}

    Per-public-key precomputation from a {!Keyctx.t}: validation,
    encodings and fixed-base window tables amortized across a channel
    lifetime. Each agrees pointwise with its plain counterpart above
    (asserted by the keyed/plain differential suite); the plain paths
    remain the oracles. *)

val sign_keyed : Keyctx.t -> string -> signature
(** Bit-identical to {!sign} under the context's secret key, with the
    nonce's key-dependent prefix and the public key cached.
    @raise Invalid_argument on a verify-only context. *)

val verify_keyed : Keyctx.t -> string -> signature -> bool
(** = [verify (Keyctx.pk kc) msg sg], as two fixed-base window-table
    exponentiations (shared g table + the key's) — no squaring ladder,
    no per-call membership check on the key. *)

val verify_pooled : public_key -> string -> signature -> bool
(** {!verify_keyed} when the key's context is resident in the
    {!Keyctx} pool (never inserting), {!verify} otherwise. *)

val sign_bytes : secret_key -> string -> string
(** {!sign} composed with {!encode_signature}. *)

val verify_bytes : string -> string -> string -> bool
(** [verify_bytes pk_bytes msg sig_bytes] decodes and verifies;
    [false] on any malformed input. *)

val sign_bytes_keyed : Keyctx.t -> string -> string
(** {!sign_keyed} composed with {!encode_signature}; bit-identical
    output to {!sign_bytes} under the context's secret key. *)

val verify_bytes_pooled : string -> string -> string -> bool
(** {!verify_bytes} with the verification run through
    {!verify_pooled}: same strict decoding, same verdict. *)
