(** A small Schnorr group: the order-q subgroup of Z_p^* for the safe
    prime p = 2q + 1 with p = 2147483579, q = 1073741789, generator
    g = 4.

    A simulation stand-in for secp256k1: the full algebraic structure
    (so Schnorr and adaptor signatures verify properly between
    independent parties) at toy security. All byte-size accounting in
    the repository uses the paper's 33/73-byte constants, never the
    size of these elements. *)

val p : int
(** The group modulus (prime, < 2^31 so products fit native ints). *)

val q : int
(** The subgroup order (prime, p = 2q + 1). *)

val g : int
(** Generator of the order-q subgroup. *)

type element = int
(** Group element in [\[1, p-1\]], member of the order-q subgroup. *)

type scalar = int
(** Exponent in [\[0, q-1\]]. *)

val mul : element -> element -> element

val pow : element -> scalar -> element
(** Generic square-and-multiply; the reference path the fast
    exponentiations below are tested against. *)

val inv : element -> element

type precomp
(** Fixed-base window table for one base: [precomp] for base b holds
    b^(j * 2^(w*i)) so b^e costs at most [ceil(30/w)] multiplications. *)

val precompute : element -> precomp
(** Builds the window table for one base: [fb_windows * (fb_digits - 1)]
    multiplications up front, amortized when the same base is
    exponentiated more than ~8 times (one table costs
    {!precomp_bytes} bytes of retained heap). *)

val pow_precomp : precomp -> scalar -> element

val precomp_bytes : int
(** Retained memory cost of one {!precomp} in bytes (arrays, headers
    and all): with the w = 5 windows over 30-bit exponents used here,
    205 words = 1640 bytes per base. Budget tables accordingly — a
    per-key table pays for itself in speed only while the key is hot,
    so unbounded per-key caching would trade O(keys) memory for it. *)

val g_precomp : precomp
(** THE table for the generator, built once at module initialisation.
    Callers needing g as one base of a multi-exponentiation must reuse
    this table (or {!pow_g}); never [precompute g] again. *)

val pow_g : scalar -> element
(** g^e through a module-initialisation-time table for the generator —
    the hot path of [keygen], [sign] and the g^s side of [verify]. *)

val dbl_pow_precomp : precomp -> scalar -> precomp -> scalar -> element
(** [dbl_pow_precomp ta ea tb eb] = a^ea * b^eb with both bases
    precomputed: at most [2 * ceil(30/w)] table multiplications plus
    one combining one — no squaring ladder, unlike {!dbl_pow}. *)

val dbl_pow : element -> scalar -> element -> scalar -> element
(** [dbl_pow a ea b eb] = a^ea * b^eb by Shamir's trick: one shared
    squaring ladder instead of two independent exponentiations. *)

val multi_pow : (element * scalar) list -> element
(** Straus interleaved multi-exponentiation of a product of powers;
    shares one squaring ladder across every term. Its one caller is
    {!Schnorr.batch_verify}, which stays only for the repository
    benchmark. *)

val scalar_add : scalar -> scalar -> scalar
val scalar_sub : scalar -> scalar -> scalar
val scalar_mul : scalar -> scalar -> scalar

val scalar_of_digest : string -> scalar
(** Reduce a hash digest to a scalar. *)

val is_element : int -> bool
(** Subgroup membership: x in (0, p) with x^q = 1 (reference path, one
    full modexp). *)

val is_element_fast : int -> bool
(** Same predicate as {!is_element} without the modexp: for the safe
    prime p = 2q + 1 the order-q subgroup is the quadratic residues, so
    membership is the Jacobi symbol (x/p) = 1 (Euler's criterion). *)

val encode_int32 : int -> string
(** 4-byte big-endian encoding (values < 2^31). *)

val decode_int32 : string -> int
(** @raise Invalid_argument unless the input has exactly 4 bytes. *)

val encode_element : element -> string
val decode_element : string -> element
val encode_scalar : scalar -> string
