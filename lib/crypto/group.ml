(** A small Schnorr group: the order-q subgroup of Z_p^* with
    p = 2q + 1 a safe prime.

    p = 2147483579 and q = 1073741789 are both prime, p < 2^31, so all
    intermediate products fit in OCaml's 63-bit native integers. The
    generator g = 4 is a quadratic residue and hence generates the
    subgroup of order q.

    This group is a *simulation stand-in* for secp256k1: it has the full
    algebraic structure (so Schnorr and adaptor signatures verify
    properly between independent parties) but only toy security. All
    byte-size accounting uses the paper's 33/73-byte constants, not the
    size of these elements. *)

let p = 2147483579
let q = 1073741789
let g = 4

type element = int
(** Group element in [1, p-1], member of the order-q subgroup. *)

type scalar = int
(** Exponent in [0, q-1]. *)

let mul (a : element) (b : element) : element = a * b mod p

let pow (base : element) (e : scalar) : element =
  let rec go acc base e =
    if e = 0 then acc
    else
      let acc = if e land 1 = 1 then mul acc base else acc in
      go acc (mul base base) (e lsr 1)
  in
  go 1 (base mod p) (((e mod q) + q) mod q)

(** Fermat inverse in Z_p^*. *)
let inv (a : element) : element =
  let rec go acc base e =
    if e = 0 then acc
    else
      let acc = if e land 1 = 1 then mul acc base else acc in
      go acc (mul base base) (e lsr 1)
  in
  go 1 (a mod p) (p - 2)

(* ------------------------------------------------------------------ *)
(* Fast exponentiation paths. Each has a naive counterpart above or
   below; the test suite asserts pointwise agreement.                  *)

let reduce_exp (e : scalar) : scalar = ((e mod q) + q) mod q

(* q < 2^30, so every reduced exponent fits in [exp_bits] bits. *)
let exp_bits = 30

(* Fixed-base windowed precomputation: for a base b, table.(i).(j) holds
   b^(j * 2^(w*i)), so b^e is the product over windows i of
   table.(i).(digit_i e) — at most [fb_windows] multiplications per
   exponentiation instead of a full square-and-multiply ladder. *)
let fb_window = 5
let fb_windows = (exp_bits + fb_window - 1) / fb_window
let fb_digits = 1 lsl fb_window

type precomp = element array array

let precompute (base : element) : precomp =
  let base = base mod p in
  let table = Array.make_matrix fb_windows fb_digits 1 in
  let cur = ref base in
  for i = 0 to fb_windows - 1 do
    (* row i: powers of base^(2^(w*i)) *)
    let row = table.(i) in
    for j = 1 to fb_digits - 1 do
      row.(j) <- mul row.(j - 1) !cur
    done;
    (* advance cur to base^(2^(w*(i+1))) by w squarings *)
    for _ = 1 to fb_window do
      cur := mul !cur !cur
    done
  done;
  table

let pow_precomp (table : precomp) (e : scalar) : element =
  let e = reduce_exp e in
  let acc = ref 1 in
  for i = 0 to fb_windows - 1 do
    let digit = (e lsr (fb_window * i)) land (fb_digits - 1) in
    if digit <> 0 then acc := mul !acc table.(i).(digit)
  done;
  !acc

(* Memory cost of one [precomp], in bytes: the outer array (header +
   fb_windows pointers) plus fb_windows rows of (header + fb_digits
   boxed-free immediates), at 8 bytes per word on a 64-bit runtime.
   With w = 5 over 30-bit exponents that is
   (1 + 6) + 6 * (1 + 32) = 205 words = 1640 bytes per base. *)
let precomp_bytes : int =
  8 * (1 + fb_windows + (fb_windows * (1 + fb_digits)))

(* The generator table is by far the most used one (keygen, sign, the
   g^s side of every verify); build it once at module initialisation
   and share it everywhere — no caller should ever build a second
   table for g (or fall back to a cold ladder on it). *)
let g_table : precomp = precompute g

let g_precomp : precomp = g_table

(** [pow_g e] = g^e via the fixed-base table. *)
let pow_g (e : scalar) : element = pow_precomp g_table e

(** [dbl_pow_precomp ta ea tb eb] = a^ea * b^eb when BOTH bases have
    window tables: at most [2 * fb_windows] table multiplications plus
    one combining multiplication — no squaring ladder at all. The
    keyed counterpart of {!dbl_pow} for {!Schnorr.verify_keyed}, where
    the two bases are the (precomputed) generator and a channel public
    key whose table lives in a {!Keyctx.t}. *)
let dbl_pow_precomp (ta : precomp) (ea : scalar) (tb : precomp) (eb : scalar) :
    element =
  mul (pow_precomp ta ea) (pow_precomp tb eb)

(** Shamir/Straus double exponentiation: [dbl_pow a ea b eb] computes
    a^ea * b^eb in one interleaved ladder — the squarings are shared
    between the two exponents, so the cost is one ladder plus at most
    one multiplication per bit instead of two full ladders. *)
let dbl_pow (a : element) (ea : scalar) (b : element) (eb : scalar) : element =
  let a = a mod p and b = b mod p in
  let ea = reduce_exp ea and eb = reduce_exp eb in
  let ab = mul a b in
  let acc = ref 1 in
  for i = exp_bits - 1 downto 0 do
    acc := mul !acc !acc;
    let bit_a = (ea lsr i) land 1 and bit_b = (eb lsr i) land 1 in
    if bit_a = 1 then
      if bit_b = 1 then acc := mul !acc ab else acc := mul !acc a
    else if bit_b = 1 then acc := mul !acc b
  done;
  !acc

(** Straus interleaved multi-exponentiation: the product of b^e over all
    [(b, e)] terms, sharing one squaring ladder across every term. The
    backbone of {!Schnorr.batch_verify}'s random linear combination,
    which only the repository benchmark calls. *)
let multi_pow (terms : (element * scalar) list) : element =
  match terms with
  | [] -> 1
  | [ (b, e) ] -> pow b e
  | _ ->
      let n = List.length terms in
      let bases = Array.make n 1 and exps = Array.make n 0 in
      List.iteri
        (fun i (b, e) ->
          bases.(i) <- b mod p;
          exps.(i) <- reduce_exp e)
        terms;
      let acc = ref 1 in
      for i = exp_bits - 1 downto 0 do
        acc := mul !acc !acc;
        for j = 0 to n - 1 do
          if (exps.(j) lsr i) land 1 = 1 then acc := mul !acc bases.(j)
        done
      done;
      !acc

let scalar_add (a : scalar) (b : scalar) : scalar = (a + b) mod q
let scalar_sub (a : scalar) (b : scalar) : scalar = ((a - b) mod q + q) mod q
let scalar_mul (a : scalar) (b : scalar) : scalar = a * b mod q

(** Reduce a digest to a scalar. *)
let scalar_of_digest (d : string) : scalar = Hash.digest_to_int d mod q

(** [is_element x] checks subgroup membership: x^q = 1 (and x != 0).
    Reference (slow) path: a full x^q modular exponentiation.

    Note the ladder here must NOT reduce the exponent mod q: Lagrange
    reduction is only sound for bases already in the order-q subgroup,
    which is the very thing being tested. ([pow x q] would compute
    x^(q mod q) = 1 and accept everything.) *)
let is_element (x : int) : bool =
  x > 0 && x < p
  &&
  let rec go acc base e =
    if e = 0 then acc
    else
      let acc = if e land 1 = 1 then mul acc base else acc in
      go acc (mul base base) (e lsr 1)
  in
  go 1 x q = 1

(** Jacobi symbol (a/n) for odd positive n, by quadratic reciprocity —
    a GCD-shaped loop of shifts and reductions, no exponentiation. *)
let jacobi (a : int) (n : int) : int =
  let a = ref (((a mod n) + n) mod n) and n = ref n and result = ref 1 in
  while !a <> 0 do
    while !a land 1 = 0 do
      a := !a lsr 1;
      let r = !n land 7 in
      if r = 3 || r = 5 then result := - !result
    done;
    let t = !a in
    a := !n;
    n := t;
    if !a land 3 = 3 && !n land 3 = 3 then result := - !result;
    a := !a mod !n
  done;
  if !n = 1 then !result else 0

(** [is_element_fast x] is {!is_element} via Euler's criterion: since
    p = 2q + 1 is a safe prime, the order-q subgroup is exactly the set
    of quadratic residues mod p, and x^q = x^((p-1)/2) = (x/p). The
    Jacobi symbol computes the same bit without a modexp. *)
let is_element_fast (x : int) : bool = x > 0 && x < p && jacobi x p = 1

(** Fixed-width serializations (elements and scalars are < 2^31). *)
let encode_int32 (v : int) : string =
  let b = Bytes.create 4 in
  for i = 0 to 3 do
    Bytes.set b i (Char.chr ((v lsr (8 * (3 - i))) land 0xff))
  done;
  Bytes.unsafe_to_string b

let decode_int32 (s : string) : int =
  if String.length s <> 4 then invalid_arg "Group.decode_int32";
  let v = ref 0 in
  for i = 0 to 3 do
    v := (!v lsl 8) lor Char.code s.[i]
  done;
  !v

let encode_element = encode_int32
let decode_element = decode_int32
let encode_scalar = encode_int32
