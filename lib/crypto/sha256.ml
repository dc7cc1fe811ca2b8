(** SHA-256 (FIPS 180-4), pure OCaml.

    Implemented on 32-bit words carried in native ints; every word is
    masked to 32 bits after arithmetic. Verified in the test suite
    against the FIPS/NIST vectors. *)

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

let mask = 0xffffffff
let ( &: ) a b = a land b
let ( |: ) a b = a lor b
let ( ^: ) a b = a lxor b
let add32 a b = (a + b) &: mask

(* Unaligned 16-bit loads, for assembling big-endian 32-bit schedule
   words in two loads instead of four byte reads. The primitives return
   immediate ints (unlike the 32-bit load, which boxes an Int32). *)
external get16u : string -> int -> int = "%caml_string_get16u"
external bswap16 : int -> int = "%bswap16"

type ctx = { h : int array; w : int array }
(** [w] is the 64-word message schedule, allocated once per context and
    reused by every [compress] call instead of per block. *)

let init () : ctx =
  { h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
         0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    w = Array.make 64 0 }

(* Hot path: bounds checks are skipped (offsets are validated by the
   caller) and masking is deferred — all inputs are 32-bit, so sums of
   up to five terms stay well inside the 63-bit native int and only the
   final assignment masks back to 32 bits.

   Rotations use the duplicate-word trick: for a 32-bit x, the value
   x | (x lsl 32) carries every rotation of x as a 32-bit window, so a
   three-rotation sigma is three shifts, two xors and one mask instead
   of six shifts, three masks and five or/xors. (Bit 31 of the high
   copy falls off the 63-bit native int, but the windows read here stop
   at bit 56.) *)
let compress (ctx : ctx) (block : string) (off : int) =
  let w = ctx.w in
  let word16 i = bswap16 (get16u block i) in
  for t = 0 to 15 do
    let i = off + (4 * t) in
    Array.unsafe_set w t ((word16 i lsl 16) |: word16 (i + 2))
  done;
  for t = 16 to 63 do
    let w15 = Array.unsafe_get w (t - 15) and w2 = Array.unsafe_get w (t - 2) in
    let d15 = w15 |: (w15 lsl 32) and d2 = w2 |: (w2 lsl 32) in
    let s0 = ((d15 lsr 7) ^: (d15 lsr 18) ^: (w15 lsr 3)) &: mask in
    let s1 = ((d2 lsr 17) ^: (d2 lsr 19) ^: (w2 lsr 10)) &: mask in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1)
      &: mask)
  done;
  let h = ctx.h in
  (* The working variables live as arguments of a tail-recursive loop
     rather than [ref] cells: without flambda, local refs are boxed and
     every round would pay 16+ heap loads/stores; as loop parameters
     they stay in registers. *)
  let rec round t a b c d e f g hh =
    if t = 64 then begin
      h.(0) <- add32 h.(0) a;
      h.(1) <- add32 h.(1) b;
      h.(2) <- add32 h.(2) c;
      h.(3) <- add32 h.(3) d;
      h.(4) <- add32 h.(4) e;
      h.(5) <- add32 h.(5) f;
      h.(6) <- add32 h.(6) g;
      h.(7) <- add32 h.(7) hh
    end
    else
      let de = e |: (e lsl 32) in
      let s1 = ((de lsr 6) ^: (de lsr 11) ^: (de lsr 25)) &: mask in
      (* ch = (e & f) ^ (~e & g), rewritten to need no 32-bit not *)
      let ch = g ^: (e &: (f ^: g)) in
      let t1 = hh + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t in
      let da = a |: (a lsl 32) in
      let s0 = ((da lsr 2) ^: (da lsr 13) ^: (da lsr 22)) &: mask in
      (* maj = (a & b) ^ (a & c) ^ (b & c), one and fewer *)
      let maj = (a &: b) ^: (c &: (a ^: b)) in
      round (t + 1) ((t1 + s0 + maj) &: mask) a b c ((d + t1) &: mask) e f g
  in
  round 0 h.(0) h.(1) h.(2) h.(3) h.(4) h.(5) h.(6) h.(7)

let output_of_h (h : int array) : string =
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = Array.unsafe_get h i in
    Bytes.unsafe_set out (4 * i) (Char.unsafe_chr ((v lsr 24) land 0xff));
    Bytes.unsafe_set out ((4 * i) + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
    Bytes.unsafe_set out ((4 * i) + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.unsafe_set out ((4 * i) + 3) (Char.unsafe_chr (v land 0xff))
  done;
  Bytes.unsafe_to_string out

(* Pad-and-finish into a domain-local two-block scratch: writes the
   remaining [rem] bytes already placed at the scratch head, the 0x80
   marker, zeros and the 64-bit big-endian bit length, then compresses
   the one or two tail blocks. Shared by every digest path, so
   finishing a hash allocates nothing beyond the 32-byte output. *)
let tail_scratch : Bytes.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Bytes.create 128)

let finish_tail (ctx : ctx) (tail : Bytes.t) (rem : int) (total : int) : string =
  let tail_blocks = if rem < 56 then 1 else 2 in
  Bytes.fill tail rem ((tail_blocks * 64) - rem) '\000';
  Bytes.unsafe_set tail rem '\x80';
  let bits = total * 8 in
  for i = 0 to 7 do
    Bytes.unsafe_set tail
      ((tail_blocks * 64) - 1 - i)
      (Char.unsafe_chr ((bits lsr (8 * i)) land 0xff))
  done;
  let tail_s = Bytes.unsafe_to_string tail in
  compress ctx tail_s 0;
  if tail_blocks = 2 then compress ctx tail_s 64;
  output_of_h ctx.h

(* One scratch context per domain: [digest] resets its chaining array
   in place instead of allocating a fresh [ctx] (and 64-word schedule)
   per call. *)
let iv = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
            0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

let ctx_scratch : ctx Domain.DLS.key =
  Domain.DLS.new_key (fun () -> init ())

(** [digest s] is the 32-byte SHA-256 digest of [s].

    Full 64-byte blocks are compressed in place from [msg] — the input
    is never copied into a padded buffer. Only the tail (the remaining
    bytes, the 0x80 marker, zeros and the 64-bit big-endian bit length)
    lands in a small domain-local scratch of at most two blocks; the
    context itself is domain-local too, so a digest allocates only its
    32-byte result. *)
let digest (msg : string) : string =
  let ctx = Domain.DLS.get ctx_scratch in
  Array.blit iv 0 ctx.h 0 8;
  let len = String.length msg in
  let full = len / 64 in
  for b = 0 to full - 1 do
    compress ctx msg (b * 64)
  done;
  let rem = len - (full * 64) in
  let tail = Domain.DLS.get tail_scratch in
  Bytes.blit_string msg (full * 64) tail 0 rem;
  finish_tail ctx tail rem len

(* ------------------------------------------------------------------ *)
(* Streaming interface.                                                *)

type st = {
  st_h : int array;  (** chaining value after [st_total / 64] blocks *)
  st_buf : Bytes.t;  (** 64-byte partial-block buffer *)
  mutable st_buflen : int;
  mutable st_total : int;  (** total bytes fed *)
}
(** A resumable hash state. The point of the streaming interface is
    *midstates*: feed a fixed prefix once (e.g. the 64-byte tagged-hash
    prefix), keep the state, and later produce digests of
    prefix-plus-suffix without recompressing the prefix — see
    {!st_digest}, which never mutates the state it reads. *)

(* The 64-word message schedule is scratch within one [compress]; all
   streaming states on a domain share one, so cloning a state copies
   only the 8-word chaining value and the partial block. *)
let st_scratch_w : int array Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Array.make 64 0)

let st_create () : st =
  { st_h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
         0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    st_buf = Bytes.create 64;
    st_buflen = 0;
    st_total = 0 }

(* Compress with a borrowed schedule: a [ctx] sharing the state's
   chaining array and the domain scratch. *)
let st_ctx (st : st) : ctx = { h = st.st_h; w = Domain.DLS.get st_scratch_w }

(** [st_feed st s off len] absorbs [len] bytes of [s] from [off]. *)
let st_feed (st : st) (s : string) (off : int) (len : int) : unit =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Sha256.st_feed";
  let ctx = st_ctx st in
  let pos = ref off and left = ref len in
  st.st_total <- st.st_total + len;
  (* top up a partial block first *)
  if st.st_buflen > 0 then begin
    let take = min !left (64 - st.st_buflen) in
    Bytes.blit_string s !pos st.st_buf st.st_buflen take;
    st.st_buflen <- st.st_buflen + take;
    pos := !pos + take;
    left := !left - take;
    if st.st_buflen = 64 then begin
      compress ctx (Bytes.unsafe_to_string st.st_buf) 0;
      st.st_buflen <- 0
    end
  end;
  (* whole blocks straight from the input, no copy *)
  while !left >= 64 do
    compress ctx s !pos;
    pos := !pos + 64;
    left := !left - 64
  done;
  if !left > 0 then begin
    Bytes.blit_string s !pos st.st_buf 0 !left;
    st.st_buflen <- !left
  end

(* Finalize destructively: pad and emit. *)
let st_finalize (st : st) : string =
  let ctx = st_ctx st in
  let rem = st.st_buflen in
  let tail = Domain.DLS.get tail_scratch in
  Bytes.blit st.st_buf 0 tail 0 rem;
  finish_tail ctx tail rem st.st_total

(* Scratch state for the non-mutating digest path: [st_digest] restores
   the midstate into this per-domain state instead of allocating a
   fresh copy per call. *)
let st_scratch : st Domain.DLS.key = Domain.DLS.new_key (fun () -> st_create ())

(** [st_digest st parts] is the digest of everything fed to [st] so far
    followed by the [(string, off, len)] slices of [parts], without
    mutating [st] — the midstate entry point: the caller keeps [st]
    (typically a cached fixed-prefix state) and derives digests of
    arbitrary suffixes from it, each suffix fed as slices with no
    intermediate concatenation. Allocation-free beyond the 32-byte
    result: the working copy is a domain-local scratch state. *)
let st_digest (st : st) (parts : (string * int * int) list) : string =
  let tmp = Domain.DLS.get st_scratch in
  Array.blit st.st_h 0 tmp.st_h 0 8;
  Bytes.blit st.st_buf 0 tmp.st_buf 0 st.st_buflen;
  tmp.st_buflen <- st.st_buflen;
  tmp.st_total <- st.st_total;
  List.iter (fun (s, off, len) -> st_feed tmp s off len) parts;
  st_finalize tmp

(** Hex digest, convenience for tests. *)
let hexdigest (msg : string) : string = Daric_util.Hex.encode (digest msg)
