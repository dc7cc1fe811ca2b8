/* SHA-256 block compression on the x86 SHA extensions (SHA-NI).

   Two primitives for lib/crypto/sha256.ml:

   - daric_sha256_ni_available: CPUID leaf 7 EBX bit 29 (SHA) together
     with SSSE3 and SSE4.1 from leaf 1. False on any other target.
   - daric_sha256_ni_blocks: compress [n] consecutive 64-byte blocks of
     a string, from a byte offset, into an 8-word chaining value held
     as an OCaml int array (one 32-bit word per element). It allocates
     nothing and raises nothing; the caller checks the bounds.

   The kernel is compiled for the extensions through a function target
   attribute, so the file needs no global -msha flag and the rest of
   the library stays baseline x86-64. It must only be called after the
   check returned true. */

#include <stdint.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <cpuid.h>
#include <immintrin.h>

value daric_sha256_ni_available(value unit)
{
  unsigned int a, b, c, d;
  (void)unit;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return Val_false;
  int ssse3 = (c >> 9) & 1, sse41 = (c >> 19) & 1;
  if (__get_cpuid_max(0, NULL) < 7) return Val_false;
  __cpuid_count(7, 0, a, b, c, d);
  int sha = (b >> 29) & 1;
  return Val_bool(ssse3 && sse41 && sha);
}

static const uint32_t K[64] __attribute__((aligned(16))) = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

/* Four rounds g*4 .. g*4+3 on message words [w]: sha256rnds2 does two
   rounds and reads its round inputs from the low half of its third
   operand, so the high half is moved down for the second pair. */
#define QUAD(g, w)                                                       \
  do {                                                                   \
    __m128i m_ = _mm_add_epi32((w), _mm_load_si128((const __m128i *)&K[4 * (g)])); \
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, m_);                        \
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(m_, 0x0E)); \
  } while (0)

/* Message schedule: [next] (words of the group after [cur]) is
   finished from [cur] and [prev]; [prev] is then started for the group
   four after it. */
#define MSG2(next, cur, prev)                                            \
  next = _mm_sha256msg2_epu32(                                           \
      _mm_add_epi32(next, _mm_alignr_epi8(cur, prev, 4)), cur)
#define MSG1(prev, cur) prev = _mm_sha256msg1_epu32(prev, cur)

__attribute__((target("sha,sse4.1,ssse3")))
static void sha256_ni_blocks(uint32_t st[8], const unsigned char *p, intnat n)
{
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  /* (A,B,C,D), (E,F,G,H) -> the lane order the instructions use:
     abef = (F,E,B,A), cdgh = (H,G,D,C), lowest lane first. */
  __m128i t = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&st[0]), 0xB1);
  __m128i cdgh = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&st[4]), 0x1B);
  __m128i abef = _mm_alignr_epi8(t, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, t, 0xF0);

  for (; n > 0; n--, p += 64) {
    __m128i abef0 = abef, cdgh0 = cdgh;
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 0)), bswap);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);

    QUAD(0, w0);
    QUAD(1, w1);  MSG1(w0, w1);
    QUAD(2, w2);  MSG1(w1, w2);
    QUAD(3, w3);  MSG2(w0, w3, w2); MSG1(w2, w3);
    QUAD(4, w0);  MSG2(w1, w0, w3); MSG1(w3, w0);
    QUAD(5, w1);  MSG2(w2, w1, w0); MSG1(w0, w1);
    QUAD(6, w2);  MSG2(w3, w2, w1); MSG1(w1, w2);
    QUAD(7, w3);  MSG2(w0, w3, w2); MSG1(w2, w3);
    QUAD(8, w0);  MSG2(w1, w0, w3); MSG1(w3, w0);
    QUAD(9, w1);  MSG2(w2, w1, w0); MSG1(w0, w1);
    QUAD(10, w2); MSG2(w3, w2, w1); MSG1(w1, w2);
    QUAD(11, w3); MSG2(w0, w3, w2); MSG1(w2, w3);
    QUAD(12, w0); MSG2(w1, w0, w3); MSG1(w3, w0);
    QUAD(13, w1); MSG2(w2, w1, w0);
    QUAD(14, w2); MSG2(w3, w2, w1);
    QUAD(15, w3);

    abef = _mm_add_epi32(abef, abef0);
    cdgh = _mm_add_epi32(cdgh, cdgh0);
  }

  /* Back to (A,B,C,D), (E,F,G,H). */
  t = _mm_shuffle_epi32(abef, 0x1B);
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128((__m128i *)&st[0], _mm_blend_epi16(t, cdgh, 0xF0));
  _mm_storeu_si128((__m128i *)&st[4], _mm_alignr_epi8(cdgh, t, 8));
}

value daric_sha256_ni_blocks(value h, value s, value off, value n)
{
  uint32_t st[8];
  for (int i = 0; i < 8; i++) st[i] = (uint32_t)Long_val(Field(h, i));
  sha256_ni_blocks(st, (const unsigned char *)String_val(s) + Long_val(off),
                   Long_val(n));
  /* Immediate ints: no write barrier needed. */
  for (int i = 0; i < 8; i++) Field(h, i) = Val_long(st[i]);
  return Val_unit;
}

#else

value daric_sha256_ni_available(value unit)
{
  (void)unit;
  return Val_false;
}

/* Unreachable: the OCaml side selects this only when the check above
   returned true. */
value daric_sha256_ni_blocks(value h, value s, value off, value n)
{
  (void)h; (void)s; (void)off; (void)n;
  return Val_unit;
}

#endif
