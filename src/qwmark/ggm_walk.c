/* The native kernels of qwmark/native.py: a GGM leaf of crypto._ggm_leaf, a
 * whole Sim distribution and a whole RealD distribution of
 * elwm.build_distribution, and a PE decryption of pe._decrypt, each in one call.
 *
 * Bits are held big-endian: bit i of a buffer is bit 7 - i % 8 of byte i / 8,
 * so the first bit is the most significant bit of the first byte.  A w-bit
 * value is held left-aligned in (w + 7) / 8 bytes, as crypto._pack writes it.
 *
 * A child seed is SHA-256("node" || bit || seed)[:16], where bit is the
 * character '0' or '1', and a leaf's output is the blocks
 * SHA-256("leaf|" || node || ctr), ctr a big-endian u32 from 0: the blocks of
 * crypto._stream(node, out_bits, b"leaf") before truncation.
 *
 * There are two walks of a single path down the tree, and both give the same
 * bytes as crypto._hashlib_leaf.  On an x86 CPU with the SHA extensions, SSSE3
 * and SSE4.1, walk_sha_ni runs the compression itself and keeps each node's
 * seed in a register: the node message is a single block, "node" || bit || seed
 * || 0x80 || zeros || the bit length 168, so only its words 1 to 5 depend on
 * the bit and seed.  Elsewhere, and where the library is built with
 * QWMARK_NO_SHA_NI defined, walk_libcrypto hashes each node through libcrypto.
 * The SHA-NI walk takes about 60 ns a node against about 85 ns through
 * libcrypto, on a Xeon of a shared 2-vCPU host.
 *
 * One node waits on the 32 dependent sha256rnds2 of its parent's, so a lone
 * walk runs at the latency of that chain.  The Sim and RealD kernels walk a
 * group of up to 16 paths from one root at once (walk_group).  walk2_sha_ni
 * runs two paths as two lanes, alternating their rounds group by group, and
 * the CPU overlaps the two chains: 40-46 ns a node each on the same host.
 * More SHA-NI lanes gain little (one to four lanes took 61, 40, 39 and 37 ns a
 * node), so a group of more than 8 paths, on a CPU with AVX-512F whose
 * registers the OS saves, runs in walk16_avx512: the 16 paths are the 16
 * 32-bit lanes of AVX-512 registers, and each step compresses all 16 node
 * blocks at once, about 21 ns a node where the pair walk takes 40.  A 16-lane
 * step costs the same with 9 lanes full as with 16, so smaller groups keep the
 * pair walk, and an odd last path walks alone.  The 16-lane walk does not use
 * the SHA extensions, so it runs in the QWMARK_NO_SHA_NI build too.  CPUID and
 * XGETBV pick the walks once, when the library loads; qwmark_sha_ni() and
 * qwmark_avx512() say which run.
 *
 * The leaf blocks, the keyed coins and the PRG blocks hash through libcrypto's
 * low-level SHA256_Init/Update/Final, which OpenSSL 3 deprecates but still
 * exports; the EVP interface costs several times the hash on a 21-byte
 * message.  Built by qwmark/native.py.
 */
#define OPENSSL_SUPPRESS_DEPRECATED
#include <stdlib.h>
#include <string.h>
#include <openssl/sha.h>

#define SEED_BYTES 16
#define BLOCK_BITS (8 * SHA256_DIGEST_LENGTH)

static size_t bytes_of(size_t bits) { return (bits + 7) / 8; }

static size_t blocks_of(size_t bits) { return (bits + BLOCK_BITS - 1) / BLOCK_BITS; }

static unsigned bit_at(const unsigned char *buf, size_t i) { return buf[i / 8] >> (7 - i % 8) & 1; }

/* Copy n bits of src from bit `from` to dst at bit `at`, up to a byte at a time; the other bits of dst keep their
 * values.  It reads only bytes of src that hold bits it copies. */
static void put_bits(unsigned char *dst, size_t at, const unsigned char *src, size_t from, size_t n)
{
    while (n > 0) {
        unsigned shift = from % 8, room = 8 - at % 8, take = n < room ? (unsigned)n : room;
        unsigned bits = src[from / 8] << shift & 0xff; /* the next bits of src, left-aligned in a byte */
        unsigned char mask = (unsigned char)(0xff << (8 - take)) >> at % 8;

        if (shift + take > 8)
            bits |= src[from / 8 + 1] >> (8 - shift);
        dst[at / 8] = (unsigned char)((dst[at / 8] & ~mask) | (bits >> at % 8 & mask));
        at += take;
        from += take;
        n -= take;
    }
}

static void put_u32(unsigned char *dst, unsigned long value)
{
    dst[0] = (unsigned char)(value >> 24);
    dst[1] = (unsigned char)(value >> 16);
    dst[2] = (unsigned char)(value >> 8);
    dst[3] = (unsigned char)value;
}

static unsigned get_u32(const unsigned char *src)
{
    return (unsigned)src[0] << 24 | (unsigned)src[1] << 16 | (unsigned)src[2] << 8 | src[3];
}

static void sha256(const unsigned char *msg, size_t len, unsigned char *digest)
{
    SHA256_CTX ctx;

    SHA256_Init(&ctx);
    SHA256_Update(&ctx, msg, len);
    SHA256_Final(digest, &ctx);
}

/* SHA-256(msg || ctr) for ctr = 0 .. nblocks - 1 into out; msg has room for the 4 counter bytes at msg + len. */
static void counter_blocks(unsigned char *msg, size_t len, size_t nblocks, unsigned char *out)
{
    size_t ctr;

    for (ctr = 0; ctr < nblocks; ctr++) {
        put_u32(msg + len, ctr);
        sha256(msg, len + 4, out + SHA256_DIGEST_LENGTH * ctr);
    }
}

/* Walk nbits of path from seed and write the seed of the node reached to node (16 bytes). */
static void walk_libcrypto(const unsigned char *seed, const unsigned char *path, size_t nbits, unsigned char *node)
{
    unsigned char msg[5 + SEED_BYTES] = {'n', 'o', 'd', 'e'};
    unsigned char digest[SHA256_DIGEST_LENGTH];
    size_t i;

    memcpy(msg + 5, seed, SEED_BYTES);
    for (i = 0; i < nbits; i++) {
        msg[4] = '0' + bit_at(path, i);
        sha256(msg, sizeof msg, digest);
        memcpy(msg + 5, digest, SEED_BYTES);
    }
    memcpy(node, msg + 5, SEED_BYTES);
}


#if defined(__x86_64__) || defined(__i386__)
#define X86_WALKS
#include <cpuid.h>
#endif
#if defined(X86_WALKS) && !defined(QWMARK_NO_SHA_NI)
#define SHA_NI_WALK
#endif

#ifdef X86_WALKS
/* The SHA-256 round constants; the SHA-NI ROUNDS loads words 4g .. 4g + 3 as one register. */
static const unsigned K[64] __attribute__((aligned(16))) = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};
#endif

#ifdef SHA_NI_WALK
/* smmintrin.h and the three SHA builtins: immintrin.h, which declares the SHA
 * intrinsics, triples the time to build the library. */
#include <smmintrin.h>

#define SHA_NI_TARGET __attribute__((target("sha,ssse3,sse4.1")))


/* One lane of a walk: a SHA-256 state as the instructions hold it, elements
 * 3 .. 0 of abef being A, B, E, F and of cdgh C, D, G, H, and the message
 * words W[0 .. 15] of its block, four to a register. */
struct lane {
    __m128i abef, cdgh, w0, w1, w2, w3;
};

/* Rounds 4g .. 4g + 3 of lane x, whose register w holds W[4g .. 4g + 3].  The
 * schedule runs three groups ahead: groups 3 to 14 finish W[4g + 4 ..] in
 * `next` from `prev` and w, and groups 1 to 12 start W[4g + 12 ..] in `prev`. */
#define ROUNDS(x, g, w, prev, next)                                                                              \
    do {                                                                                                         \
        __m128i wk = _mm_add_epi32((x).w, _mm_load_si128((const __m128i *)K + (g)));                            \
        (x).cdgh = (__m128i)__builtin_ia32_sha256rnds2((__v4si)(x).cdgh, (__v4si)(x).abef, (__v4si)wk);         \
        if ((g) >= 3 && (g) <= 14)                                                                               \
            (x).next = (__m128i)__builtin_ia32_sha256msg2(                                                       \
                (__v4si)_mm_add_epi32((x).next, _mm_alignr_epi8((x).w, (x).prev, 4)), (__v4si)(x).w);            \
        wk = _mm_shuffle_epi32(wk, 0x0e);                                                                        \
        (x).abef = (__m128i)__builtin_ia32_sha256rnds2((__v4si)(x).abef, (__v4si)(x).cdgh, (__v4si)wk);         \
        if ((g) >= 1 && (g) <= 12)                                                                               \
            (x).prev = (__m128i)__builtin_ia32_sha256msg1((__v4si)(x).prev, (__v4si)(x).w);                     \
    } while (0)

/* The 64 rounds of a compression, as LANE_ROUNDS(g, w, prev, next) for each group g: the four registers of
 * message words take the roles w, prev and next in turn, every four groups. */
#define FOUR_GROUPS(LANE_ROUNDS, g)                                                                              \
    LANE_ROUNDS(g, w0, w3, w1);                                                                                  \
    LANE_ROUNDS((g) + 1, w1, w0, w2);                                                                            \
    LANE_ROUNDS((g) + 2, w2, w1, w3);                                                                            \
    LANE_ROUNDS((g) + 3, w3, w2, w0)
#define COMPRESS(LANE_ROUNDS)                                                                                    \
    do {                                                                                                         \
        FOUR_GROUPS(LANE_ROUNDS, 0);                                                                             \
        FOUR_GROUPS(LANE_ROUNDS, 4);                                                                             \
        FOUR_GROUPS(LANE_ROUNDS, 8);                                                                             \
        FOUR_GROUPS(LANE_ROUNDS, 12);                                                                            \
    } while (0)

#define ONE_LANE(g, w, prev, next) ROUNDS(a, g, w, prev, next)
#define TWO_LANES(g, w, prev, next)                                                                              \
    do {                                                                                                         \
        ROUNDS(a, g, w, prev, next);                                                                             \
        ROUNDS(b, g, w, prev, next);                                                                             \
    } while (0)

/* The IV as the instructions hold the state. */
#define ABEF_IV _mm_set_epi32(0x6a09e667, 0xbb67ae85, 0x510e527f, 0x9b05688c)
#define CDGH_IV _mm_set_epi32(0x3c6ef372, 0xa54ff53a, 0x1f83d9ab, 0x5be0cd19)
/* Byte order between a 16-byte seed and its four big-endian words in elements 0 to 3, either way. */
#define SEED_WORDS _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3)

/* Start x on the node block of the seed s, held as its words, under the path
 * bit `bit`: x's state is the IV and its message is "node" || '0' + bit || seed
 * || 0x80 || zeros || the bit length 168. */
SHA_NI_TARGET __attribute__((always_inline)) static inline void node_block(struct lane *x, __m128i s, unsigned bit)
{
    /* the seed starts at byte 5, so word k of the block, for k = 1 .. 5, is the low byte of seed word k - 2
     * (the bit character for k = 1, the pad for k = 5) and the top three bytes of seed word k - 1 */
    __m128i low = _mm_slli_epi32(s, 24), high = _mm_srli_epi32(s, 8);

    x->w0 = _mm_or_si128(_mm_or_si128(_mm_slli_si128(high, 4), _mm_slli_si128(low, 8)),
                         _mm_set_epi32(0, 0, ('0' + bit) << 24, 0x6e6f6465));
    x->w1 = _mm_or_si128(_mm_or_si128(_mm_srli_si128(high, 12), _mm_srli_si128(low, 8)),
                         _mm_set_epi32(0, 0, 0x800000, 0));
    x->w2 = _mm_setzero_si128();
    x->w3 = _mm_set_epi32(168, 0, 0, 0);
    x->abef = ABEF_IV;
    x->cdgh = CDGH_IV;
}

/* The seed, as its words, of the child whose node block x has compressed: the digest's first four words, A B C D. */
SHA_NI_TARGET __attribute__((always_inline)) static inline __m128i child_seed(const struct lane *x)
{
    return _mm_shuffle_epi32(_mm_unpackhi_epi64(_mm_add_epi32(x->cdgh, CDGH_IV), _mm_add_epi32(x->abef, ABEF_IV)),
                             0x1b);
}

/* walk_libcrypto on the SHA instructions, with the node's seed in a register. */
SHA_NI_TARGET static void walk_sha_ni(const unsigned char *seed, const unsigned char *path, size_t nbits, unsigned char *node)
{
    __m128i s = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)seed), SEED_WORDS);
    struct lane a;
    size_t i;

    for (i = 0; i < nbits; i++) {
        node_block(&a, s, bit_at(path, i));
        COMPRESS(ONE_LANE);
        s = child_seed(&a);
    }
    _mm_storeu_si128((__m128i *)node, _mm_shuffle_epi8(s, SEED_WORDS));
}

/* walk_sha_ni of two paths of nbits bits from one seed, in two lanes whose
 * rounds alternate, so that the CPU overlaps the two chains of dependent
 * rounds that one lane waits on. */
SHA_NI_TARGET static void walk2_sha_ni(const unsigned char *seed, const unsigned char *path_a, const unsigned char *path_b,
                                size_t nbits, unsigned char *node_a, unsigned char *node_b)
{
    __m128i s_a = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)seed), SEED_WORDS), s_b = s_a;
    struct lane a, b;
    size_t i;

    for (i = 0; i < nbits; i++) {
        node_block(&a, s_a, bit_at(path_a, i));
        node_block(&b, s_b, bit_at(path_b, i));
        COMPRESS(TWO_LANES);
        s_a = child_seed(&a);
        s_b = child_seed(&b);
    }
    _mm_storeu_si128((__m128i *)node_a, _mm_shuffle_epi8(s_a, SEED_WORDS));
    _mm_storeu_si128((__m128i *)node_b, _mm_shuffle_epi8(s_b, SEED_WORDS));
}

/* Whether this CPU has the SHA extensions, SSSE3 and SSE4.1. */
static int cpu_has_sha_ni(void)
{
    unsigned eax, ebx, ecx, edx;

    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx) || !(ecx & bit_SSSE3) || !(ecx & bit_SSE4_1))
        return 0;
    return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) && (ebx & bit_SHA);
}
#else
static int cpu_has_sha_ni(void) { return 0; }
#endif

#ifdef X86_WALKS
/* The 16-lane walk, in GCC's vector extensions rather than immintrin.h, for the
 * build time: under the target attribute a u32x16 is one zmm register, the
 * rotations compile to vprord and Ch and Maj to vpternlogd.  Its state and
 * message words are named variables, not arrays, so that a sanitized build
 * does not check each access of the 64 rounds. */
#define AVX512_TARGET __attribute__((target("avx512f")))
#define WIDE_LANES 16

typedef unsigned u32x16 __attribute__((vector_size(4 * WIDE_LANES)));
typedef unsigned char u8x16 __attribute__((vector_size(WIDE_LANES)));

#define ROTR(x, n) ((x) >> (n) | (x) << (32 - (n)))
#define SIGMA0(x) (ROTR(x, 7) ^ ROTR(x, 18) ^ (x) >> 3)
#define SIGMA1(x) (ROTR(x, 17) ^ ROTR(x, 19) ^ (x) >> 10)

/* Round t of SHA-256 in every lane, the state words A .. H being a .. h and the message word w. */
#define ROUND16(a, b, c, d, e, f, g, h, t, w)                                                                    \
    do {                                                                                                         \
        u32x16 t1 = h + (ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25)) + (g ^ (e & (f ^ g))) + K[t] + (w);            \
        d += t1;                                                                                                 \
        h = t1 + (ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22)) + ((a & b) | (c & (a | b)));                          \
    } while (0)
/* Rounds t .. t + 7: each round's H is the next round's A, so the roles turn round and are back after eight. */
#define EIGHT_ROUNDS(t, w_0, w_1, w_2, w_3, w_4, w_5, w_6, w_7)                                                   \
    do {                                                                                                         \
        ROUND16(a, b, c, d, e, f, g, h, (t), w_0);                                                               \
        ROUND16(h, a, b, c, d, e, f, g, (t) + 1, w_1);                                                           \
        ROUND16(g, h, a, b, c, d, e, f, (t) + 2, w_2);                                                           \
        ROUND16(f, g, h, a, b, c, d, e, (t) + 3, w_3);                                                           \
        ROUND16(e, f, g, h, a, b, c, d, (t) + 4, w_4);                                                           \
        ROUND16(d, e, f, g, h, a, b, c, (t) + 5, w_5);                                                           \
        ROUND16(c, d, e, f, g, h, a, b, (t) + 6, w_6);                                                           \
        ROUND16(b, c, d, e, f, g, h, a, (t) + 7, w_7);                                                           \
    } while (0)
#define SIXTEEN_ROUNDS(t)                                                                                        \
    do {                                                                                                         \
        EIGHT_ROUNDS(t, w0, w1, w2, w3, w4, w5, w6, w7);                                                         \
        EIGHT_ROUNDS((t) + 8, w8, w9, w10, w11, w12, w13, w14, w15);                                             \
    } while (0)
/* W[t] for the next 16 rounds t, in place of W[t - 16], each from the four words it needs. */
#define NEXT_SIXTEEN_WORDS()                                                                                     \
    do {                                                                                                         \
        w0 += SIGMA1(w14) + w9 + SIGMA0(w1);                                                                     \
        w1 += SIGMA1(w15) + w10 + SIGMA0(w2);                                                                    \
        w2 += SIGMA1(w0) + w11 + SIGMA0(w3);                                                                     \
        w3 += SIGMA1(w1) + w12 + SIGMA0(w4);                                                                     \
        w4 += SIGMA1(w2) + w13 + SIGMA0(w5);                                                                     \
        w5 += SIGMA1(w3) + w14 + SIGMA0(w6);                                                                     \
        w6 += SIGMA1(w4) + w15 + SIGMA0(w7);                                                                     \
        w7 += SIGMA1(w5) + w0 + SIGMA0(w8);                                                                      \
        w8 += SIGMA1(w6) + w1 + SIGMA0(w9);                                                                      \
        w9 += SIGMA1(w7) + w2 + SIGMA0(w10);                                                                     \
        w10 += SIGMA1(w8) + w3 + SIGMA0(w11);                                                                    \
        w11 += SIGMA1(w9) + w4 + SIGMA0(w12);                                                                    \
        w12 += SIGMA1(w10) + w5 + SIGMA0(w13);                                                                   \
        w13 += SIGMA1(w11) + w6 + SIGMA0(w14);                                                                   \
        w14 += SIGMA1(w12) + w7 + SIGMA0(w15);                                                                   \
        w15 += SIGMA1(w13) + w8 + SIGMA0(w0);                                                                    \
    } while (0)

/* walk_libcrypto of paths[0 .. lanes - 1], 9 to 16 paths of nbits bits each
 * from one seed, to nodes[0 .. lanes - 1], in the 16 lanes of AVX-512
 * registers: element l of s0 .. s3 is lane l's seed as four big-endian words,
 * and of a .. h its SHA-256 state.  Lanes past `lanes` walk path 0 again and
 * are not written. */
AVX512_TARGET static void walk16_avx512(const unsigned char *seed, const unsigned char *const *paths, size_t nbits,
                                        unsigned lanes, unsigned char (*nodes)[SEED_BYTES])
{
    const unsigned char *lane_path[WIDE_LANES];
    const u32x16 zero = {0};
    u32x16 s0 = zero + get_u32(seed), s1 = zero + get_u32(seed + 4), s2 = zero + get_u32(seed + 8);
    u32x16 s3 = zero + get_u32(seed + 12), path_bytes = zero;
    unsigned l;
    size_t i;

    for (l = 0; l < WIDE_LANES; l++)
        lane_path[l] = paths[l < lanes ? l : 0];
    for (i = 0; i < nbits; i++) {
        u32x16 a = zero + 0x6a09e667, b = zero + 0xbb67ae85, c = zero + 0x3c6ef372, d = zero + 0xa54ff53a;
        u32x16 e = zero + 0x510e527f, f = zero + 0x9b05688c, g = zero + 0x1f83d9ab, h = zero + 0x5be0cd19;
        /* the node block: "node" || '0' + bit || seed || 0x80 || zeros || the bit length 168 */
        u32x16 w0 = zero + 0x6e6f6465, w1, w2 = s0 << 24 | s1 >> 8, w3 = s1 << 24 | s2 >> 8, w4 = s2 << 24 | s3 >> 8;
        u32x16 w5 = s3 << 24 | 0x800000, w6 = zero, w7 = zero, w8 = zero, w9 = zero, w10 = zero, w11 = zero;
        u32x16 w12 = zero, w13 = zero, w14 = zero, w15 = zero + 168;

        if (i % 8 == 0) {
            u8x16 byte;

            for (l = 0; l < WIDE_LANES; l++)
                byte[l] = lane_path[l][i / 8];
            path_bytes = __builtin_convertvector(byte, u32x16);
        }
        w1 = ('0' + (path_bytes >> (7 - i % 8) & 1)) << 24 | s0 >> 8;
        SIXTEEN_ROUNDS(0);
        NEXT_SIXTEEN_WORDS();
        SIXTEEN_ROUNDS(16);
        NEXT_SIXTEEN_WORDS();
        SIXTEEN_ROUNDS(32);
        NEXT_SIXTEEN_WORDS();
        SIXTEEN_ROUNDS(48);
        /* the child's seed: the digest's first four words */
        s0 = a + 0x6a09e667;
        s1 = b + 0xbb67ae85;
        s2 = c + 0x3c6ef372;
        s3 = d + 0xa54ff53a;
    }
    for (l = 0; l < lanes; l++) {
        put_u32(nodes[l], s0[l]);
        put_u32(nodes[l] + 4, s1[l]);
        put_u32(nodes[l] + 8, s2[l]);
        put_u32(nodes[l] + 12, s3[l]);
    }
}

/* Whether this CPU runs AVX-512F and the OS saves its registers: CPUID's
 * OSXSAVE and AVX512F bits, and the SSE, AVX, opmask and ZMM state bits of
 * XCR0, which XGETBV reads. */
static int cpu_has_avx512(void)
{
    unsigned eax, ebx, ecx, edx, xcr0, xcr0_high;

    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx) || !(ecx & bit_OSXSAVE))
        return 0;
    if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) || !(ebx & bit_AVX512F))
        return 0;
    __asm__("xgetbv" : "=a"(xcr0), "=d"(xcr0_high) : "c"(0));
    return (xcr0 & 0xe6) == 0xe6;
}
#else
static int cpu_has_avx512(void) { return 0; }
#endif

static int sha_ni, avx512;

__attribute__((constructor)) static void pick_walks(void)
{
    sha_ni = cpu_has_sha_ni();
    avx512 = cpu_has_avx512();
}

/* 1 if one path is walked on the SHA instructions, 0 if through libcrypto. */
int qwmark_sha_ni(void) { return sha_ni; }

/* 1 if a group of more than 8 paths is walked in the 16 lanes of walk16_avx512, else 0. */
int qwmark_avx512(void) { return avx512; }

static void walk(const unsigned char *seed, const unsigned char *path, size_t nbits, unsigned char *node)
{
#ifdef SHA_NI_WALK
    if (sha_ni) {
        walk_sha_ni(seed, path, nbits, node);
        return;
    }
#endif
    walk_libcrypto(seed, path, nbits, node);
}

#define GROUP 16 /* the records qwmark_sim and qwmark_reald walk at once: the lanes of walk16_avx512 */

/* walk() of paths[0 .. lanes - 1], 1 to GROUP paths of nbits bits each from
 * one seed, to nodes[0 .. lanes - 1]: in the 16 lanes of walk16_avx512 if
 * there are more than 8 and the CPU has AVX-512, else two at a time on the SHA
 * instructions and an odd last one alone, else one after the other. */
static void walk_group(const unsigned char *seed, const unsigned char *const *paths, size_t nbits, unsigned lanes,
                       unsigned char (*nodes)[SEED_BYTES])
{
    unsigned l;

#ifdef X86_WALKS
    if (avx512 && lanes > 8) {
        walk16_avx512(seed, paths, nbits, lanes, nodes);
        return;
    }
#endif
    for (l = 0; l < lanes; l++) {
#ifdef SHA_NI_WALK
        if (sha_ni && l + 1 < lanes) {
            walk2_sha_ni(seed, paths[l], paths[l + 1], nbits, nodes[l], nodes[l + 1]);
            l++;
            continue;
        }
#endif
        walk(seed, paths[l], nbits, nodes[l]);
    }
}

/* The first nblocks blocks of the leaf output of node. */
static void leaf_blocks(const unsigned char *node, size_t nblocks, unsigned char *out)
{
    unsigned char msg[5 + SEED_BYTES + 4] = {'l', 'e', 'a', 'f', '|'};

    memcpy(msg + 5, node, SEED_BYTES);
    counter_blocks(msg, 5 + SEED_BYTES, nblocks, out);
}

/* Walk the first nbits bits of `path` from `seed`.  With nblocks = 0 write the
 * seed of the node reached to `out` (16 bytes), which is what puncturing
 * needs; otherwise write that node's first nblocks leaf blocks (32 * nblocks
 * bytes).  Zero bits walk nothing. */
void qwmark_ggm_leaf(const unsigned char *seed, const unsigned char *path, unsigned nbits, unsigned nblocks,
                     unsigned char *out)
{
    unsigned char node[SEED_BYTES];

    walk(seed, path, nbits, node);
    if (nblocks == 0)
        memcpy(out, node, SEED_BYTES);
    else
        leaf_blocks(node, nblocks, out);
}

/* crypto._prg of the width-bit value at bit `from` of src: the first nblocks
 * blocks of SHA-256("prg|bits|" || value || u32 width || ctr).  msg has room
 * for 9 + (width + 7) / 8 + 8 bytes. */
static void prg(const unsigned char *src, size_t from, size_t width, size_t nblocks, unsigned char *msg,
                unsigned char *out)
{
    size_t packed = bytes_of(width);

    memcpy(msg, "prg|bits|", 9);
    memset(msg + 9, 0, packed);
    put_bits(msg + 9, 0, src, from, width);
    put_u32(msg + 9 + packed, width);
    counter_blocks(msg, 9 + packed + 4, nblocks, out);
}

/* Write the n bits of src from bit `from` to an n-bit field of `bytes` bytes at dst, right-aligned (the big-endian
 * int). */
static void put_int(unsigned char *dst, size_t bytes, const unsigned char *src, size_t from, size_t n)
{
    memset(dst, 0, bytes);
    put_bits(dst, 8 * bytes - n, src, from, n);
}

/* Write the n bits of src from bit `from` to dst as n characters '0' and '1', as Python's format(value, "0nb"). */
static void put_text(unsigned char *dst, const unsigned char *src, size_t from, size_t n)
{
    size_t i;

    for (i = 0; i < n; i++)
        dst[i] = (unsigned char)('0' + bit_at(src, from + i));
}

/* out ^= A x + b, where x is the in_bits bits of `in` and the affine map's in_bits columns and then its offset
 * b are each out_bytes bytes of `affine`: the injective PPRF's mask of crypto._affine_mask. */
static void affine_mask(unsigned char *out, size_t out_bytes, const unsigned char *affine, const unsigned char *in,
                        size_t in_bits)
{
    size_t i, j;

    for (i = 0; i < out_bytes; i++)
        out[i] ^= affine[in_bits * out_bytes + i];
    for (j = 0; j < in_bits; j++)
        if (bit_at(in, j))
            for (i = 0; i < out_bytes; i++)
                out[i] ^= affine[j * out_bytes + i];
}

/* The buffers of one record of qwmark_sim. */
struct sim_record {
    unsigned char *coins, *m, *alpha, *f_in, *beta, *g_out, *x;
};

/* The `count` records of elwm.build_distribution(index, ...) for a Sim index.
 *
 * head is the coin label up to the record number: "coin|" || coin_key || "#"
 * || master_seed || "S" || u16 index, so record r's coins are the first
 * 1 + seed_bits + ell bits of SHA-256(head || u32 r || u32 ctr), ell =
 * seed_bits + idx_bits + 1.  They are gamma, the PRG seed s, and the
 * encryption seed.  The plaintext m is s || index0 (idx_bits) || gamma, and
 * the record is
 *   m                     (ell bits)
 *   x = alpha || beta || G(beta) xor m   (12 ell bits), where
 *       alpha = PRG(encryption seed)     (2 ell bits)
 *       beta  = F(alpha || m)            (9 ell bits)
 *   y = PRG(s)            (range_bits bits)
 * F is the injective PPRF: the leaf of alpha || m under f_seed (a 3 ell-bit
 * walk) xor the affine map, whose 3 ell columns and offset are each
 * (9 ell + 7) / 8 bytes of `affine`; G is the leaf of beta under g_seed.
 * out holds the count m and then the count x, each a right-aligned big-endian
 * int of whole bytes, and then the count x and the count y again, each as its
 * bits in the characters '0' and '1'.  The records are built in
 * groups of GROUP, whose F walks run at once and then their G walks
 * (walk_group), and the last group takes what is left.  Returns 0, or -1 if
 * its scratch memory cannot be had. */
int qwmark_sim(const unsigned char *head, unsigned head_len, unsigned count, unsigned seed_bits, unsigned idx_bits,
               unsigned index0, unsigned range_bits, const unsigned char *f_seed, const unsigned char *affine,
               const unsigned char *g_seed, unsigned char *out)
{
    size_t ell = (size_t)seed_bits + idx_bits + 1, coin_bits = 1 + seed_bits + ell, prg_in = ell;
    size_t m_bytes = bytes_of(ell), x_bytes = bytes_of(12 * ell);
    size_t coin_len = 32 * blocks_of(coin_bits), alpha_len = 32 * blocks_of(2 * ell);
    size_t beta_len = 32 * blocks_of(9 * ell), g_len = 32 * blocks_of(ell), y_len = 32 * blocks_of(range_bits);
    size_t lane_len = coin_len + m_bytes + alpha_len + bytes_of(3 * ell) + beta_len + g_len + x_bytes;
    size_t r, i;
    unsigned lanes, l;
    unsigned char *m_col = out, *x_col = m_col + count * m_bytes, *x_text = x_col + count * x_bytes;
    unsigned char *y_text = x_text + count * 12 * ell;
    unsigned char *scratch, *coin_msg, *prg_msg, *y, index_bits[2], nodes[GROUP][SEED_BYTES];
    const unsigned char *paths[GROUP];
    struct sim_record rec[GROUP], *k;

    if (seed_bits > prg_in)
        prg_in = seed_bits;
    scratch = malloc(head_len + 8 + 9 + bytes_of(prg_in) + 8 + y_len + GROUP * lane_len);
    if (scratch == NULL)
        return -1;
    coin_msg = scratch;
    prg_msg = coin_msg + head_len + 8;
    y = prg_msg + 9 + bytes_of(prg_in) + 8;
    for (l = 0; l < GROUP; l++) {
        k = &rec[l];
        k->coins = y + y_len + l * lane_len;
        k->m = k->coins + coin_len;
        k->alpha = k->m + m_bytes;
        k->f_in = k->alpha + alpha_len;
        k->beta = k->f_in + bytes_of(3 * ell);
        k->g_out = k->beta + beta_len;
        k->x = k->g_out + g_len;
    }

    memcpy(coin_msg, head, head_len);
    index_bits[0] = (unsigned char)(index0 << (16 - idx_bits) >> 8);
    index_bits[1] = (unsigned char)(index0 << (16 - idx_bits));
    for (r = 0; r < count; r += lanes) {
        lanes = count - r < GROUP ? (unsigned)(count - r) : GROUP;
        for (l = 0; l < lanes; l++) {
            k = &rec[l];
            put_u32(coin_msg + head_len, r + l);
            counter_blocks(coin_msg, head_len + 4, blocks_of(coin_bits), k->coins);
            /* m = s || index0 || gamma */
            put_bits(k->m, 0, k->coins, 1, seed_bits);
            put_bits(k->m, seed_bits, index_bits, 0, idx_bits);
            put_bits(k->m, ell - 1, k->coins, 0, 1);
            prg(k->coins, 1 + seed_bits, ell, blocks_of(2 * ell), prg_msg, k->alpha);
            put_bits(k->f_in, 0, k->alpha, 0, 2 * ell);
            put_bits(k->f_in, 2 * ell, k->m, 0, ell);
            paths[l] = k->f_in;
        }
        /* beta = F(alpha || m) */
        walk_group(f_seed, paths, 3 * ell, lanes, nodes);
        for (l = 0; l < lanes; l++) {
            k = &rec[l];
            leaf_blocks(nodes[l], blocks_of(9 * ell), k->beta);
            affine_mask(k->beta, bytes_of(9 * ell), affine, k->f_in, 3 * ell);
            paths[l] = k->beta;
        }
        /* G(beta) xor m */
        walk_group(g_seed, paths, 9 * ell, lanes, nodes);
        for (l = 0; l < lanes; l++) {
            k = &rec[l];
            leaf_blocks(nodes[l], blocks_of(ell), k->g_out);
            for (i = 0; i < m_bytes; i++)
                k->g_out[i] ^= k->m[i];
            put_bits(k->x, 0, k->alpha, 0, 2 * ell);
            put_bits(k->x, 2 * ell, k->beta, 0, 9 * ell);
            put_bits(k->x, 11 * ell, k->g_out, 0, ell);
            prg(k->coins, 1, seed_bits, blocks_of(range_bits), prg_msg, y);
            put_int(m_col + (r + l) * m_bytes, m_bytes, k->m, 0, ell);
            put_int(x_col + (r + l) * x_bytes, x_bytes, k->x, 0, 12 * ell);
            put_text(x_text + (r + l) * 12 * ell, k->x, 0, 12 * ell);
            put_text(y_text + (r + l) * range_bits, y, 0, range_bits);
        }
    }
    free(scratch);
    return 0;
}

/* The `count` records (b, x, y) of elwm.build_distribution(None, ...), a
 * RealD distribution under the n-bit to m-bit GGM PRF F of root `root`.
 *
 * head is the coin label up to the record number: "coin|" || coin_key || "#"
 * || master_seed || "R", so record r's coins are the first 1 + n + m bits of
 * SHA-256(head || u32 r || u32 ctr): b, then x (n bits), then m bits that are
 * the record's y where b is 0.  Where b is 1, y is F(x): the first m bits of
 * the leaf of x under root.  out holds the count b, one byte each, then the
 * count x and the count y, each a right-aligned big-endian int of whole bytes,
 * and then the count x and the count y again, each as its bits in the
 * characters '0' and '1'.  The x of the records with b = 1 are walked in groups of GROUP as they
 * come (walk_group), and the last group takes what is left.  Returns 0, or -1
 * if its scratch memory cannot be had. */
int qwmark_reald(const unsigned char *head, unsigned head_len, unsigned count, unsigned n, unsigned m,
                 const unsigned char *root, unsigned char *out)
{
    size_t coin_bits = 1 + (size_t)n + m, x_bytes = bytes_of(n), y_bytes = bytes_of(m), r, waiting[GROUP];
    unsigned char *b_col = out, *x_col = b_col + count, *y_col = x_col + count * x_bytes;
    unsigned char *x_text = y_col + count * y_bytes, *y_text = x_text + (size_t)count * n;
    unsigned char *scratch, *coin_msg, *coins, *leaf, *path_bufs, nodes[GROUP][SEED_BYTES];
    const unsigned char *paths[GROUP];
    unsigned lanes = 0, l;

    scratch = malloc(head_len + 8 + 32 * blocks_of(coin_bits) + 32 * blocks_of(m) + GROUP * x_bytes);
    if (scratch == NULL)
        return -1;
    coin_msg = scratch;
    coins = coin_msg + head_len + 8;
    leaf = coins + 32 * blocks_of(coin_bits);
    path_bufs = leaf + 32 * blocks_of(m);
    for (l = 0; l < GROUP; l++)
        paths[l] = path_bufs + l * x_bytes;

    memcpy(coin_msg, head, head_len);
    for (r = 0; r < count; r++) {
        put_u32(coin_msg + head_len, r);
        counter_blocks(coin_msg, head_len + 4, blocks_of(coin_bits), coins);
        b_col[r] = (unsigned char)bit_at(coins, 0);
        put_int(x_col + r * x_bytes, x_bytes, coins, 1, n);
        put_text(x_text + r * n, coins, 1, n);
        if (b_col[r]) {
            put_bits(path_bufs + lanes * x_bytes, 0, coins, 1, n);
            waiting[lanes++] = r;
        } else {
            put_int(y_col + r * y_bytes, y_bytes, coins, 1 + n, m);
            put_text(y_text + r * m, coins, 1 + n, m);
        }
        if (lanes == GROUP || (lanes > 0 && r + 1 == count)) {
            /* y = F(x) */
            walk_group(root, paths, n, lanes, nodes);
            for (l = 0; l < lanes; l++) {
                leaf_blocks(nodes[l], blocks_of(m), leaf);
                put_int(y_col + waiting[l] * y_bytes, y_bytes, leaf, 0, m);
                put_text(y_text + waiting[l] * m, leaf, 0, m);
            }
            lanes = 0;
        }
    }
    free(scratch);
    return 0;
}

/* pe._decrypt of a 12 ell-bit ciphertext c = alpha || beta || gamma, held
 * right-aligned in (12 ell + 7) / 8 bytes (the big-endian int): m = G(beta)
 * xor gamma, where G is the leaf of beta under g_seed (a 9 ell-bit walk), and
 * c is a ciphertext iff beta = F(alpha || m), F being the leaf of alpha || m
 * under f_seed (a 3 ell-bit walk) xor the affine map `affine`, laid out as in
 * qwmark_sim.  Returns 1 and writes m to m_out, right-aligned in (ell + 7) / 8
 * bytes, if c is a ciphertext; 0 if it is not; -1 if its scratch memory cannot
 * be had. */
int qwmark_decrypt(const unsigned char *c, unsigned ell, const unsigned char *f_seed, const unsigned char *affine,
                   const unsigned char *g_seed, unsigned char *m_out)
{
    size_t n = ell, at = 8 * bytes_of(12 * n) - 12 * n, beta_bytes = bytes_of(9 * n), tail = 9 * n % 8, i;
    unsigned char node[SEED_BYTES], *scratch, *beta, *g_out, *m, *f_in, *f_out;
    int found;

    scratch = calloc(beta_bytes + 32 * blocks_of(n) + bytes_of(n) + bytes_of(3 * n) + 32 * blocks_of(9 * n), 1);
    if (scratch == NULL)
        return -1;
    beta = scratch;
    g_out = beta + beta_bytes;
    m = g_out + 32 * blocks_of(n);
    f_in = m + bytes_of(n);
    f_out = f_in + bytes_of(3 * n);
    /* m = G(beta) xor gamma */
    put_bits(beta, 0, c, at + 2 * n, 9 * n);
    walk(g_seed, beta, 9 * n, node);
    leaf_blocks(node, blocks_of(n), g_out);
    put_bits(m, 0, c, at + 11 * n, n);
    for (i = 0; i < bytes_of(n); i++)
        m[i] ^= g_out[i];
    /* F(alpha || m), compared with beta on its 9 ell bits */
    put_bits(f_in, 0, c, at, 2 * n);
    put_bits(f_in, 2 * n, m, 0, n);
    walk(f_seed, f_in, 3 * n, node);
    leaf_blocks(node, blocks_of(9 * n), f_out);
    affine_mask(f_out, beta_bytes, affine, f_in, 3 * n);
    found = memcmp(f_out, beta, 9 * n / 8) == 0 &&
            (tail == 0 || (f_out[9 * n / 8] ^ beta[9 * n / 8]) >> (8 - tail) == 0);
    if (found)
        put_int(m_out, bytes_of(n), m, 0, n);
    free(scratch);
    return found;
}
