/* The native kernels of qwmark/native.py: a GGM leaf of crypto._ggm_leaf, a
 * whole Sim distribution of elwm.build_distribution, and a PE decryption of
 * pe._decrypt, each in one call.
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
 * There are two walks down the tree, and both give the same bytes as the
 * third, crypto._hashlib_leaf.  On an x86 CPU with the SHA extensions, SSSE3
 * and SSE4.1, which CPUID reports once when the library loads, walk_sha_ni
 * runs the compression itself and keeps each node's seed in a register: the
 * node message is a single block, "node" || bit || seed || 0x80 || zeros ||
 * the bit length 168, so only its words 1 to 5 depend on the bit and seed.
 * Elsewhere, and where the library is built with QWMARK_NO_SHA_NI defined,
 * walk_libcrypto hashes each node through libcrypto.  qwmark_sha_ni() says
 * which walk runs.  The SHA-NI walk takes about 60 ns a node against about
 * 85 ns through libcrypto, on a Xeon of a shared 2-vCPU host.
 *
 * One node waits on the 32 dependent sha256rnds2 of its parent's, so a lone
 * walk runs at the latency of that chain.  The Sim kernel walks two records
 * at once: walk2_sha_ni runs their two paths as two lanes, alternating their
 * rounds group by group, and the CPU overlaps the two chains: 40-46 ns a
 * node each on the same host, where a lone walk took 60-66 ns.  An odd last
 * record walks alone, and the libcrypto walk takes the two paths one after
 * the other.
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

#if (defined(__x86_64__) || defined(__i386__)) && !defined(QWMARK_NO_SHA_NI)
#define SHA_NI_WALK
#endif

#ifdef SHA_NI_WALK
/* smmintrin.h and the three SHA builtins: immintrin.h, which declares the SHA
 * intrinsics, triples the time to build the library. */
#include <cpuid.h>
#include <smmintrin.h>

#define SHA_NI_TARGET __attribute__((target("sha,ssse3,sse4.1")))

/* The SHA-256 round constants; ROUNDS loads words 4g .. 4g + 3 as one register. */
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

static int sha_ni;

__attribute__((constructor)) static void pick_walk(void) { sha_ni = cpu_has_sha_ni(); }

/* 1 if the tree is walked on the SHA instructions, 0 if through libcrypto. */
int qwmark_sha_ni(void) { return sha_ni; }

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

/* walk() of the first `lanes` (1 or 2) of two paths of nbits bits from one seed: two at once on the SHA
 * instructions, else one after the other. */
static void walk_lanes(const unsigned char *seed, const unsigned char *path_a, const unsigned char *path_b,
                       size_t nbits, unsigned lanes, unsigned char *node_a, unsigned char *node_b)
{
#ifdef SHA_NI_WALK
    if (sha_ni && lanes == 2) {
        walk2_sha_ni(seed, path_a, path_b, nbits, node_a, node_b);
        return;
    }
#endif
    walk(seed, path_a, nbits, node_a);
    if (lanes == 2)
        walk(seed, path_b, nbits, node_b);
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

/* Write the n bits of src to an n-bit field of `bytes` bytes at dst, right-aligned (the big-endian int). */
static void put_int(unsigned char *dst, size_t bytes, const unsigned char *src, size_t n)
{
    memset(dst, 0, bytes);
    put_bits(dst, 8 * bytes - n, src, 0, n);
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

/* The buffers of one record of qwmark_sim, and the seed of the node its walk reached. */
struct sim_record {
    unsigned char *coins, *m, *alpha, *f_in, *beta, *g_out, *x, *y, node[SEED_BYTES];
};

/* The `count` records of elwm.build_distribution(index, ...) for a Sim index.
 *
 * head is the coin label up to the record number: "coin|" || coin_key || "#"
 * || master_seed || "S" || u16 index, so record r's coins are the first
 * 1 + seed_bits + ell bits of SHA-256(head || u32 r || u32 ctr), ell =
 * seed_bits + idx_bits + 1.  They are gamma, the PRG seed s, and the
 * encryption seed.  The plaintext m is s || index0 (idx_bits) || gamma, and
 * the record holds, as right-aligned big-endian ints of whole bytes:
 *   m                     (ell bits)
 *   x = alpha || beta || G(beta) xor m   (12 ell bits), where
 *       alpha = PRG(encryption seed)     (2 ell bits)
 *       beta  = F(alpha || m)            (9 ell bits)
 *   y = PRG(s)            (range_bits bits)
 * F is the injective PPRF: the leaf of alpha || m under f_seed (a 3 ell-bit
 * walk) xor the affine map, whose 3 ell columns and offset are each
 * (9 ell + 7) / 8 bytes of `affine`; G is the leaf of beta under g_seed.
 * Records r and r + 1 are built in lanes 0 and 1 of `rec`: both F walks run
 * at once and then both G walks (walk_lanes), and an odd last record runs in
 * lane 0 alone.  Returns 0, or -1 if its scratch memory cannot be had. */
int qwmark_sim(const unsigned char *head, unsigned head_len, unsigned count, unsigned seed_bits, unsigned idx_bits,
               unsigned index0, unsigned range_bits, const unsigned char *f_seed, const unsigned char *affine,
               const unsigned char *g_seed, unsigned char *out)
{
    size_t ell = (size_t)seed_bits + idx_bits + 1, coin_bits = 1 + seed_bits + ell, prg_in = ell;
    size_t record = bytes_of(ell) + bytes_of(12 * ell) + bytes_of(range_bits);
    size_t coin_len = 32 * blocks_of(coin_bits), alpha_len = 32 * blocks_of(2 * ell);
    size_t beta_len = 32 * blocks_of(9 * ell), g_len = 32 * blocks_of(ell), y_len = 32 * blocks_of(range_bits);
    size_t lane_len = coin_len + bytes_of(ell) + alpha_len + bytes_of(3 * ell) + beta_len + g_len +
                      bytes_of(12 * ell) + y_len;
    size_t r, i;
    unsigned lanes, l;
    unsigned char *scratch, *coin_msg, *prg_msg, index_bits[2];
    struct sim_record rec[2], *k;

    if (seed_bits > prg_in)
        prg_in = seed_bits;
    scratch = malloc(head_len + 8 + 9 + bytes_of(prg_in) + 8 + 2 * lane_len);
    if (scratch == NULL)
        return -1;
    coin_msg = scratch;
    prg_msg = coin_msg + head_len + 8;
    for (l = 0; l < 2; l++) {
        k = &rec[l];
        k->coins = prg_msg + 9 + bytes_of(prg_in) + 8 + l * lane_len;
        k->m = k->coins + coin_len;
        k->alpha = k->m + bytes_of(ell);
        k->f_in = k->alpha + alpha_len;
        k->beta = k->f_in + bytes_of(3 * ell);
        k->g_out = k->beta + beta_len;
        k->x = k->g_out + g_len;
        k->y = k->x + bytes_of(12 * ell);
    }

    memcpy(coin_msg, head, head_len);
    index_bits[0] = (unsigned char)(index0 << (16 - idx_bits) >> 8);
    index_bits[1] = (unsigned char)(index0 << (16 - idx_bits));
    for (r = 0; r < count; r += lanes, out += lanes * record) {
        lanes = count - r > 1 ? 2 : 1;
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
        }
        /* beta = F(alpha || m) */
        walk_lanes(f_seed, rec[0].f_in, rec[1].f_in, 3 * ell, lanes, rec[0].node, rec[1].node);
        for (l = 0; l < lanes; l++) {
            k = &rec[l];
            leaf_blocks(k->node, blocks_of(9 * ell), k->beta);
            affine_mask(k->beta, bytes_of(9 * ell), affine, k->f_in, 3 * ell);
        }
        /* G(beta) xor m */
        walk_lanes(g_seed, rec[0].beta, rec[1].beta, 9 * ell, lanes, rec[0].node, rec[1].node);
        for (l = 0; l < lanes; l++) {
            unsigned char *at = out + l * record;

            k = &rec[l];
            leaf_blocks(k->node, blocks_of(ell), k->g_out);
            for (i = 0; i < bytes_of(ell); i++)
                k->g_out[i] ^= k->m[i];
            put_bits(k->x, 0, k->alpha, 0, 2 * ell);
            put_bits(k->x, 2 * ell, k->beta, 0, 9 * ell);
            put_bits(k->x, 11 * ell, k->g_out, 0, ell);
            prg(k->coins, 1, seed_bits, blocks_of(range_bits), prg_msg, k->y);
            put_int(at, bytes_of(ell), k->m, ell);
            put_int(at + bytes_of(ell), bytes_of(12 * ell), k->x, 12 * ell);
            put_int(at + bytes_of(ell) + bytes_of(12 * ell), bytes_of(range_bits), k->y, range_bits);
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
        put_int(m_out, bytes_of(n), m, n);
    free(scratch);
    return found;
}
