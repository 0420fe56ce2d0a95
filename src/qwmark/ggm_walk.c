/* A GGM leaf of crypto._ggm_leaf in one call: the tree walk and the leaf PRG.
 *
 * A child seed is SHA-256("node" || bit || seed)[:16], where bit is the
 * character '0' or '1'.  The walk starts at `seed` (16 bytes) and takes one
 * child per bit of the first `nbits` bits of `path`, packed big-endian: bit i
 * of the path is bit 7 - i % 8 of byte i / 8, so the first bit is the most
 * significant bit of the first byte.  Zero bits walk nothing.
 *
 * With nblocks = 0 it writes the seed of the node it reaches to `out`
 * (16 bytes), which is what puncturing needs.  Otherwise it writes that
 * node's leaf output, nblocks blocks of SHA-256("leaf|" || node || ctr) with
 * ctr a big-endian u32 from 0, to `out` (32 * nblocks bytes): the blocks of
 * crypto.prg_expand(node, ., domain=b"leaf") before truncation.
 *
 * It hashes through libcrypto's low-level SHA256_Init/Update/Final, which
 * OpenSSL 3 deprecates but still exports; the EVP interface costs several
 * times the hash on a 21-byte message.  Built by qwmark/native.py.
 */
#define OPENSSL_SUPPRESS_DEPRECATED
#include <string.h>
#include <openssl/sha.h>

#define SEED_BYTES 16

static void sha256(const unsigned char *msg, size_t len, unsigned char *digest)
{
    SHA256_CTX ctx;

    SHA256_Init(&ctx);
    SHA256_Update(&ctx, msg, len);
    SHA256_Final(digest, &ctx);
}

void qwmark_ggm_leaf(const unsigned char *seed, const unsigned char *path, unsigned nbits, unsigned nblocks,
                     unsigned char *out)
{
    unsigned char node[5 + SEED_BYTES] = {'n', 'o', 'd', 'e'};
    unsigned char leaf[5 + SEED_BYTES + 4] = {'l', 'e', 'a', 'f', '|'};
    unsigned char digest[SHA256_DIGEST_LENGTH];
    unsigned i;

    memcpy(node + 5, seed, SEED_BYTES);
    for (i = 0; i < nbits; i++) {
        node[4] = '0' + (path[i / 8] >> (7 - i % 8) & 1);
        sha256(node, sizeof node, digest);
        memcpy(node + 5, digest, SEED_BYTES);
    }
    if (nblocks == 0) {
        memcpy(out, node + 5, SEED_BYTES);
        return;
    }
    memcpy(leaf + 5, node + 5, SEED_BYTES);
    for (i = 0; i < nblocks; i++) {
        leaf[21] = (unsigned char)(i >> 24);
        leaf[22] = (unsigned char)(i >> 16);
        leaf[23] = (unsigned char)(i >> 8);
        leaf[24] = (unsigned char)i;
        sha256(leaf, sizeof leaf, out + SHA256_DIGEST_LENGTH * i);
    }
}
