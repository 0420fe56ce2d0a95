/* The GGM tree walk of crypto._walk in one call.
 *
 * A child seed is SHA-256("node" || bit || seed)[:16], where bit is the
 * character '0' or '1' of the path.  The walk starts at `seed` (16 bytes),
 * takes one child per character of the NUL-terminated `path`, which the
 * caller has checked to hold only '0' and '1', and writes the seed it reaches
 * to `out` (16 bytes).  The empty path gives `seed` back.
 *
 * It hashes through libcrypto's low-level SHA256_Init/Update/Final, which
 * OpenSSL 3 deprecates but still exports; the EVP interface costs several
 * times the hash on a 21-byte message.  Built by qwmark/native.py.
 */
#define OPENSSL_SUPPRESS_DEPRECATED
#include <string.h>
#include <openssl/sha.h>

#define SEED_BYTES 16

void qwmark_ggm_walk(const unsigned char *seed, const char *path, unsigned char *out)
{
    unsigned char msg[5 + SEED_BYTES] = {'n', 'o', 'd', 'e'};
    unsigned char digest[SHA256_DIGEST_LENGTH];
    SHA256_CTX ctx;

    memcpy(msg + 5, seed, SEED_BYTES);
    for (; *path; path++) {
        msg[4] = (unsigned char)*path;
        SHA256_Init(&ctx);
        SHA256_Update(&ctx, msg, sizeof msg);
        SHA256_Final(digest, &ctx);
        memcpy(msg + 5, digest, SEED_BYTES);
    }
    memcpy(out, msg + 5, SEED_BYTES);
}
