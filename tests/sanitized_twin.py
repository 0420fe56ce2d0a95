"""Check every entry point of one build of ``ggm_walk.c`` against its Python twin, at the width and count edges.

    python tests/sanitized_twin.py LIBRARY

``test_sanitized.py`` runs it on builds made with AddressSanitizer and UBSan,
whose runtimes it preloads: a kernel that reads or writes out of bounds, or
runs into undefined behaviour, aborts this process, and one whose output
differs from its twin's fails an assert.  The twins walk the tree through
``hashlib`` and decrypt in Python, whatever kernels the cache holds.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import sys

from qwmark import crypto, elwm, native, pe
from qwmark.crypto import GgmKey, InjectivePprfKey
from qwmark.elwm import ElwmParams

MAX_PT_BITS = ElwmParams.MAX_PT_BITS
WIDTHS = (0, 1, 7, 8, 9, 255, 256, 257, MAX_PT_BITS)  # the byte and hash-block edges, and the width budget
COUNTS = (1, 2, 8, 9, 15, 16, 17, 64)  # a pair and a lone record; 8 and 9, either side of the 16-lane walk; groups
BATCHES = (0, *COUNTS)  # the leaf and decryption kernels also take an empty batch
MASTER_SEED, COIN_KEY = b"twin-master-seed", b"twin-coin-key-16"


def seed(label: str) -> bytes:
    return hashlib.sha256(label.encode()).digest()[:16]


def bits(label: str, width: int) -> int:
    return crypto._stream(seed(label), width, b"twin")


@functools.cache
def circuits(ell: int) -> tuple[pe.EncryptionCircuit, pe.DecryptionCircuit]:
    """PE circuits of plaintext width ell under fixed keys, sharing one affine map."""
    f_key = InjectivePprfKey(GgmKey(seed(f"f-{ell}"), 3 * ell, 9 * ell), seed(f"mask-{ell}"))
    g_key = GgmKey(seed(f"g-{ell}"), 9 * ell, ell)
    return pe.EncryptionCircuit(f_key, g_key, ell), pe.DecryptionCircuit(f_key, g_key, ell)


def check_leaf(leaf) -> None:
    # every batch size at each width edge, to one block; and a group of 16 and one left over to the node seeds
    # and to three blocks
    for width in WIDTHS:
        for count, n_blocks in [(count, 1) for count in BATCHES] + [(17, 0), (17, 3)]:
            paths = [bits(f"path-{width}-{r}", width) for r in range(count)]
            args = (seed("leaf-root"), paths, width, n_blocks)
            assert leaf(*args) == crypto._hashlib_leaves(*args), (width, count, n_blocks)


def check_sim(sim) -> None:
    # every count at a game's widths, then y at each width edge, then the plaintext width at the edges it can take
    # (msg_bits = 2 has one index bit, so ell = seed_bits + 2); the wide ones build a pair, but for one 9-record group
    cases = [(ElwmParams(5, 6, 12), s) for s in COUNTS]
    cases += [(ElwmParams(5, 6, width), 17) for width in WIDTHS[1:]]
    cases += [(ElwmParams(2, ell - 2, 12), 17 if ell < 255 else 9 if ell == 257 else 2) for ell in WIDTHS[3:]]
    for params, s in cases:
        args = (params, circuits(params.pt_bits)[0], params.msg_bits, s, MASTER_SEED, COIN_KEY)
        assert sim(*args) == elwm._python_sim(*args), (params, s)
        crypto.forget_leaves()


def check_reald(reald) -> None:
    # every count at a game's widths, then x and y at the width edges, 40 records each, about 20 of them b = 1
    cases = [(108, 12, s) for s in COUNTS]
    cases += [(n, m, 40) for n, m in zip(WIDTHS[1:], reversed(WIDTHS[1:]))]
    for n, m, s in cases:
        args = (GgmKey(seed(f"reald-{n}-{m}"), n, m), s, MASTER_SEED, COIN_KEY)
        expected = elwm._python_reald(*args)
        crypto.forget_leaves()  # the twin reads F(x) from the leaf memo, where the kernel puts it
        assert reald(*args) == expected, (n, m, s)
        crypto.forget_leaves()


def check_decrypt(decrypt) -> None:
    # every 12-bit string at ell = 1 in one batch; elsewhere a ciphertext, it with beta's last bit flipped and
    # gamma made again so that only the check of beta refuses it, one-bit flips of alpha, beta and gamma, and a
    # random string, repeated to a group of 16 and one left over, and at ell = 9 to every batch size
    batches = [(circuits(1)[1], list(range(1 << 12)))]
    for ell in (7, 8, 9, 255, 256, 257, MAX_PT_BITS):
        ek, dk = circuits(ell)
        m, s = bits(f"m-{ell}", ell), bits(f"s-{ell}", ell)
        c = pe._encrypt(ek, m, s)
        beta = ((c >> ell) & ((1 << 9 * ell) - 1)) ^ 1
        remade = (((c >> 10 * ell) << 9 * ell | beta) << ell) | (crypto._ggm_eval(dk.g_key, beta) ^ m)
        flips = (1 << 12 * ell - 1, 1 << 5 * ell, 1)
        cases = [c, remade, *(c ^ flip for flip in flips), bits(f"c-{ell}", 12 * ell)]
        batches += [(dk, [cases[r % len(cases)] for r in range(count)]) for count in (BATCHES if ell == 9 else (17,))]
    for dk, cs in batches:
        assert decrypt(dk, cs) == pe._python_decrypts(dk, cs), (dk.ell, len(cs))
    crypto.forget_leaves()


def main(path: str) -> None:
    library = ctypes.PyDLL(path)
    crypto._leaf_in_use = lambda: crypto._hashlib_leaves
    check_leaf(native.load_leaf(library))
    check_sim(elwm._native_sim(native.load_sim(library)))
    check_reald(elwm._native_reald(native.load_reald(library)))
    check_decrypt(native.load_decrypt(library))
    print(native.c_walk_name(library), native.wide_walk_name(library))


if __name__ == "__main__":
    main(sys.argv[1])
