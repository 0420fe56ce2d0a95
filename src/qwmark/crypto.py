"""Symmetric building blocks: PRG, GGM puncturable PRF, statistically injective
PPRF, and keyed coin derivation.

Conventions
-----------
* Bit strings are Python ``str`` of ``'0'``/``'1'``, big-endian: the leftmost
  character is bit index 0.  Helpers convert to/from bytes and ints.
* Bit strings are validated where they enter a primitive
  (``ggm_eval``, ``prg``, the PE circuits, the CLI and record loaders).
* The bit helpers run at C level on whole strings and ints.  ``xor_bits``
  assumes validated input and checks only that the lengths agree.
* All key material is derived from fixed-size byte seeds (SEED_BYTES).
* The stream primitive is SHA-256 in counter mode with domain-separation
  prefixes.  Every derivation is a pure function of its inputs, so repeated
  calls are referentially transparent.
* GGM node derivation goes through ``_walk``, which memoizes whole root-to-node
  paths in a fixed-size LRU (``_WALK_MEMO_SIZE`` entries).  A trial walks the
  same paths more than once: Sim encrypts, the marked circuit decrypts the same
  ciphertexts, and the live probe's PRF value is recomputed by the circuit.
* Serialized keys use length-prefixed byte layouts, documented per type.  A
  truncated or undecodable record raises ``FormatError``.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import FormatError, IndexRangeError, LengthError

SEED_BYTES = 16

# ---------------------------------------------------------------------------
# bit-string helpers
# ---------------------------------------------------------------------------


def check_bits(bits: str, length: int | None = None, *, what: str = "bit string") -> str:
    if not isinstance(bits, str) or bits.strip("01"):
        raise LengthError(f"{what} must be a str of '0'/'1', got {bits!r}")
    if length is not None and len(bits) != length:
        raise LengthError(f"{what} must have {length} bits, got {len(bits)}")
    return bits


def int_to_bits(value: int, length: int) -> str:
    if value < 0 or value >= (1 << length):
        raise IndexRangeError(f"value {value} does not fit in {length} bits")
    return format(value, f"0{length}b") if length else ""


def bits_to_bytes(bits: str) -> bytes:
    """Pack to bytes, left-aligned, zero-padded to a byte boundary."""
    check_bits(bits)
    if not bits:
        return b""
    padded = bits + "0" * (-len(bits) % 8)
    return int(padded, 2).to_bytes(len(padded) // 8, "big")


def bytes_to_bits(data: bytes, length: int) -> str:
    if len(data) * 8 < length:
        raise LengthError(f"need {length} bits, got {len(data)} bytes")
    return format(int.from_bytes(data, "big"), f"0{len(data) * 8}b")[:length]


def xor_bits(a: str, b: str) -> str:
    """XOR of two validated bit strings of equal length."""
    if len(a) != len(b):
        raise LengthError(f"xor of unequal lengths {len(a)} and {len(b)}")
    return format(int(a, 2) ^ int(b, 2), f"0{len(a)}b") if a else ""


# ---------------------------------------------------------------------------
# record helpers: every malformed record ends in FormatError
# ---------------------------------------------------------------------------


def read_header(fmt: str, data: bytes, what: str) -> tuple[tuple[int, ...], bytes]:
    """Unpack a fixed-width struct header; returns (fields, rest)."""
    size = struct.calcsize(fmt)
    if len(data) < size:
        raise FormatError(f"{what} record truncated in its header")
    return struct.unpack(fmt, data[:size]), data[size:]


def load_field(make, *args, what: str):
    """Build a field read from a record; a width its constructor rejects is a format fault."""
    try:
        return make(*args)
    except LengthError as exc:
        raise FormatError(f"{what}: {exc}") from exc


def decode_text(raw: bytes, what: str) -> str:
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} is not valid UTF-8") from exc


# ---------------------------------------------------------------------------
# PRG: SHA-256 counter stream behind domain-separation prefixes
# ---------------------------------------------------------------------------


def prg_expand(seed: bytes, out_bits: int, *, domain: bytes = b"prg") -> str:
    """Expand a byte seed to `out_bits` pseudorandom bits.

    Deterministic: out = SHA256(domain || seed || ctr) blocks, truncated.
    """
    if out_bits < 0:
        raise LengthError("out_bits must be nonnegative")
    prefix = domain + b"|" + seed
    n_blocks = -(-out_bits // 256)
    stream = b"".join(hashlib.sha256(prefix + struct.pack(">I", ctr)).digest() for ctr in range(n_blocks))
    return bytes_to_bits(stream, out_bits)


def prg(seed_bits: str, out_bits: int) -> str:
    """Bit-level PRG used by the encryption layers (e.g. length doubling)."""
    check_bits(seed_bits)
    return prg_expand(b"bits|" + bits_to_bytes(seed_bits) + struct.pack(">I", len(seed_bits)), out_bits)


def keyed_rand(key: bytes, label: bytes, out_bits: int) -> str:
    """Deterministic keyed coin derivation: one key, disjoint labels, fresh-looking coins."""
    return prg_expand(key + b"#" + label, out_bits, domain=b"coin")


def random_seed(rng) -> bytes:
    """Draw a fresh SEED_BYTES seed from a numpy Generator."""
    return rng.bytes(SEED_BYTES)


# ---------------------------------------------------------------------------
# GGM tree PPRF
# ---------------------------------------------------------------------------


# node child = SHA256("node" || bit || seed)[:SEED_BYTES], from pre-keyed states
_NODE_HASH = {"0": hashlib.sha256(b"node0"), "1": hashlib.sha256(b"node1")}
_WALK_MEMO_SIZE = 1024


@lru_cache(maxsize=_WALK_MEMO_SIZE)
def _walk(seed: bytes, path: str) -> bytes:
    """Seed of the node reached from `seed` along the validated bit path."""
    for bit in path:
        node = _NODE_HASH[bit].copy()
        node.update(seed)
        seed = node.digest()[:SEED_BYTES]
    return seed


def _leaf_output(seed: bytes, out_bits: int) -> str:
    return prg_expand(seed, out_bits, domain=b"leaf")


@dataclass(frozen=True)
class GgmKey:
    """Root of a GGM tree mapping {0,1}^domain_bits -> {0,1}^out_bits.

    Serialized layout: u16 domain_bits || u16 out_bits || u16 len(seed) || seed.
    """

    seed: bytes
    domain_bits: int
    out_bits: int

    def __post_init__(self):
        if self.domain_bits < 1 or self.out_bits < 1:
            raise LengthError("domain_bits and out_bits must be positive")

    def to_bytes(self) -> bytes:
        return struct.pack(">HHH", self.domain_bits, self.out_bits, len(self.seed)) + self.seed

    @classmethod
    def from_bytes(cls, data: bytes) -> "GgmKey":
        key, rest = cls.read_from(data)
        if rest:
            raise FormatError("trailing bytes after GgmKey")
        return key

    @classmethod
    def read_from(cls, data: bytes) -> tuple["GgmKey", bytes]:
        (domain_bits, out_bits, n), rest = read_header(">HHH", data, "GgmKey")
        if len(rest) < n:
            raise FormatError("GgmKey seed truncated")
        return load_field(cls, rest[:n], domain_bits, out_bits, what="GgmKey"), rest[n:]


def ggm_gen(domain_bits: int, out_bits: int, rng) -> GgmKey:
    return GgmKey(random_seed(rng), domain_bits, out_bits)


def ggm_eval(key: GgmKey, x: str) -> str:
    check_bits(x, key.domain_bits, what="PPRF input")
    return _leaf_output(_walk(key.seed, x), key.out_bits)


@dataclass(frozen=True)
class PuncturedGgmKey:
    """GGM key punctured at a point set S.

    Stores the subtree cover of the complement of S: sorted (depth, prefix)
    records with their node seeds.  No seed on any root-to-S path is kept.
    """

    domain_bits: int
    out_bits: int
    points: tuple[str, ...]
    nodes: tuple[tuple[int, str, bytes], ...]  # (depth, prefix, seed), sorted


def ggm_puncture(key: GgmKey, points: set[str] | frozenset[str] | tuple[str, ...]) -> PuncturedGgmKey:
    pts = sorted({check_bits(p, key.domain_bits, what="punctured point") for p in points})
    if not pts:
        # degenerate puncture: cover is the root itself
        return PuncturedGgmKey(key.domain_bits, key.out_bits, (), ((0, "", key.seed),))
    nodes: list[tuple[int, str, bytes]] = []

    def descend(prefix: str, seed: bytes, under: list[str]):
        if not under:
            nodes.append((len(prefix), prefix, seed))
            return
        if len(prefix) == key.domain_bits:
            return  # punctured leaf: drop
        left = [p for p in under if p[len(prefix)] == "0"]
        right = [p for p in under if p[len(prefix)] == "1"]
        descend(prefix + "0", _walk(seed, "0"), left)
        descend(prefix + "1", _walk(seed, "1"), right)

    descend("", key.seed, pts)
    nodes.sort()
    return PuncturedGgmKey(key.domain_bits, key.out_bits, tuple(pts), tuple(nodes))


def ggm_eval_punctured(pkey: PuncturedGgmKey, x: str) -> str | None:
    """Evaluate off the punctured set; returns None exactly on the set."""
    check_bits(x, pkey.domain_bits, what="PPRF input")
    for depth, prefix, seed in pkey.nodes:
        if x.startswith(prefix):
            return _leaf_output(_walk(seed, x[depth:]), pkey.out_bits)
    return None


# ---------------------------------------------------------------------------
# statistically injective PPRF: GGM output masked by a random affine GF(2) map
# ---------------------------------------------------------------------------
#
# With out_bits >= 2*in_bits + e, a uniformly chosen affine map makes the
# masked function injective except with probability 2^-(e+1) over the key.


def _derive_affine(seed: bytes, in_bits: int, out_bits: int) -> tuple[tuple[int, ...], int]:
    """Column words and offset of the affine map.

    The stream holds the out_bits x in_bits matrix row by row, then the
    offset.  Column j (input bit j, leftmost first) is read as an out_bits-wide
    word whose leftmost bit is row 0.
    """
    stream = prg_expand(seed, out_bits * in_bits + out_bits, domain=b"aff")
    matrix = stream[: out_bits * in_bits]
    columns = tuple(int(matrix[j::in_bits], 2) for j in range(in_bits))
    return columns, int(stream[out_bits * in_bits :], 2)


def _affine_mask(base: str, affine: tuple[tuple[int, ...], int], x: str) -> str:
    """base xor (A x + b): XOR in the column of every set bit of x."""
    columns, acc = affine
    for column, bit in zip(columns, x):
        if bit == "1":
            acc ^= column
    return format(int(base, 2) ^ acc, f"0{len(base)}b")


@dataclass(frozen=True)
class InjectivePprfKey:
    """GGM key plus affine mask seed.

    Serialized layout: GgmKey bytes || u16 len(mask_seed) || mask_seed.
    """

    ggm: GgmKey
    mask_seed: bytes
    _affine: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.ggm.out_bits < 2 * self.ggm.domain_bits:
            raise LengthError(
                "statistical injectivity needs out_bits >= 2*in_bits "
                f"(got {self.ggm.out_bits} < 2*{self.ggm.domain_bits})"
            )
        object.__setattr__(
            self, "_affine", _derive_affine(self.mask_seed, self.ggm.domain_bits, self.ggm.out_bits)
        )

    @property
    def in_bits(self) -> int:
        return self.ggm.domain_bits

    @property
    def out_bits(self) -> int:
        return self.ggm.out_bits

    def to_bytes(self) -> bytes:
        return self.ggm.to_bytes() + struct.pack(">H", len(self.mask_seed)) + self.mask_seed

    @classmethod
    def from_bytes(cls, data: bytes) -> "InjectivePprfKey":
        key, rest = cls.read_from(data)
        if rest:
            raise FormatError("trailing bytes after InjectivePprfKey")
        return key

    @classmethod
    def read_from(cls, data: bytes) -> tuple["InjectivePprfKey", bytes]:
        ggm, rest = GgmKey.read_from(data)
        (n,), rest = read_header(">H", rest, "InjectivePprfKey mask seed")
        if len(rest) < n:
            raise FormatError("InjectivePprfKey mask seed truncated")
        return load_field(cls, ggm, rest[:n], what="InjectivePprfKey"), rest[n:]


def injective_pprf_gen(in_bits: int, out_bits: int, rng) -> InjectivePprfKey:
    return InjectivePprfKey(ggm_gen(in_bits, out_bits, rng), random_seed(rng))


def injective_pprf_eval(key: InjectivePprfKey, x: str) -> str:
    return _affine_mask(ggm_eval(key.ggm, x), key._affine, x)


@dataclass(frozen=True)
class PuncturedInjectivePprfKey:
    ggm: PuncturedGgmKey
    mask_seed: bytes
    _affine: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_affine", _derive_affine(self.mask_seed, self.ggm.domain_bits, self.ggm.out_bits)
        )


def injective_pprf_puncture(key: InjectivePprfKey, points) -> PuncturedInjectivePprfKey:
    return PuncturedInjectivePprfKey(ggm_puncture(key.ggm, points), key.mask_seed)


def injective_pprf_eval_punctured(pkey: PuncturedInjectivePprfKey, x: str) -> str | None:
    base = ggm_eval_punctured(pkey.ggm, x)
    if base is None:
        return None
    return _affine_mask(base, pkey._affine, x)
