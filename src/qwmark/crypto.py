"""Symmetric building blocks: PRG, GGM puncturable PRF, statistically injective
PPRF, and keyed coin derivation.

Conventions
-----------
* Bit strings are Python ``str`` of ``'0'``/``'1'``, big-endian: the leftmost
  character is bit index 0.  Helpers convert to/from bytes and ints.
* Bit strings are checked once, where they enter the package: the public
  entry points (``ggm_eval``, ``injective_pprf_eval``, ``bits_to_bytes``, the
  PE and marked circuits' ``run``, ``elwm.sim``, ``elwm.eval_prf``, the CLI
  and the record loaders) check them and then call private forms that do not
  check again.  Key widths are checked when a key or circuit is constructed.
* The bit helpers run at C level on whole strings and ints.  ``xor_bits``
  assumes validated input and checks only that the lengths agree.
* All key material is derived from fixed-size byte seeds (SEED_BYTES).
* The stream primitive is SHA-256 in counter mode with domain-separation
  prefixes.  Every derivation is a pure function of its inputs, so repeated
  calls are referentially transparent.
* A GGM node's child is SHA256("node" || bit || seed)[:SEED_BYTES], with bit
  the character '0' or '1'; every GGM seed is SEED_BYTES long, which
  ``GgmKey`` checks.  ``_walk`` takes a whole validated path in one call.  On
  first use it picks the native kernel of ``native.py`` (C over libcrypto's
  SHA-256, built once into a user cache) if the kernel builds, loads, and
  agrees with the hashlib loop ``_hashlib_walk`` on a 120-bit probe path;
  otherwise it keeps the hashlib loop.  No option chooses between them: both
  give the same bytes, the native one several times faster, and
  ``ggm_walk_name()`` says which one runs.
* A GGM evaluation goes through ``_ggm_leaf``, which memoizes the leaf output
  keyed by (root seed, path, output width) in a fixed-size LRU
  (``_WALK_MEMO_SIZE`` entries).  A trial evaluates the same leaves more than
  once: Sim encrypts, the marked circuit decrypts the same ciphertexts, and
  the live probe's PRF value is recomputed by the circuit.  A hit skips both
  the walk and the leaf PRG.  ``forget_leaves`` empties the memo: a game
  calls it before it generates fresh keys, since no leaf of an earlier game's
  keys is evaluated again.
* Every serialized key, tag and circuit is built from one record layout,
  written by ``write_record`` and read by ``read_record``: u16 fields, then
  the u16 length of each blob, then the blobs, all big-endian.  A truncated,
  overlong or undecodable record raises ``FormatError``.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from functools import lru_cache

from . import native
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
    return _pack_bits(check_bits(bits))


def _pack_bits(bits: str) -> bytes:
    """``bits_to_bytes`` of a checked bit string."""
    if not bits:
        return b""
    pad = -len(bits) % 8
    return (int(bits, 2) << pad).to_bytes((len(bits) + pad) // 8, "big")


def bytes_to_bits(data: bytes, length: int) -> str:
    """The first `length` bits of `data`."""
    spare = len(data) * 8 - length
    if spare < 0:
        raise LengthError(f"need {length} bits, got {len(data)} bytes")
    return format(int.from_bytes(data, "big") >> spare, f"0{length}b") if length else ""


def xor_bits(a: str, b: str) -> str:
    """XOR of two validated bit strings of equal length."""
    if len(a) != len(b):
        raise LengthError(f"xor of unequal lengths {len(a)} and {len(b)}")
    return format(int(a, 2) ^ int(b, 2), f"0{len(a)}b") if a else ""


# ---------------------------------------------------------------------------
# record helpers: every malformed record ends in FormatError
# ---------------------------------------------------------------------------


def write_record(fields, blobs) -> bytes:
    """Serialize a record: each field as a big-endian u16, then the u16 length of each blob, then the blobs.

    This is the one layout of every key, tag and circuit; a record may follow a
    magic or a kind byte, and may itself be followed by another record.
    """
    return struct.pack(f">{len(fields) + len(blobs)}H", *fields, *map(len, blobs)) + b"".join(blobs)


def read_record(data: bytes, n_fields: int, n_blobs: int, what: str) -> tuple[tuple[int, ...], list[bytes], bytes]:
    """Inverse of ``write_record`` on a prefix of `data`; returns (fields, blobs, rest)."""
    at = 2 * (n_fields + n_blobs)
    if len(data) < at:
        raise FormatError(f"{what} record truncated in its header")
    header = struct.unpack(f">{n_fields + n_blobs}H", data[:at])
    blobs = []
    for n in header[n_fields:]:
        if len(data) < at + n:
            raise FormatError(f"{what} record truncated")
        blobs.append(data[at : at + n])
        at += n
    return header[:n_fields], blobs, data[at:]


def read_whole_record(data: bytes, n_fields: int, n_blobs: int, what: str) -> tuple[tuple[int, ...], list[bytes]]:
    """``read_record`` on all of `data`: trailing bytes are malformed."""
    fields, blobs, rest = read_record(data, n_fields, n_blobs, what)
    if rest:
        raise FormatError(f"trailing bytes after {what} record")
    return fields, blobs


def load_field(make, *args, what: str):
    """Build a value read from a record; a width its constructor rejects is a format fault."""
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
    if out_bits <= 256:  # one block, counter 0
        return bytes_to_bits(hashlib.sha256(prefix + b"\0\0\0\0").digest(), out_bits)
    n_blocks = -(-out_bits // 256)
    stream = b"".join(hashlib.sha256(prefix + struct.pack(">I", ctr)).digest() for ctr in range(n_blocks))
    return bytes_to_bits(stream, out_bits)


def _prg(seed_bits: str, out_bits: int) -> str:
    """Bit-level PRG of a checked seed, used by the encryption layers (e.g. length doubling)."""
    return prg_expand(b"bits|" + _pack_bits(seed_bits) + struct.pack(">I", len(seed_bits)), out_bits)


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
_WALK_PROBE = (b"ggm-walk-probe-0", "0110" * 30)  # 120 bits, the widest path a game walks


def _hashlib_walk(seed: bytes, path: str) -> bytes:
    """Seed of the node reached from `seed` along the validated bit path, one hashlib call per node."""
    for bit in path:
        node = _NODE_HASH[bit].copy()
        node.update(seed)
        seed = node.digest()[:SEED_BYTES]
    return seed


@lru_cache(maxsize=None)
def _walk_in_use():
    """(walk, name): the native kernel if it loads and agrees with the hashlib walk on a probe, else the hashlib walk."""
    walk = native.load_walk()
    if walk is not None and walk(*_WALK_PROBE) == _hashlib_walk(*_WALK_PROBE):
        return walk, "native"
    return _hashlib_walk, "hashlib"


def ggm_walk_name() -> str:
    """Which walk this process runs, "native" or "hashlib"; both give the same bytes."""
    return _walk_in_use()[1]


def _walk(seed: bytes, path: str) -> bytes:
    """Seed of the node reached from the SEED_BYTES-byte `seed` along the validated bit path."""
    return _walk_in_use()[0](seed, path)


@lru_cache(maxsize=_WALK_MEMO_SIZE)
def _ggm_leaf(seed: bytes, path: str, out_bits: int) -> str:
    """Output of the leaf reached from `seed` along the validated bit path."""
    return prg_expand(_walk(seed, path), out_bits, domain=b"leaf")


def forget_leaves() -> None:
    """Empty the leaf memo, so that the next evaluations start cold."""
    _ggm_leaf.cache_clear()


@dataclass(frozen=True)
class GgmKey:
    """Root of a GGM tree mapping {0,1}^domain_bits -> {0,1}^out_bits.

    Its record has the fields (domain_bits, out_bits) and the blob seed.
    """

    seed: bytes
    domain_bits: int
    out_bits: int

    def __post_init__(self):
        if not isinstance(self.seed, bytes) or len(self.seed) != SEED_BYTES:
            raise LengthError(f"GGM seed must be {SEED_BYTES} bytes")
        if self.domain_bits < 1 or self.out_bits < 1:
            raise LengthError("domain_bits and out_bits must be positive")

    def to_bytes(self) -> bytes:
        return write_record((self.domain_bits, self.out_bits), (self.seed,))

    @classmethod
    def from_bytes(cls, data: bytes) -> "GgmKey":
        (domain_bits, out_bits), (seed,) = read_whole_record(data, 2, 1, "GgmKey")
        return load_field(cls, seed, domain_bits, out_bits, what="GgmKey")


def ggm_gen(domain_bits: int, out_bits: int, rng) -> GgmKey:
    return GgmKey(random_seed(rng), domain_bits, out_bits)


def ggm_eval(key: GgmKey, x: str) -> str:
    check_bits(x, key.domain_bits, what="PPRF input")
    return _ggm_eval(key, x)


def _ggm_eval(key: GgmKey, x: str) -> str:
    """``ggm_eval`` of a checked input."""
    return _ggm_leaf(key.seed, x, key.out_bits)


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
            return _ggm_leaf(seed, x[depth:], pkey.out_bits)
    return None


# ---------------------------------------------------------------------------
# statistically injective PPRF: GGM output masked by a random affine GF(2) map
# ---------------------------------------------------------------------------
#
# With out_bits >= 2*in_bits + e, a uniformly chosen affine map makes the
# masked function injective except with probability 2^-(e+1) over the key.


_MASK_CHUNK = 4  # input bits per XOR table: 16 entries hold about 4x the columns


def _derive_affine(seed: bytes, in_bits: int, out_bits: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """XOR tables of the affine map's columns, _MASK_CHUNK input bits to a table, and its offset.

    The stream holds the out_bits x in_bits matrix row by row, then the
    offset.  Column j (input bit j, leftmost first) is read as an out_bits-wide
    word whose leftmost bit is row 0.  Table t serves the t-th chunk of
    int(x, 2) from the right (the last one may be short): its entry v is the
    XOR of the columns of the bits set in v.  The stream, one char per matrix
    bit (8 times the size of the columns), is dropped before the tables are
    built.
    """
    size = out_bits * in_bits
    stream = prg_expand(seed, size + out_bits, domain=b"aff")
    offset = int(stream[size:], 2)
    from_right = [int(stream[j:size:in_bits], 2) for j in reversed(range(in_bits))]
    del stream
    tables = []
    for start in range(0, in_bits, _MASK_CHUNK):
        table = [0]
        for column in from_right[start : start + _MASK_CHUNK]:
            table += [entry ^ column for entry in table]
        tables.append(tuple(table))
    return tuple(tables), offset


def _affine_mask(base: str, affine: tuple[tuple[tuple[int, ...], ...], int], x: str) -> str:
    """base xor (A x + b): one table lookup per chunk of x."""
    tables, acc = affine
    value = int(x, 2)
    mask = (1 << _MASK_CHUNK) - 1
    for table in tables:
        acc ^= table[value & mask]
        value >>= _MASK_CHUNK
    return format(int(base, 2) ^ acc, f"0{len(base)}b")


@dataclass(frozen=True)
class InjectivePprfKey:
    """GGM key plus affine mask seed.

    Serialized as the GgmKey record followed by a record with the blob mask_seed.
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
        return self.ggm.to_bytes() + write_record((), (self.mask_seed,))

    @classmethod
    def from_bytes(cls, data: bytes) -> "InjectivePprfKey":
        (domain_bits, out_bits), (seed,), rest = read_record(data, 2, 1, "InjectivePprfKey")
        ggm = load_field(GgmKey, seed, domain_bits, out_bits, what="InjectivePprfKey")
        _, (mask_seed,) = read_whole_record(rest, 0, 1, "InjectivePprfKey mask seed")
        return load_field(cls, ggm, mask_seed, what="InjectivePprfKey")


def injective_pprf_gen(in_bits: int, out_bits: int, rng) -> InjectivePprfKey:
    return InjectivePprfKey(ggm_gen(in_bits, out_bits, rng), random_seed(rng))


def injective_pprf_eval(key: InjectivePprfKey, x: str) -> str:
    check_bits(x, key.ggm.domain_bits, what="PPRF input")
    return _injective_eval(key, x)


def _injective_eval(key: InjectivePprfKey, x: str) -> str:
    """``injective_pprf_eval`` of a checked input."""
    return _affine_mask(_ggm_eval(key.ggm, x), key._affine, x)


@dataclass(frozen=True)
class PuncturedInjectivePprfKey:
    """Punctured GGM key plus the full key's affine tables."""

    ggm: PuncturedGgmKey
    _affine: tuple = field(repr=False, compare=False)


def injective_pprf_puncture(key: InjectivePprfKey, points) -> PuncturedInjectivePprfKey:
    return PuncturedInjectivePprfKey(ggm_puncture(key.ggm, points), key._affine)


def injective_pprf_eval_punctured(pkey: PuncturedInjectivePprfKey, x: str) -> str | None:
    base = ggm_eval_punctured(pkey.ggm, x)
    if base is None:
        return None
    return _affine_mask(base, pkey._affine, x)
