"""Symmetric building blocks: PRG, GGM puncturable PRF, statistically injective
PPRF, and keyed coin derivation.

Conventions
-----------
* Ints inside, strings at the edges.  Inside ``crypto``, ``pe`` and ``elwm``
  bits are ints of a known width: a w-bit string s is ``int(s, 2)``, so bit
  index 0 is the most significant bit.  The width comes from a key or the
  params, never from the int: "0101" and "101" are different values.
* Where bits enter or leave, they are ``str`` of ``'0'``/``'1'``, leftmost
  first.  Public entry points, the CLI and the record loaders check a string
  once and call the private int forms, which do not check again.  Key widths
  are checked when a key or circuit is constructed.
* All key material is derived from fixed-size byte seeds (SEED_BYTES).  The
  stream primitive is SHA-256 in counter mode behind domain-separation
  prefixes, so every derivation is a pure function of its inputs.
* A GGM node's child is SHA256("node" || bit || seed)[:SEED_BYTES], with bit
  the character '0' or '1', and a leaf's output is ``_stream(node,
  out_bits, b"leaf")``.  The leaf in use walks a whole path and hashes
  the leaf blocks in one call, or returns the node seed when asked for no
  blocks.  ``_leaf_in_use`` picks it on first use (``native.first_use``):
  the native kernel of ``native.py`` if it builds, loads, and agrees with the
  hashlib leaf ``_hashlib_leaf`` on probes that include a 120-bit path and a
  multi-block output; otherwise the hashlib leaf.  No option chooses: both
  give the same bytes, and ``native.kernels()`` says which one runs.
* ``_ggm_leaf`` memoizes leaf outputs by (root seed, path, path width, output
  width) in ``_leaves``, a dict of at most ``_LEAF_MEMO_SIZE`` entries that is
  emptied when full: the marked circuit recomputes the PRF values of the live
  probe's real queries, so a trial hits it, and a RealD distribution built
  natively puts them there itself (``_remember_leaves``).  ``_plaintexts``
  maps each PE ciphertext made since it was last emptied to its plaintext,
  keyed by the seeds of F, of F's mask and of G, ell and the ciphertext;
  ``pe`` fills it on every encryption, Sim's included, and answers a
  decryption from it before it walks (``pe._decrypt``; a native decryption
  walks without the leaf memo).  ``forget_leaves`` empties both: a game calls
  it before it generates fresh keys.  ``_prg`` memoizes the PRG in an LRU of
  ``_PRG_MEMO_SIZE`` entries, which ``forget_leaves`` keeps, since the PRG
  takes no key: the marked circuit answers a biting Sim query with PRG(s),
  and a game has only 2^seed_bits seeds s.  Each memo is exact: a hit returns
  what the hash would.
* Every serialized key, tag and circuit is built from one record layout,
  written by ``write_record`` and read by ``read_record``: u16 fields, then
  the u16 length of each blob, then the blobs, all big-endian.  A truncated,
  overlong or undecodable record raises ``FormatError``.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import repeat

import numpy as np

from . import native
from .errors import FormatError, IndexRangeError, LengthError

SEED_BYTES = 16
_PRG_MEMO_SIZE = 1024  # 16 times the 2^seed_bits PRG seeds of a game at seed_bits = 6

# ---------------------------------------------------------------------------
# bit-string helpers
# ---------------------------------------------------------------------------


def check_bits(bits: str, length: int | None = None, *, what: str = "bit string") -> str:
    if not isinstance(bits, str) or bits.count("0") + bits.count("1") != len(bits):
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
    return _pack(int(check_bits(bits) or "0", 2), len(bits))


def _pack(value: int, width: int) -> bytes:
    """A `width`-bit int as bytes, left-aligned, zero-padded to a byte boundary."""
    pad = -width % 8
    return (value << pad).to_bytes((width + pad) // 8, "big")


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


def _blocks(prefix: bytes, n_blocks: int) -> bytes:
    """SHA256(prefix || ctr) for ctr = 0 .. n_blocks - 1, each ctr a big-endian u32."""
    return b"".join(hashlib.sha256(prefix + struct.pack(">I", ctr)).digest() for ctr in range(n_blocks))


def _stream(seed: bytes, out_bits: int, domain: bytes) -> int:
    """The first `out_bits` bits of the blocks SHA256(domain || "|" || seed || ctr), as an int."""
    prefix = domain + b"|" + seed
    if out_bits <= 256:  # one block, counter 0
        return int.from_bytes(hashlib.sha256(prefix + b"\0\0\0\0").digest(), "big") >> (256 - out_bits)
    n_blocks = -(-out_bits // 256)
    return int.from_bytes(_blocks(prefix, n_blocks), "big") >> (256 * n_blocks - out_bits)


@lru_cache(maxsize=_PRG_MEMO_SIZE)
def _prg(seed: int, width: int, out_bits: int) -> int:
    """Bit-level PRG of a `width`-bit seed, used by the encryption layers (e.g. length doubling)."""
    return _stream(b"bits|" + _pack(seed, width) + struct.pack(">I", width), out_bits, b"prg")


def _keyed_coins(key: bytes, label: bytes, out_bits: int) -> int:
    """Deterministic keyed coins as an int: one key, disjoint labels, fresh-looking coins."""
    return _stream(key + b"#" + label, out_bits, b"coin")


# ---------------------------------------------------------------------------
# GGM tree PPRF
# ---------------------------------------------------------------------------


# node child = SHA256("node" || bit || seed)[:SEED_BYTES], from pre-keyed states
_NODE_HASH = {"0": hashlib.sha256(b"node0"), "1": hashlib.sha256(b"node1")}
_LEAF_MEMO_SIZE = 4096  # the b = 1 leaves of a whole RealD distribution of elwm.MAX_TRIPLES fit
_leaves: dict[tuple[bytes, int, int, int], int] = {}
# a 120-bit path (the widest a game walks) to 3 blocks, and a 1-bit path to its node seed
_LEAF_PROBES = ((b"ggm-walk-probe-0", int("0110" * 30, 2), 120, 3), (b"ggm-walk-probe-1", 1, 1, 0))


def _hashlib_leaf(seed: bytes, path: int, width: int, n_blocks: int) -> bytes:
    """Walk the `width`-bit path from `seed`; return the node seed if n_blocks is 0, else its leaf blocks."""
    for bit in int_to_bits(path, width):
        node = _NODE_HASH[bit].copy()
        node.update(seed)
        seed = node.digest()[:SEED_BYTES]
    return _blocks(b"leaf|" + seed, n_blocks) if n_blocks else seed


_leaf_in_use = native.first_use("ggm_walk", native.load_leaf, _hashlib_leaf, _LEAF_PROBES, "hashlib")


def _ggm_leaf(seed: bytes, path: int, width: int, out_bits: int) -> int:
    """Output of the leaf reached from `seed` along the `width`-bit path, for a positive `out_bits`.

    It is read from the leaf memo, or computed by the leaf in use and put there.
    """
    key = (seed, path, width, out_bits)
    out = _leaves.get(key)
    if out is None:
        n_blocks = -(-out_bits // 256)
        out = int.from_bytes(_leaf_in_use()(seed, path, width, n_blocks), "big") >> (256 * n_blocks - out_bits)
        if len(_leaves) >= _LEAF_MEMO_SIZE:
            _leaves.clear()
        _leaves[key] = out
    return out


def _remember_leaves(seed: bytes, width: int, out_bits: int, paths: list[int], outputs) -> None:
    """Record in the leaf memo that each of the `width`-bit `paths` leads from `seed` to the `out_bits`-bit output
    at its place in `outputs`.

    A memo without room for all of them, at most _LEAF_MEMO_SIZE, is emptied
    first.
    """
    if len(_leaves) + len(paths) > _LEAF_MEMO_SIZE:
        _leaves.clear()
    _leaves.update(zip(zip(repeat(seed), paths, repeat(width), repeat(out_bits)), outputs))


_PLAINTEXT_MEMO_SIZE = 4096  # a whole distribution of elwm.MAX_TRIPLES fits
_plaintexts: dict[tuple[tuple, int], int] = {}


def forget_leaves() -> None:
    """Empty the leaf memo and the plaintext memo, so that the next evaluations start cold."""
    _leaves.clear()
    _plaintexts.clear()


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
    return GgmKey(rng.bytes(SEED_BYTES), domain_bits, out_bits)


def ggm_eval(key: GgmKey, x: str) -> str:
    check_bits(x, key.domain_bits, what="PPRF input")
    return int_to_bits(_ggm_eval(key, int(x, 2)), key.out_bits)


def _ggm_eval(key: GgmKey, x: int) -> int:
    """``ggm_eval`` of a `domain_bits`-bit int."""
    return _ggm_leaf(key.seed, x, key.domain_bits, key.out_bits)


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
        descend(prefix + "0", _leaf_in_use()(seed, 0, 1, 0), left)
        descend(prefix + "1", _leaf_in_use()(seed, 1, 1, 0), right)

    descend("", key.seed, pts)
    nodes.sort()
    return PuncturedGgmKey(key.domain_bits, key.out_bits, tuple(pts), tuple(nodes))


def ggm_eval_punctured(pkey: PuncturedGgmKey, x: str) -> str | None:
    """Evaluate off the punctured set; returns None exactly on the set."""
    check_bits(x, pkey.domain_bits, what="PPRF input")
    for depth, prefix, seed in pkey.nodes:
        if x.startswith(prefix):
            width = pkey.domain_bits - depth  # 0 at a cover node of full depth
            return int_to_bits(_ggm_leaf(seed, int(x, 2) & ((1 << width) - 1), width, pkey.out_bits), pkey.out_bits)
    return None


# ---------------------------------------------------------------------------
# statistically injective PPRF: GGM output masked by a random affine GF(2) map
# ---------------------------------------------------------------------------
#
# With out_bits >= 2*in_bits + e, a uniformly chosen affine map makes the
# masked function injective except with probability 2^-(e+1) over the key.


def _derive_affine(seed: bytes, in_bits: int, out_bits: int) -> bytes:
    """The packed form of the affine map: each column and then the offset, each ``_pack``-ed to whole bytes.

    The stream holds the out_bits x in_bits matrix row by row, then the
    offset.  Column j (input bit j, leftmost first) is read as an out_bits-wide
    word whose leftmost bit is row 0.  The native kernels read this form, and
    the Python evaluations its words (``_affine_words``).
    """
    matrix_bits = out_bits * in_bits
    stream = _stream(seed, matrix_bits + out_bits, b"aff")
    offset = _pack(stream & ((1 << out_bits) - 1), out_bits)
    rows = np.unpackbits(np.frombuffer(_pack(stream >> out_bits, matrix_bits), np.uint8), count=matrix_bits)
    del stream
    return np.packbits(rows.reshape(out_bits, in_bits), axis=0).T.tobytes() + offset  # column j down its rows


def _affine_words(packed: bytes, out_bits: int) -> tuple[tuple[int, ...], int]:
    """The packed affine map's columns as ints, that of the rightmost bit of x first, and its offset."""
    width, pad = -(-out_bits // 8), -out_bits % 8
    words = [int.from_bytes(packed[at - width : at], "big") >> pad for at in range(len(packed), 0, -width)]
    return tuple(words[1:]), words[0]


def _affine_mask(base: int, affine: tuple[tuple[int, ...], int], x: int) -> int:
    """base xor (A x + b): the offset and the column of each bit set in x, lowest first."""
    columns, acc = affine
    while x:
        low = x & -x
        acc ^= columns[low.bit_length() - 1]
        x ^= low
    return base ^ acc


@dataclass(frozen=True)
class InjectivePprfKey:
    """GGM key plus affine mask seed.

    Serialized as the GgmKey record followed by a record with the blob mask_seed.
    """

    ggm: GgmKey
    mask_seed: bytes

    def __post_init__(self):
        if self.ggm.out_bits < 2 * self.ggm.domain_bits:
            raise LengthError(
                "statistical injectivity needs out_bits >= 2*in_bits "
                f"(got {self.ggm.out_bits} < 2*{self.ggm.domain_bits})"
            )

    @cached_property
    def _packed_affine(self) -> bytes:
        """The affine map's packed form, derived on first use, so that a key
        whose record is refused for its widths never costs its square."""
        return _derive_affine(self.mask_seed, self.ggm.domain_bits, self.ggm.out_bits)

    @cached_property
    def _affine(self) -> tuple:
        """The columns and offset of the Python evaluations, split from the packed form once per key."""
        return _affine_words(self._packed_affine, self.ggm.out_bits)

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
    return InjectivePprfKey(ggm_gen(in_bits, out_bits, rng), rng.bytes(SEED_BYTES))


def injective_pprf_eval(key: InjectivePprfKey, x: str) -> str:
    check_bits(x, key.ggm.domain_bits, what="PPRF input")
    return int_to_bits(_injective_eval(key, int(x, 2)), key.ggm.out_bits)


def _injective_eval(key: InjectivePprfKey, x: int) -> int:
    """``injective_pprf_eval`` of an `in_bits`-bit int."""
    return _affine_mask(_ggm_eval(key.ggm, x), key._affine, x)


@dataclass(frozen=True)
class PuncturedInjectivePprfKey:
    """Punctured GGM key plus the full key's affine columns and offset."""

    ggm: PuncturedGgmKey
    _affine: tuple = field(repr=False, compare=False)


def injective_pprf_puncture(key: InjectivePprfKey, points) -> PuncturedInjectivePprfKey:
    return PuncturedInjectivePprfKey(ggm_puncture(key.ggm, points), key._affine)


def injective_pprf_eval_punctured(pkey: PuncturedInjectivePprfKey, x: str) -> str | None:
    base = ggm_eval_punctured(pkey.ggm, x)
    if base is None:
        return None
    return int_to_bits(_affine_mask(int(base, 2), pkey._affine, int(x, 2)), pkey.ggm.out_bits)
