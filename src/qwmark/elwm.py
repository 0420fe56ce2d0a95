"""Extraction-less watermarkable PRF from puncturable encryption.

The PRF is a GGM tree F over an n-bit domain, n = 12 * pt_bits, where
pt_bits = seed_bits + idx_bits + 1 is the plaintext width of an embedded
puncturable-encryption scheme.  Marking a key with a message m replaces the
evaluator by the (obfuscated) circuit

    D(x):  d := PE.Dec(dk, x)
           if d parses as s || i || gamma:
               if m[i] != gamma: return PRG(s)     # the mark bites
               else:             return F(x)
           else: return F(x)

so evaluation changes only on the sparse set of valid ciphertexts.  There is
no explicit extraction algorithm; instead anyone holding the public tag
tau = ek can *simulate* query distributions that pry out one message bit at
a time:

    Sim(tau, i; coins):  gamma <- {0,1}, s <- {0,1}^seed_bits,
                         x := PE.Enc(ek, s || i || gamma),  y := PRG(s)

On such a triple the marked circuit agrees with y exactly when m[i] != gamma,
so the answer behavior of any decoder built from the marked circuit carries
the bit m[i].

All randomness for distribution building is derived through keyed_rand, so
private- and public-coin modes share one code path: publishing the coin key
makes the simulation public.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from functools import cached_property
from typing import ClassVar

from .crypto import (
    SEED_BYTES,
    GgmKey,
    _ggm_eval,
    _prg,
    check_bits,
    decode_text,
    ggm_gen,
    int_to_bits,
    keyed_rand,
    load_field,
    read_whole_record,
    write_record,
)
from .errors import FormatError, IndexRangeError, LengthError
from .pe import (
    DecryptionCircuit,
    EncryptionCircuit,
    ObfuscatedCircuit,
    PeKeys,
    _decrypt,
    circuit_from_bytes,
    circuit_to_bytes,
    pe_gen,
)

PRFK_MAGIC = b"QWPK1"
TAG_MAGIC = b"QWTG1"
CIRCUIT_MAGIC = b"QWMC1"


@dataclass(frozen=True)
class ElwmParams:
    """Widths of the construction.

    msg_bits: embedded message length (the index space of Sim).
    seed_bits: PRG seed length carried inside plaintexts.
    range_bits: PRF output length.
    Derived, once per instance: idx_bits = bits to address a message
    position, pt_bits the plaintext width, domain_bits = 12 * pt_bits the PRF
    domain width.
    The fields, in this order, are the fields of the PRF key, tag and marked
    circuit records.
    """

    msg_bits: int
    seed_bits: int = 8
    range_bits: int = 16

    def __post_init__(self):
        if self.msg_bits < 1:
            raise LengthError("msg_bits must be positive")
        if self.seed_bits < 1 or self.range_bits < 1:
            raise LengthError("seed_bits and range_bits must be positive")
        # every width is written to a u16 field; domain_bits = 12 * pt_bits is the widest
        for name in ("msg_bits", "seed_bits", "range_bits", "domain_bits"):
            if getattr(self, name) > 0xFFFF:
                raise LengthError(f"{name} = {getattr(self, name)} does not fit a 16-bit field")

    @cached_property
    def idx_bits(self) -> int:
        return max(1, (self.msg_bits - 1).bit_length())

    @cached_property
    def pt_bits(self) -> int:
        return self.seed_bits + self.idx_bits + 1

    @cached_property
    def domain_bits(self) -> int:
        return 12 * self.pt_bits


def _check_widths(params: ElwmParams, role: str, pe_circuit, f_main: GgmKey | None = None) -> None:
    """A record's keys must have the widths its params declare."""
    if pe_circuit.ell != params.pt_bits:
        raise LengthError(f"{role} PE plaintext width {pe_circuit.ell} != pt_bits {params.pt_bits}")
    if f_main is not None and (f_main.domain_bits, f_main.out_bits) != (params.domain_bits, params.range_bits):
        raise LengthError(
            f"{role} PRF key maps {f_main.domain_bits} -> {f_main.out_bits} bits, "
            f"params need {params.domain_bits} -> {params.range_bits}"
        )


@dataclass(frozen=True)
class PrfKeyIo:
    """Secret side: the GGM PRF key and the PE decryption circuit."""

    params: ElwmParams
    f_main: GgmKey
    pe_dk: DecryptionCircuit
    gen_id: bytes  # shared with the tag produced by the same gen() call

    def __post_init__(self):
        _check_widths(self.params, "PRF key", self.pe_dk, self.f_main)

    def to_bytes(self) -> bytes:
        blobs = (self.f_main.to_bytes(), circuit_to_bytes(self.pe_dk), self.gen_id)
        return PRFK_MAGIC + write_record(astuple(self.params), blobs)

    @classmethod
    def from_bytes(cls, data: bytes) -> "PrfKeyIo":
        if data[:5] != PRFK_MAGIC:
            raise FormatError("bad PRF key magic")
        fields, (f, d, gen_id) = read_whole_record(data[5:], 3, 3, "PRF key")
        params = load_field(ElwmParams, *fields, what="PRF key params")
        f_main = GgmKey.from_bytes(f)
        pe_dk = circuit_from_bytes(d, DecryptionCircuit, "PRF key")
        return load_field(cls, params, f_main, pe_dk, gen_id, what="PRF key")


@dataclass(frozen=True)
class TagIo:
    """Public side: the (obfuscated) PE encryption circuit."""

    params: ElwmParams
    pe_ek: ObfuscatedCircuit
    gen_id: bytes

    def __post_init__(self):
        _check_widths(self.params, "tag", self.pe_ek.circuit)

    def to_bytes(self) -> bytes:
        return TAG_MAGIC + write_record(astuple(self.params), (self.pe_ek.to_bytes(), self.gen_id))

    @classmethod
    def from_bytes(cls, data: bytes) -> "TagIo":
        if data[:5] != TAG_MAGIC:
            raise FormatError("bad tag magic")
        fields, (e, gen_id) = read_whole_record(data[5:], 3, 2, "tag")
        params = load_field(ElwmParams, *fields, what="tag params")
        pe_ek = ObfuscatedCircuit.from_bytes(e, EncryptionCircuit, "tag")
        return load_field(cls, params, pe_ek, gen_id, what="tag")


def gen(params: ElwmParams, rng) -> tuple[PrfKeyIo, TagIo]:
    """Sample a PRF key and its matched public tag."""
    f_main = ggm_gen(params.domain_bits, params.range_bits, rng)
    pe_keys: PeKeys = pe_gen(params.pt_bits, rng)
    gen_id = rng.bytes(SEED_BYTES)
    return (
        PrfKeyIo(params, f_main, pe_keys.dk, gen_id),
        TagIo(params, pe_keys.ek, gen_id),
    )


def eval_prf(prfk: PrfKeyIo, x: str) -> str:
    """Unmarked evaluation: the raw GGM PRF."""
    check_bits(x, prfk.params.domain_bits, what="PRF input")
    return _ggm_eval(prfk.f_main, x)


# ---------------------------------------------------------------------------
# marking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkedEvalCircuit:
    """Circuit record computing the marked evaluator D above.

    The embedded message is plainly readable here; only an actually hiding
    obfuscator would conceal it.
    """

    KIND_TAG: ClassVar[int] = 4

    params: ElwmParams
    f_main: GgmKey
    pe_dk: DecryptionCircuit
    message: str

    def __post_init__(self):
        _check_widths(self.params, "marked circuit", self.pe_dk, self.f_main)
        check_bits(self.message, self.params.msg_bits, what="marked circuit message")

    def run(self, x: str) -> str:
        p = self.params
        check_bits(x, p.domain_bits, what="PRF input")
        d = _decrypt(self.pe_dk, x)
        if d is not None:
            s = d[: p.seed_bits]
            idx = int(d[p.seed_bits : p.seed_bits + p.idx_bits], 2) + 1
            gamma = d[-1]
            if idx <= p.msg_bits and self.message[idx - 1] != gamma:
                return _prg(s, p.range_bits)
        return _ggm_eval(self.f_main, x)

    def payload_bytes(self) -> bytes:
        blobs = (self.f_main.to_bytes(), circuit_to_bytes(self.pe_dk), self.message.encode())
        return write_record(astuple(self.params), blobs)

    @classmethod
    def from_payload(cls, data: bytes) -> "MarkedEvalCircuit":
        fields, (f, d, msg) = read_whole_record(data, 3, 3, "marked circuit")
        params = load_field(ElwmParams, *fields, what="marked circuit params")
        message = decode_text(msg, "marked circuit message")
        f_main = GgmKey.from_bytes(f)
        pe_dk = circuit_from_bytes(d, DecryptionCircuit, "marked circuit")
        return load_field(cls, params, f_main, pe_dk, message, what="marked circuit")


def mark(prfk: PrfKeyIo, message: str) -> ObfuscatedCircuit:
    """Embed a message: returns the obfuscated marked evaluator."""
    return ObfuscatedCircuit(MarkedEvalCircuit(prfk.params, prfk.f_main, prfk.pe_dk, message))


def marked_circuit_to_bytes(circuit: ObfuscatedCircuit) -> bytes:
    return CIRCUIT_MAGIC + circuit.to_bytes()


def marked_circuit_from_bytes(data: bytes) -> ObfuscatedCircuit:
    if data[:5] != CIRCUIT_MAGIC:
        raise FormatError("bad marked circuit magic")
    return ObfuscatedCircuit.from_bytes(data[5:], MarkedEvalCircuit, "marked circuit file")


# ---------------------------------------------------------------------------
# simulation and distribution building
# ---------------------------------------------------------------------------

def sim_coin_bits(params: ElwmParams) -> int:
    """1 (gamma) + seed_bits (PRG seed) + pt_bits (encryption seed)."""
    return 1 + params.seed_bits + params.pt_bits


def sim(params: ElwmParams, tag: TagIo, i: int, coins: str) -> tuple[int, str, str]:
    """Simulate one marker-revealing triple for message position i (1-based).

    coins supply gamma, the PRG seed s, and the encryption seed; the output
    is (gamma, Enc(ek, s || i || gamma), PRG(s)).
    """
    if not (1 <= i <= params.msg_bits):
        raise IndexRangeError(f"index {i} outside 1..{params.msg_bits}")
    check_bits(coins, sim_coin_bits(params), what="sim coins")
    gamma = coins[0]
    s = coins[1 : 1 + params.seed_bits]
    enc_seed = coins[1 + params.seed_bits :]
    plaintext = s + int_to_bits(i - 1, params.idx_bits) + gamma
    x = tag.pe_ek.run(plaintext, enc_seed)
    y = _prg(s, params.range_bits)
    return int(gamma), x, y


@dataclass(frozen=True)
class TripleDistribution:
    """Finite coin-indexed stand-in for a query distribution.

    kind is a readable label ("RealD" or "SimTau(3)");
    triples[r] = (gamma, x, y) for coin r.
    """

    kind: str
    s: int
    triples: tuple[tuple[int, str, str], ...]

    def __post_init__(self):
        if self.s < 1 or len(self.triples) != self.s:
            raise LengthError(f"distribution needs s={self.s} triples, got {len(self.triples)}")


REAL = "RealD"


def sim_tau(i: int) -> str:
    return f"SimTau({i})"


def _parse_kind(kind: str) -> int | None:
    """None for RealD, i for SimTau(i)."""
    if kind == REAL:
        return None
    digits = kind[len("SimTau(") : -1]
    if kind.startswith("SimTau(") and kind.endswith(")") and digits.isascii() and digits.isdigit():
        return int(digits)
    raise FormatError(f"unknown distribution kind {kind!r}")


def build_distribution(
    kind: str,
    *,
    params: ElwmParams,
    s: int,
    master_seed: bytes,
    coin_key: bytes,
    prfk: PrfKeyIo | None = None,
    tag: TagIo | None = None,
) -> TripleDistribution:
    """Instantiate a distribution as s pseudorandom triples.

    RealD     : b <- coins, x <- coins, y = Eval(x) if b else fresh coins.
    SimTau(i) : the Sim output on keyed coins.

    The same (coin_key, master_seed) yields byte-identical triples.
    """
    index = _parse_kind(kind)
    triples: list[tuple[int, str, str]] = []
    if index is None:
        if prfk is None:
            raise LengthError("RealD distributions need the PRF key")
        n = params.domain_bits
        for r in range(s):
            bits = keyed_rand(coin_key, master_seed + b"R" + r.to_bytes(4, "big"), 1 + n + params.range_bits)
            x = bits[1 : 1 + n]
            y = _ggm_eval(prfk.f_main, x) if bits[0] == "1" else bits[1 + n :]
            triples.append((int(bits[0]), x, y))
    else:
        if tag is None:
            raise LengthError("SimTau distributions need the tag")
        if not (1 <= index <= params.msg_bits):
            raise IndexRangeError(f"index {index} outside 1..{params.msg_bits}")
        for r in range(s):
            coins = keyed_rand(
                coin_key,
                master_seed + b"S" + index.to_bytes(2, "big") + r.to_bytes(4, "big"),
                sim_coin_bits(params),
            )
            triples.append(sim(params, tag, index, coins))
    return TripleDistribution(kind, s, tuple(triples))


def new_coin_key(rng) -> bytes:
    """Sample the keyed-coin-derivation key (the extraction key of the wrapper)."""
    return rng.bytes(SEED_BYTES)


def coin_key_from_bytes(data: bytes) -> bytes:
    """A stored coin key: exactly SEED_BYTES bytes, taken as they are."""
    if len(data) != SEED_BYTES:
        raise LengthError(f"coin key must be {SEED_BYTES} bytes, got {len(data)}")
    return data
