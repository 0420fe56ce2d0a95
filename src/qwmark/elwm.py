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

import struct
from dataclasses import dataclass
from typing import ClassVar

from .crypto import (
    SEED_BYTES,
    GgmKey,
    bytes_to_bits,
    check_bits,
    decode_text,
    ggm_eval,
    ggm_gen,
    int_to_bits,
    keyed_rand,
    load_field,
    prg,
    read_header,
)
from .errors import FormatError, IndexRangeError, LengthError
from .pe import (
    DecryptionCircuit,
    EncryptionCircuit,
    ObfuscatedCircuit,
    Obfuscator,
    DEFAULT_OBFUSCATOR,
    PeKeys,
    circuit_from_bytes,
    circuit_to_bytes,
    pe_gen,
    register_circuit_kind,
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
    Derived: idx_bits = bits to address a message position, pt_bits the
    plaintext width, domain_bits = 12 * pt_bits the PRF domain width.
    """

    msg_bits: int
    seed_bits: int = 8
    range_bits: int = 16

    def __post_init__(self):
        if self.msg_bits < 1:
            raise LengthError("msg_bits must be positive")
        if self.seed_bits < 1 or self.range_bits < 1:
            raise LengthError("seed_bits and range_bits must be positive")

    @property
    def idx_bits(self) -> int:
        return max(1, (self.msg_bits - 1).bit_length())

    @property
    def pt_bits(self) -> int:
        return self.seed_bits + self.idx_bits + 1

    @property
    def domain_bits(self) -> int:
        return 12 * self.pt_bits

    def to_bytes(self) -> bytes:
        return struct.pack(">HHH", self.msg_bits, self.seed_bits, self.range_bits)

    @classmethod
    def read_from(cls, data: bytes) -> tuple["ElwmParams", bytes]:
        (msg_bits, seed_bits, range_bits), rest = read_header(">HHH", data, "params")
        return load_field(cls, msg_bits, seed_bits, range_bits, what="params"), rest


def _expect_kind(circuit, cls: type, role: str):
    if not isinstance(circuit, cls):
        raise FormatError(f"{role} holds a {type(circuit).__name__}, expected a {cls.__name__}")
    return circuit


def _check_widths(params: ElwmParams, role: str, pe_circuit, f_main: GgmKey | None = None) -> None:
    """A loaded record's keys must have the widths its params declare."""
    if pe_circuit.ell != params.pt_bits:
        raise FormatError(f"{role} PE plaintext width {pe_circuit.ell} != pt_bits {params.pt_bits}")
    if f_main is not None and (f_main.domain_bits, f_main.out_bits) != (params.domain_bits, params.range_bits):
        raise FormatError(
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

    def to_bytes(self) -> bytes:
        f = self.f_main.to_bytes()
        d = circuit_to_bytes(self.pe_dk)
        return (
            PRFK_MAGIC
            + self.params.to_bytes()
            + struct.pack(">HHH", len(f), len(d), len(self.gen_id))
            + f
            + d
            + self.gen_id
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "PrfKeyIo":
        if data[:5] != PRFK_MAGIC:
            raise FormatError("bad PRF key magic")
        params, rest = ElwmParams.read_from(data[5:])
        (nf, nd, ng), body = read_header(">HHH", rest, "PRF key")
        if len(body) != nf + nd + ng:
            raise FormatError("PRF key record length mismatch")
        f_main = GgmKey.from_bytes(body[:nf])
        pe_dk = _expect_kind(circuit_from_bytes(body[nf : nf + nd]), DecryptionCircuit, "PRF key")
        _check_widths(params, "PRF key", pe_dk, f_main)
        return cls(params, f_main, pe_dk, body[nf + nd :])


@dataclass(frozen=True)
class TagIo:
    """Public side: the (obfuscated) PE encryption circuit."""

    params: ElwmParams
    pe_ek: ObfuscatedCircuit
    gen_id: bytes

    def to_bytes(self) -> bytes:
        e = self.pe_ek.to_bytes()
        return (
            TAG_MAGIC
            + self.params.to_bytes()
            + struct.pack(">HH", len(e), len(self.gen_id))
            + e
            + self.gen_id
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "TagIo":
        if data[:5] != TAG_MAGIC:
            raise FormatError("bad tag magic")
        params, rest = ElwmParams.read_from(data[5:])
        (ne, ng), body = read_header(">HH", rest, "tag")
        if len(body) != ne + ng:
            raise FormatError("tag record length mismatch")
        pe_ek = ObfuscatedCircuit.from_bytes(body[:ne])
        _check_widths(params, "tag", _expect_kind(pe_ek.circuit, EncryptionCircuit, "tag"))
        return cls(params, pe_ek, body[ne:])


def gen(params: ElwmParams, rng, obfuscator: Obfuscator | None = None) -> tuple[PrfKeyIo, TagIo]:
    """Sample a PRF key and its matched public tag."""
    f_main = ggm_gen(params.domain_bits, params.range_bits, rng)
    pe_keys: PeKeys = pe_gen(params.pt_bits, rng, obfuscator)
    gen_id = rng.bytes(SEED_BYTES)
    return (
        PrfKeyIo(params, f_main, pe_keys.dk, gen_id),
        TagIo(params, pe_keys.ek, gen_id),
    )


def eval_prf(prfk: PrfKeyIo, x: str) -> str:
    """Unmarked evaluation: the raw GGM PRF."""
    check_bits(x, prfk.params.domain_bits, what="PRF input")
    return ggm_eval(prfk.f_main, x)


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

    def run(self, x: str) -> str:
        p = self.params
        check_bits(x, p.domain_bits, what="PRF input")
        d = self.pe_dk.run(x)
        if d is not None:
            s = d[: p.seed_bits]
            idx = int(d[p.seed_bits : p.seed_bits + p.idx_bits], 2) + 1
            gamma = d[-1]
            if idx <= p.msg_bits and self.message[idx - 1] != gamma:
                return prg(s, p.range_bits)
        return ggm_eval(self.f_main, x)

    def payload_bytes(self) -> bytes:
        f = self.f_main.to_bytes()
        d = circuit_to_bytes(self.pe_dk)
        msg = self.message.encode()
        return self.params.to_bytes() + struct.pack(">HHH", len(f), len(d), len(msg)) + f + d + msg

    @classmethod
    def from_payload(cls, data: bytes) -> "MarkedEvalCircuit":
        params, rest = ElwmParams.read_from(data)
        (nf, nd, nm), body = read_header(">HHH", rest, "marked circuit")
        if len(body) != nf + nd + nm:
            raise FormatError("marked circuit payload length mismatch")
        message = decode_text(body[nf + nd :], "marked circuit message")
        if len(message) != params.msg_bits or message.strip("01"):
            raise FormatError(f"marked circuit message must be {params.msg_bits} bits, got {message!r}")
        f_main = GgmKey.from_bytes(body[:nf])
        pe_dk = _expect_kind(circuit_from_bytes(body[nf : nf + nd]), DecryptionCircuit, "marked circuit")
        _check_widths(params, "marked circuit", pe_dk, f_main)
        return cls(params, f_main, pe_dk, message)


register_circuit_kind(MarkedEvalCircuit.KIND_TAG, MarkedEvalCircuit)


def mark(prfk: PrfKeyIo, message: str, obfuscator: Obfuscator | None = None) -> ObfuscatedCircuit:
    """Embed a message: returns the obfuscated marked evaluator."""
    check_bits(message, prfk.params.msg_bits, what="message")
    obf = obfuscator or DEFAULT_OBFUSCATOR
    return obf.obfuscate(MarkedEvalCircuit(prfk.params, prfk.f_main, prfk.pe_dk, message))


def marked_circuit_to_bytes(circuit: ObfuscatedCircuit) -> bytes:
    return CIRCUIT_MAGIC + circuit.to_bytes()


def marked_circuit_from_bytes(data: bytes) -> ObfuscatedCircuit:
    if data[:5] != CIRCUIT_MAGIC:
        raise FormatError("bad marked circuit magic")
    circuit = ObfuscatedCircuit.from_bytes(data[5:])
    _expect_kind(circuit.circuit, MarkedEvalCircuit, "marked circuit file")
    return circuit


# ---------------------------------------------------------------------------
# simulation and distribution building
# ---------------------------------------------------------------------------

SIM_COIN_BITS_DOC = "1 (gamma) + seed_bits (PRG seed) + pt_bits (encryption seed)"


def sim_coin_bits(params: ElwmParams) -> int:
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
    y = prg(s, params.range_bits)
    return int(gamma), x, y


@dataclass(frozen=True)
class TripleDistribution:
    """Finite coin-indexed stand-in for a query distribution.

    kind is a readable label ("RealD", "RealDRev", "SimTau(3)", "DRealAt(2)");
    triples[r] = (gamma, x, y) for coin r.
    """

    kind: str
    s: int
    triples: tuple[tuple[int, str, str], ...]

    def __post_init__(self):
        if self.s < 1 or len(self.triples) != self.s:
            raise LengthError(f"distribution needs s={self.s} triples, got {len(self.triples)}")


REAL = "RealD"
REAL_REV = "RealDRev"


def sim_tau(i: int) -> str:
    return f"SimTau({i})"


def real_at(i: int) -> str:
    return f"DRealAt({i})"


def _parse_kind(kind: str) -> tuple[str, int | None]:
    if kind in (REAL, REAL_REV):
        return kind, None
    for base in ("SimTau", "DRealAt"):
        digits = kind[len(base) + 1 : -1]
        if kind.startswith(base + "(") and kind.endswith(")") and digits.isascii() and digits.isdigit():
            return base, int(digits)
    raise FormatError(f"unknown distribution kind {kind!r}")


def _real_coins(params: ElwmParams, coin_key: bytes, master_seed: bytes, r: int) -> tuple[str, str, str]:
    bits = keyed_rand(coin_key, master_seed + b"R" + r.to_bytes(4, "big"), 1 + params.domain_bits + params.range_bits)
    return bits[0], bits[1 : 1 + params.domain_bits], bits[1 + params.domain_bits :]


def build_distribution(
    kind: str,
    *,
    params: ElwmParams,
    s: int,
    master_seed: bytes,
    coin_key: bytes,
    prfk: PrfKeyIo | None = None,
    tag: TagIo | None = None,
    message: str | None = None,
) -> TripleDistribution:
    """Instantiate a distribution as s pseudorandom triples.

    RealD      : b <- coins, x <- coins, y = Eval(x) if b else fresh coins.
    RealDRev   : RealD with the first component complemented, same coins.
    SimTau(i)  : the Sim output on keyed coins.
    DRealAt(i) : gamma <- coins, x <- coins; y fresh if gamma = m[i], Eval(x) otherwise.

    The same (coin_key, master_seed) yields byte-identical triples; RealD and
    DRealAt share the coin layout so their recipes coincide when m[i] = 0.
    """
    base, index = _parse_kind(kind)
    triples: list[tuple[int, str, str]] = []
    if base in (REAL, REAL_REV):
        if prfk is None:
            raise LengthError("RealD distributions need the PRF key")
        for r in range(s):
            b, x, y_rand = _real_coins(params, coin_key, master_seed, r)
            y = eval_prf(prfk, x) if b == "1" else y_rand
            bit = int(b) if base == REAL else 1 - int(b)
            triples.append((bit, x, y))
    elif base == "SimTau":
        if tag is None or index is None:
            raise LengthError("SimTau distributions need the tag and an index")
        if not (1 <= index <= params.msg_bits):
            raise IndexRangeError(f"index {index} outside 1..{params.msg_bits}")
        for r in range(s):
            coins = keyed_rand(
                coin_key,
                master_seed + b"S" + index.to_bytes(2, "big") + r.to_bytes(4, "big"),
                sim_coin_bits(params),
            )
            triples.append(sim(params, tag, index, coins))
    else:  # DRealAt
        if prfk is None or message is None or index is None:
            raise LengthError("DRealAt distributions need the PRF key, message, and index")
        if not (1 <= index <= len(message)):
            raise IndexRangeError(f"index {index} outside 1..{len(message)}")
        for r in range(s):
            g, x, y_rand = _real_coins(params, coin_key, master_seed, r)
            y = y_rand if g == message[index - 1] else eval_prf(prfk, x)
            triples.append((int(g), x, y))
    return TripleDistribution(kind, s, tuple(triples))


def new_coin_key(rng) -> bytes:
    """Sample the keyed-coin-derivation key (the extraction key of the wrapper)."""
    return rng.bytes(SEED_BYTES)


def derive_master_seed(rng) -> bytes:
    return rng.bytes(SEED_BYTES)
