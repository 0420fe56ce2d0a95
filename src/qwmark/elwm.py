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

All randomness for distribution building is derived through keyed coins, so
private- and public-coin modes share one code path: publishing the coin key
makes the simulation public.  A Sim and a RealD distribution are each built
in one call of a native kernel of ``native.py`` where it loads and agrees
with its Python builder on probes (``_sim_in_use`` and ``_reald_in_use``,
reported by ``native.kernels()``); both give the same bytes.  Both Sim
builders record each ciphertext's plaintext in the memo that the marked
circuit's decryption reads first, and both RealD builders leave each F(x)
they compute in the leaf memo, which the marked circuit reads on those x.

Every builder also makes its distribution's x's the pending batch
(``crypto._pending``), each bit string mapped to its int.  The pirate asks
the marked circuit one ``run(x)`` at a time, and the first x of the pending
batch that a circuit has no answer for makes it answer the whole batch: one
call decrypts every plaintext-memo miss, the tails are tested, and one call
walks every leaf-memo miss, each in groups of 16 lanes.  The answers stay in
a map of the circuit's, holding only its latest batch, so each later
``run(x)`` of the distribution is one lookup.  Any other x is a batch of one
and is checked as before.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from functools import cached_property
from itertools import compress, repeat
from typing import ClassVar

from . import native
from .crypto import (
    SEED_BYTES,
    GgmKey,
    InjectivePprfKey,
    _ggm_eval,
    _ggm_leaves,
    _pending,
    _keyed_coins,
    _prg,
    _remember_leaves,
    check_bits,
    decode_text,
    ggm_gen,
    int_to_bits,
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
    _encrypt,
    _keys,
    _remember,
    circuit_from_bytes,
    circuit_to_bytes,
    pe_gen,
)

PRFK_MAGIC = b"QWPK1"
TAG_MAGIC = b"QWTG1"
CIRCUIT_MAGIC = b"QWMC1"
MAX_TRIPLES = 4096  # the work budget of a distribution: the largest s of an extraction and of sim --count


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
    circuit records.  pt_bits is at most MAX_PT_BITS, so params are refused
    before any key of their widths exists.
    """

    # The width budget.  The injective PPRF's affine map takes 3 * pt_bits to
    # 9 * pt_bits bits, a 27 * pt_bits**2-bit matrix: at 1024, key generation
    # plus a first Sim took 0.5-0.6 s and 80 MB peak RSS on a 2-vCPU x86-64 host.
    MAX_PT_BITS: ClassVar[int] = 1024

    msg_bits: int
    seed_bits: int = 8
    range_bits: int = 16

    def __post_init__(self):
        if self.msg_bits < 1:
            raise LengthError("msg_bits must be positive")
        if self.seed_bits < 1 or self.range_bits < 1:
            raise LengthError("seed_bits and range_bits must be positive")
        # both are written to u16 fields; the budget keeps seed_bits and domain_bits below 2^16
        for name in ("msg_bits", "range_bits"):
            if getattr(self, name) > 0xFFFF:
                raise LengthError(f"{name} = {getattr(self, name)} does not fit a 16-bit field")
        if self.pt_bits > self.MAX_PT_BITS:
            raise LengthError(
                f"seed_bits = {self.seed_bits} gives pt_bits = {self.pt_bits}, "
                f"beyond the width budget of {self.MAX_PT_BITS}"
            )

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
    return int_to_bits(_ggm_eval(prfk.f_main, int(x, 2)), prfk.params.range_bits)


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

    @cached_property
    def _constants(self) -> tuple:
        """What ``_answer`` reads of this circuit, derived once: the input width, the
        plaintext-memo key of `pe_dk`, the width and mask of a plaintext's
        tail idx || gamma, the tails on which the mark bites, the seed and
        output widths, the PRF's root seed, and the output format."""
        p = self.params
        tail = p.idx_bits + 1
        # the tail of position i (1-based) is (i - 1) || gamma, and the mark bites where gamma != m[i]
        bites = frozenset((i << 1) | (1 - int(bit)) for i, bit in enumerate(self.message))
        return (
            p.domain_bits, _keys(self.pe_dk), tail, (1 << tail) - 1, bites,
            p.seed_bits, p.range_bits, self.f_main.seed, f"0{p.range_bits}b",
        )

    @cached_property
    def _answers(self) -> dict[str, str]:
        """The answer to each x of the latest pending batch this circuit answered, by x."""
        return {}

    def run(self, x: str) -> str:
        try:
            return self._answers[x]  # a key was written by a builder, so a hit is a valid x
        except (KeyError, TypeError):
            pass
        n = self.params.domain_bits
        if isinstance(x, str) and x in _pending and len(x) == n:
            answers = self._answers
            answers.clear()
            answers.update(self._answer(_pending))
            return answers[x]
        return self._answer({x: int(check_bits(x, n, what="PRF input"), 2)})[x]

    def _answer(self, batch: dict[str, int]) -> dict[str, str]:
        """D(x) of each x of `batch`, a map of n-bit strings to their ints, by x: the plaintext memo read and its
        misses decrypted in one call, the tails tested, and the leaf memo read and its misses walked in one call."""
        n, keys, tail, tail_mask, bites, seed_bits, range_bits, root, out = self._constants
        values = list(batch.values())
        ds = _decrypt(self.pe_dk, values, keys)  # d = s || idx || gamma, or None
        bitten = [d is not None and d & tail_mask in bites for d in ds]
        leaves = iter(_ggm_leaves(root, [value for value, bit in zip(values, bitten) if not bit], n, range_bits))
        return {
            x: format(_prg(d >> tail, seed_bits, range_bits) if bit else next(leaves), out)
            for x, d, bit in zip(batch, ds, bitten)
        }

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


def _sim(params: ElwmParams, ek: EncryptionCircuit, i: int, coins: int) -> tuple[int, str, str]:
    """Sim(tau, i) under `ek` for a position i in 1..msg_bits, on the coins gamma || s || enc_seed as an int:
    (gamma, Enc(ek, s || i || gamma), PRG(s)), with x and y formatted."""
    pt_bits, seed_bits = params.pt_bits, params.seed_bits
    gamma = coins >> (seed_bits + pt_bits)
    s = (coins >> pt_bits) & ((1 << seed_bits) - 1)
    plaintext = (((s << params.idx_bits) | (i - 1)) << 1) | gamma
    x = _encrypt(ek, plaintext, coins & ((1 << pt_bits) - 1))
    y = _prg(s, seed_bits, params.range_bits)
    return gamma, int_to_bits(x, params.domain_bits), int_to_bits(y, params.range_bits)


def _sim_label(master_seed: bytes, index: int) -> bytes:
    """The keyed-coin label of Sim(tau, index) up to the record number, a big-endian u32."""
    return master_seed + b"S" + index.to_bytes(2, "big")


def _pend(x_texts, xs) -> None:
    """Make the x's of the distribution just built, as bit strings and as ints, the pending batch."""
    _pending.clear()
    _pending.update(zip(x_texts, xs))


def _python_sim(
    params: ElwmParams, ek: EncryptionCircuit, index: int, s: int, master_seed: bytes, coin_key: bytes
) -> tuple[tuple[int, str, str], ...]:
    """The s triples of Sim(tau, index), one ``_sim`` on the keyed coins of each record."""
    label, bits = _sim_label(master_seed, index), sim_coin_bits(params)
    coins = (_keyed_coins(coin_key, label + r.to_bytes(4, "big"), bits) for r in range(s))
    triples = tuple(_sim(params, ek, index, record) for record in coins)
    x_texts = [x for _, x, _ in triples]
    _pend(x_texts, map(int, x_texts, repeat(2)))
    return triples


def _native_sim(kernel):
    """``_python_sim`` in one call of the native Sim `kernel`, which also fills the plaintext memo and the pending
    batch."""

    def build(params, ek, index, s, master_seed, coin_key) -> tuple[tuple[int, str, str], ...]:
        head = b"coin|" + coin_key + b"#" + _sim_label(master_seed, index)  # _keyed_coins's hash prefix
        key_material = (ek.f_key.ggm.seed, ek.f_key._packed_affine, ek.g_key.seed)
        widths = (params.seed_bits, params.idx_bits, index - 1, params.range_bits)
        ms, xs, x_texts, y_texts = kernel(head, s, *widths, *key_material)
        _remember(_keys(ek), xs, ms)
        _pend(x_texts, xs)
        return tuple(zip(map((1).__and__, ms), x_texts, y_texts))  # gamma is the last bit of m

    return build


def _sim_probe(params: ElwmParams) -> tuple:
    """Arguments of a 17-triple Sim distribution at the last index, under fixed keys of the widths of `params`:
    a group of 16 records and one left over."""
    ell = params.pt_bits
    f_key = InjectivePprfKey(GgmKey(b"sim-probe-f-root", 3 * ell, 9 * ell), b"sim-probe-f-mask")
    ek = EncryptionCircuit(f_key, GgmKey(b"sim-probe-g-root", 9 * ell, ell), ell)
    return params, ek, params.msg_bits, 17, b"sim-probe-master", b"sim-probe-coin-k"


# a game's widths, and a 9-bit index with F's output (324 bits) and y (300 bits) each wider than one hash block
_PROBE_PARAMS = (ElwmParams(5, 6, 12), ElwmParams(300, 26, 300))
_SIM_PROBES = tuple(map(_sim_probe, _PROBE_PARAMS))
_sim_in_use = native.first_use(
    "sim_kernel",
    lambda: (kernel := native.load_sim()) and _native_sim(kernel),
    _python_sim,
    lambda: _SIM_PROBES,
    "python",
)


def _reald_label(master_seed: bytes) -> bytes:
    """The keyed-coin label of RealD up to the record number, a big-endian u32."""
    return master_seed + b"R"


def _python_reald(f_main: GgmKey, s: int, master_seed: bytes, coin_key: bytes) -> tuple[tuple[int, str, str], ...]:
    """The s triples of RealD under the PRF key `f_main`: b, x and fresh y from the keyed coins of each record,
    and y = F(x) where b is 1."""
    n, m = f_main.domain_bits, f_main.out_bits
    label = _reald_label(master_seed)
    triples: list[tuple[int, str, str]] = []
    xs = []
    for r in range(s):
        coins = _keyed_coins(coin_key, label + r.to_bytes(4, "big"), 1 + n + m)
        b, x = coins >> (n + m), (coins >> m) & ((1 << n) - 1)
        y = _ggm_eval(f_main, x) if b else coins & ((1 << m) - 1)
        triples.append((b, int_to_bits(x, n), int_to_bits(y, m)))
        xs.append(x)
    _pend([x for _, x, _ in triples], xs)
    return tuple(triples)


def _native_reald(kernel):
    """``_python_reald`` in one call of the native RealD `kernel`; each F(x) it computes goes to the leaf memo, and
    its x's are the pending batch."""

    def build(f_main, s, master_seed, coin_key) -> tuple[tuple[int, str, str], ...]:
        n, m = f_main.domain_bits, f_main.out_bits
        head = b"coin|" + coin_key + b"#" + _reald_label(master_seed)  # _keyed_coins's hash prefix
        bs, xs, ys, x_texts, y_texts = kernel(head, s, n, m, f_main.seed)
        _remember_leaves(f_main.seed, n, m, list(compress(xs, bs)), compress(ys, bs))
        _pend(x_texts, xs)
        return tuple(zip(bs, x_texts, y_texts))

    return build


def _reald_probe(params: ElwmParams) -> tuple:
    """Arguments of a 40-triple RealD distribution under a fixed PRF key of the widths of `params`: 23 of its
    records have b = 1, a group of 16 and 7 left over."""
    key = GgmKey(b"reald-probe-root", params.domain_bits, params.range_bits)
    return key, 40, b"reald-probe-mast", b"reald-probe-coin"


_REALD_PROBES = tuple(map(_reald_probe, _PROBE_PARAMS))
_reald_in_use = native.first_use(
    "reald_kernel",
    lambda: (kernel := native.load_reald()) and _native_reald(kernel),
    _python_reald,
    lambda: _REALD_PROBES,
    "python",
)


def build_distribution(
    index: int | None,
    *,
    params: ElwmParams,
    s: int,
    master_seed: bytes,
    coin_key: bytes,
    prfk: PrfKeyIo | None = None,
    tag: TagIo | None = None,
) -> tuple[tuple[int, str, str], ...]:
    """Instantiate a distribution as its s pseudorandom triples (b, x, y), one per coin.

    index None is RealD: b <- coins, x <- coins, y = Eval(x) if b else fresh
    coins, built by ``_reald_in_use()``.  A message position i in
    1..msg_bits is Sim(tau, i): the Sim output on keyed coins, built by
    ``_sim_in_use()``.  s runs from 1 to MAX_TRIPLES.  The builder makes
    the x's it built the pending batch, which the marked circuit answers at
    once.

    The same (coin_key, master_seed) yields byte-identical triples.
    """
    if not 1 <= s <= MAX_TRIPLES:
        raise LengthError(f"a distribution holds 1 to {MAX_TRIPLES} triples, got s={s}")
    if index is None:
        if prfk is None:
            raise LengthError("RealD distributions need the PRF key")
        return _reald_in_use()(prfk.f_main, s, master_seed, coin_key)
    if tag is None:
        raise LengthError("Sim distributions need the tag")
    if not (1 <= index <= params.msg_bits):
        raise IndexRangeError(f"index {index} outside 1..{params.msg_bits}")
    return _sim_in_use()(params, tag.pe_ek.circuit, index, s, master_seed, coin_key)


def new_coin_key(rng) -> bytes:
    """Sample the keyed-coin-derivation key (the extraction key of the wrapper)."""
    return rng.bytes(SEED_BYTES)


def coin_key_from_bytes(data: bytes) -> bytes:
    """A stored coin key: exactly SEED_BYTES bytes, taken as they are."""
    if len(data) != SEED_BYTES:
        raise LengthError(f"coin key must be {SEED_BYTES} bytes, got {len(data)}")
    return data
