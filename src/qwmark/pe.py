"""Puncturable encryption with ciphertext sparseness, built from a
length-doubling PRG, a statistically injective PPRF, and a second PPRF.

A plaintext m of ell bits encrypts under seed s (ell bits) to

    c = alpha || beta || gamma,      |c| = 12*ell
    alpha = PRG(s)                   (2*ell bits)
    beta  = F(alpha || m)            (injective PPRF, 3*ell -> 9*ell)
    gamma = G(beta) xor m            (PPRF, 9*ell -> ell)

Decryption recovers m = G(beta) xor gamma and accepts iff beta = F(alpha || m).
Because valid beta values form a 2^(3*ell)-point subset of a 9*ell-bit space,
uniform strings decrypt with probability ~2^(-6*ell): the scheme is sparse.
Puncturing at a ciphertext c* wraps the decryption circuit with an equality
gate that returns bottom on c* and is unchanged elsewhere.

Encryption/decryption programs are *circuit records*: plain data (keys)
evaluated by a fixed interpreter.  A circuit serializes as its one-byte
KIND_TAG followed by its widths and keys in one ``crypto.write_record``
record.  A circuit checks its key widths when it is constructed, and a
record whose widths do not fit is malformed.  A reader names the class it
expects, and a circuit of any other kind is malformed.  The published handle of a circuit is an `ObfuscatedCircuit`
under the "identity" scheme: it wraps the record unchanged, preserves
functionality and hides nothing.  Every security claim downstream of
obfuscation is therefore vacuous in this build; the package verifies
functional and measurement-theoretic behavior only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import ClassVar

from . import native
from .crypto import (
    _PLAINTEXT_MEMO_SIZE,
    GgmKey,
    InjectivePprfKey,
    _ggm_eval,
    _injective_eval,
    _plaintexts,
    _prg,
    check_bits,
    ggm_gen,
    injective_pprf_gen,
    int_to_bits,
    load_field,
    read_record,
    read_whole_record,
    write_record,
)
from .errors import FormatError, LengthError

# ---------------------------------------------------------------------------
# circuit records and their published handle
# ---------------------------------------------------------------------------


def circuit_to_bytes(circuit) -> bytes:
    return bytes([circuit.KIND_TAG]) + circuit.payload_bytes()


def circuit_from_bytes(data: bytes, cls: type, what: str):
    """Decode a circuit record that must be of the kind `cls`."""
    if data[:1] != bytes([cls.KIND_TAG]):
        raise FormatError(f"{what} holds circuit kind {data[:1].hex() or 'none'}, expected a {cls.__name__}")
    return cls.from_payload(data[1:])


@dataclass(frozen=True)
class ObfuscatedCircuit:
    """Evaluable handle of a circuit record.

    The identity scheme keeps the record accessible as `.circuit`; an actual
    hiding transformation would not.  It is the only scheme, and a record
    naming any other is malformed.  Serialized as a record with the blob
    scheme, followed by the circuit record.
    """

    scheme: ClassVar[str] = "identity"

    circuit: object

    def run(self, *args):
        return self.circuit.run(*args)

    def to_bytes(self) -> bytes:
        return write_record((), (self.scheme.encode(),)) + circuit_to_bytes(self.circuit)

    @classmethod
    def from_bytes(cls, data: bytes, kind: type, what: str) -> "ObfuscatedCircuit":
        """Decode a handle whose circuit must be of the kind `kind`."""
        _, (scheme,), rest = read_record(data, 0, 1, what)
        if scheme != cls.scheme.encode():
            raise FormatError(f"obfuscation scheme {scheme!r} is not {cls.scheme!r}")
        return cls(circuit_from_bytes(rest, kind, what))


# ---------------------------------------------------------------------------
# the encryption / decryption circuits
# ---------------------------------------------------------------------------


def _check_key_widths(circuit) -> None:
    """A circuit's keys must map 3ell -> 9ell and 9ell -> ell bits."""
    ell = circuit.ell
    widths = (circuit.f_key.in_bits, circuit.f_key.out_bits, circuit.g_key.domain_bits, circuit.g_key.out_bits)
    if widths != (3 * ell, 9 * ell, 9 * ell, ell):
        raise LengthError(
            f"{type(circuit).__name__} keys map {widths[0]} -> {widths[1]} and {widths[2]} -> {widths[3]} bits, "
            f"ell={ell} needs {3 * ell} -> {9 * ell} and {9 * ell} -> {ell}"
        )


def _keys(circuit) -> tuple[bytes, bytes, bytes, int]:
    """What a circuit's plaintexts and ciphertexts are a function of: the seeds of F, F's mask and G, and ell."""
    return circuit.f_key.ggm.seed, circuit.f_key.mask_seed, circuit.g_key.seed, circuit.ell


def _remember(keys: tuple, cs, ms) -> None:
    """Record in ``crypto._plaintexts`` that each c of `cs` decrypts under `keys` to the m at its place in `ms`.

    A memo without room for all of them, at most _PLAINTEXT_MEMO_SIZE, is
    emptied first.
    """
    if len(_plaintexts) + len(cs) > _PLAINTEXT_MEMO_SIZE:
        _plaintexts.clear()
    _plaintexts.update(zip(zip(repeat(keys), cs), ms))


def _encrypt(ek, m: int, s: int) -> int:
    """Encrypt the ell-bit m under the ell-bit seed s with the keys of `ek`: alpha || beta || gamma."""
    ell = ek.ell
    alpha = _prg(s, ell, 2 * ell)
    beta = _injective_eval(ek.f_key, (alpha << ell) | m)
    gamma = _ggm_eval(ek.g_key, beta) ^ m
    c = (((alpha << 9 * ell) | beta) << ell) | gamma
    _remember(_keys(ek), (c,), (m,))
    return c


def _python_decrypt(dk, c: int) -> int | None:
    """Decrypt a 12ell-bit ciphertext under the keys of `dk`: m = G(beta) xor gamma if beta = F(alpha || m)."""
    ell = dk.ell
    beta = (c >> ell) & ((1 << 9 * ell) - 1)
    m = _ggm_eval(dk.g_key, beta) ^ (c & ((1 << ell) - 1))
    if _injective_eval(dk.f_key, ((c >> 10 * ell) << ell) | m) != beta:
        return None
    return m


def _python_decrypts(dk, cs) -> list[int | None]:
    """``_python_decrypt`` of each of the ciphertexts `cs`: the twin of the native decryption kernel."""
    return [_python_decrypt(dk, c) for c in cs]


def _decrypt_probes():
    """At ell = 10 and 36 (F's output in two blocks), under fixed keys, a batch: a ciphertext; the same with beta's
    last bit, or a bit of its last whole byte, flipped and gamma made again so that m is kept, which only the check
    of beta refuses; one-bit flips of alpha, beta and gamma; and random strings, ten more at ell = 10, so that its
    batch of 17 is a group of 16 and one left over."""
    for ell, randoms in ((10, 11), (36, 1)):
        f_key = InjectivePprfKey(GgmKey(b"dec-probe-f-root", 3 * ell, 9 * ell), b"dec-probe-f-mask")
        dk = DecryptionCircuit(f_key, GgmKey(b"dec-probe-g-root", 9 * ell, ell), ell)
        alpha, m = _prg(ell, 16, 2 * ell), _prg(ell, 16, ell)
        beta = _injective_eval(f_key, (alpha << ell) | m)
        cs = [(((alpha << 9 * ell) | b) << ell) | (_ggm_eval(dk.g_key, b) ^ m) for b in (beta, beta ^ 1, beta ^ 256)]
        flips = (1 << 12 * ell - 1, 1 << 5 * ell, 1)  # alpha's first bit, beta's middle bit, gamma's last bit
        yield dk, [*cs, *(cs[0] ^ flip for flip in flips), *(_prg(ell + r, 16, 12 * ell) for r in range(randoms))]


_decrypt_in_use = native.first_use("decrypt", native.load_decrypt, _python_decrypts, _decrypt_probes, "python")


def _decrypt(dk, cs, keys: tuple) -> list[int | None]:
    """Decrypt each of the 12ell-bit ciphertexts `cs` under the keys of `dk`: m = G(beta) xor gamma if
    beta = F(alpha || m), else None.

    `keys` is ``_keys(dk)``, which a caller that decrypts many ciphertexts
    under one circuit builds once.  A ciphertext encrypted under the same
    keys since the memo was last emptied is answered from it: by correctness
    its plaintext is the one it was made from.  The others go in one call to
    the native kernel if it loads and agrees with ``_python_decrypts`` on the
    probes, else to that twin.
    """
    ms = [_plaintexts.get((keys, c)) for c in cs]
    missing = [c for c, m in zip(cs, ms) if m is None]
    if missing:
        fill = iter(_decrypt_in_use()(dk, missing))
        ms = [next(fill) if m is None else m for m in ms]
    return ms


def _decrypt_bits(dk, c: str) -> str | None:
    """``_decrypt`` of a checked ciphertext string, formatted."""
    (m,) = _decrypt(dk, (int(c, 2),), _keys(dk))
    return None if m is None else int_to_bits(m, dk.ell)


@dataclass(frozen=True)
class _KeyedCircuit:
    """Keys of a plain PE circuit; its record has the field ell and the blobs f_key, g_key."""

    f_key: InjectivePprfKey
    g_key: GgmKey
    ell: int

    def __post_init__(self):
        _check_key_widths(self)

    def payload_bytes(self) -> bytes:
        return write_record((self.ell,), (self.f_key.to_bytes(), self.g_key.to_bytes()))

    @classmethod
    def from_payload(cls, data: bytes):
        (ell,), (f, g) = read_whole_record(data, 1, 2, cls.__name__)
        f_key, g_key = InjectivePprfKey.from_bytes(f), GgmKey.from_bytes(g)
        return load_field(cls, f_key, g_key, ell, what=cls.__name__)


@dataclass(frozen=True)
class EncryptionCircuit(_KeyedCircuit):
    KIND_TAG: ClassVar[int] = 1

    def run(self, m: str, s: str) -> str:
        check_bits(m, self.ell, what="plaintext")
        check_bits(s, self.ell, what="encryption seed")
        return int_to_bits(_encrypt(self, int(m, 2), int(s, 2)), 12 * self.ell)


@dataclass(frozen=True)
class DecryptionCircuit(_KeyedCircuit):
    KIND_TAG: ClassVar[int] = 2

    def run(self, c: str) -> str | None:
        check_bits(c, 12 * self.ell, what="ciphertext")
        return _decrypt_bits(self, c)


@dataclass(frozen=True)
class PuncturedDecryptionCircuit:
    """Decryption with an equality gate: bottom on the punctured ciphertext."""

    f_key: InjectivePprfKey
    g_key: GgmKey
    ell: int
    c_star: str

    def __post_init__(self):
        _check_key_widths(self)
        check_bits(self.c_star, 12 * self.ell, what="punctured ciphertext")

    def run(self, c: str) -> str | None:
        check_bits(c, 12 * self.ell, what="ciphertext")
        return None if c == self.c_star else _decrypt_bits(self, c)


# ---------------------------------------------------------------------------
# scheme operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeKeys:
    """ek is the published encryption circuit handle; dk stays a plain record."""

    ek: ObfuscatedCircuit
    dk: DecryptionCircuit


def pe_gen(ell: int, rng) -> PeKeys:
    if ell < 1:
        raise LengthError("plaintext length must be positive")
    f_key = injective_pprf_gen(3 * ell, 9 * ell, rng)
    g_key = ggm_gen(9 * ell, ell, rng)
    return PeKeys(ObfuscatedCircuit(EncryptionCircuit(f_key, g_key, ell)), DecryptionCircuit(f_key, g_key, ell))


def pe_enc(ek: ObfuscatedCircuit, m: str, rng) -> str:
    """Encrypt under a fresh uniform seed of |m| bits: the first |m| bits of ceil(|m| / 8) fresh bytes."""
    seed = int.from_bytes(rng.bytes((len(m) + 7) // 8), "big") >> (-len(m) % 8)
    return ek.run(m, int_to_bits(seed, len(m)))


def pe_dec(dk, c: str) -> str | None:
    return dk.run(c)


def pe_puncture(dk: DecryptionCircuit, c_star: str) -> ObfuscatedCircuit:
    return ObfuscatedCircuit(PuncturedDecryptionCircuit(dk.f_key, dk.g_key, dk.ell, c_star))
