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

Encryption/decryption programs are *circuit records*: plain data (keys plus a
kind tag) evaluated by a fixed interpreter, so they can be serialized.  The
published handle of a circuit is an `ObfuscatedCircuit` under the "identity"
scheme: it wraps the record unchanged, preserves functionality and hides
nothing.  Every security claim downstream of obfuscation is therefore vacuous
in this build; the package verifies functional and measurement-theoretic
behavior only.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import ClassVar

from .crypto import (
    GgmKey,
    InjectivePprfKey,
    bits_to_bytes,
    bytes_to_bits,
    check_bits,
    ggm_eval,
    ggm_gen,
    injective_pprf_eval,
    injective_pprf_gen,
    prg,
    read_header,
    xor_bits,
)
from .errors import FormatError, LengthError

# ---------------------------------------------------------------------------
# circuit records and their published handle
# ---------------------------------------------------------------------------

_CIRCUIT_REGISTRY: dict[int, type] = {}


def register_circuit_kind(tag: int, cls: type) -> type:
    if tag in _CIRCUIT_REGISTRY and _CIRCUIT_REGISTRY[tag] is not cls:
        raise FormatError(f"circuit kind tag {tag} already registered")
    _CIRCUIT_REGISTRY[tag] = cls
    return cls


def circuit_to_bytes(circuit) -> bytes:
    return struct.pack(">B", circuit.KIND_TAG) + circuit.payload_bytes()


def circuit_from_bytes(data: bytes):
    if not data:
        raise FormatError("empty circuit record")
    tag = data[0]
    cls = _CIRCUIT_REGISTRY.get(tag)
    if cls is None:
        raise FormatError(f"unknown circuit kind tag {tag}")
    return cls.from_payload(data[1:])


@dataclass(frozen=True)
class ObfuscatedCircuit:
    """Evaluable handle of a circuit record.

    The identity scheme keeps the record accessible as `.circuit`; an actual
    hiding transformation would not.  It is the only scheme, and a record
    naming any other is malformed.
    """

    scheme: ClassVar[str] = "identity"

    circuit: object

    def run(self, *args):
        return self.circuit.run(*args)

    def to_bytes(self) -> bytes:
        scheme = self.scheme.encode()
        return struct.pack(">H", len(scheme)) + scheme + circuit_to_bytes(self.circuit)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ObfuscatedCircuit":
        (n,), rest = read_header(">H", data, "obfuscated circuit")
        if rest[:n] != cls.scheme.encode():
            raise FormatError(f"obfuscation scheme {rest[:n]!r} is not {cls.scheme!r}")
        return cls(circuit_from_bytes(rest[n:]))


# ---------------------------------------------------------------------------
# the encryption / decryption circuits
# ---------------------------------------------------------------------------


def _write_keys(circuit) -> bytes:
    f = circuit.f_key.to_bytes()
    g = circuit.g_key.to_bytes()
    return struct.pack(">HHH", circuit.ell, len(f), len(g)) + f + g


def _check_key_widths(f_key: InjectivePprfKey, g_key: GgmKey, ell: int, what: str) -> None:
    """A loaded circuit's keys must map 3ell -> 9ell and 9ell -> ell bits."""
    widths = (f_key.in_bits, f_key.out_bits, g_key.domain_bits, g_key.out_bits)
    if widths != (3 * ell, 9 * ell, 9 * ell, ell):
        raise FormatError(
            f"{what} keys map {widths[0]} -> {widths[1]} and {widths[2]} -> {widths[3]} bits, "
            f"ell={ell} needs {3 * ell} -> {9 * ell} and {9 * ell} -> {ell}"
        )


def _read_keys(data: bytes, what: str) -> tuple[InjectivePprfKey, GgmKey, int]:
    """(f_key, g_key, ell) from the payload shared by both plain circuits."""
    (ell, nf, ng), body = read_header(">HHH", data, what)
    if len(body) != nf + ng:
        raise FormatError(f"{what} payload length mismatch")
    f_key, g_key = InjectivePprfKey.from_bytes(body[:nf]), GgmKey.from_bytes(body[nf:])
    _check_key_widths(f_key, g_key, ell, what)
    return f_key, g_key, ell


def _split_ct(c: str, ell: int) -> tuple[str, str, str]:
    check_bits(c, 12 * ell, what="ciphertext")
    return c[: 2 * ell], c[2 * ell : 11 * ell], c[11 * ell :]


@dataclass(frozen=True)
class EncryptionCircuit:
    KIND_TAG: ClassVar[int] = 1

    f_key: InjectivePprfKey
    g_key: GgmKey
    ell: int

    def run(self, m: str, s: str) -> str:
        check_bits(m, self.ell, what="plaintext")
        check_bits(s, self.ell, what="encryption seed")
        alpha = prg(s, 2 * self.ell)
        beta = injective_pprf_eval(self.f_key, alpha + m)
        gamma = xor_bits(ggm_eval(self.g_key, beta), m)
        return alpha + beta + gamma

    def payload_bytes(self) -> bytes:
        return _write_keys(self)

    @classmethod
    def from_payload(cls, data: bytes) -> "EncryptionCircuit":
        return cls(*_read_keys(data, "encryption circuit"))


@dataclass(frozen=True)
class DecryptionCircuit:
    KIND_TAG: ClassVar[int] = 2

    f_key: InjectivePprfKey
    g_key: GgmKey
    ell: int

    def run(self, c: str) -> str | None:
        alpha, beta, gamma = _split_ct(c, self.ell)
        m = xor_bits(ggm_eval(self.g_key, beta), gamma)
        if injective_pprf_eval(self.f_key, alpha + m) != beta:
            return None
        return m

    def payload_bytes(self) -> bytes:
        return _write_keys(self)

    @classmethod
    def from_payload(cls, data: bytes) -> "DecryptionCircuit":
        return cls(*_read_keys(data, "decryption circuit"))


@dataclass(frozen=True)
class PuncturedDecryptionCircuit:
    """Decryption with an equality gate: bottom on the punctured ciphertext."""

    KIND_TAG: ClassVar[int] = 3

    f_key: InjectivePprfKey
    g_key: GgmKey
    ell: int
    c_star: str

    def run(self, c: str) -> str | None:
        check_bits(c, 12 * self.ell, what="ciphertext")
        if c == self.c_star:
            return None
        return DecryptionCircuit(self.f_key, self.g_key, self.ell).run(c)

    def payload_bytes(self) -> bytes:
        f = self.f_key.to_bytes()
        g = self.g_key.to_bytes()
        cb = bits_to_bytes(self.c_star)
        return struct.pack(">HHHH", self.ell, len(f), len(g), len(cb)) + f + g + cb

    @classmethod
    def from_payload(cls, data: bytes) -> "PuncturedDecryptionCircuit":
        (ell, nf, ng, nc), body = read_header(">HHHH", data, "punctured decryption circuit")
        if len(body) != nf + ng + nc or nc != (12 * ell + 7) // 8:
            raise FormatError("punctured decryption circuit payload length mismatch")
        f_key, g_key = InjectivePprfKey.from_bytes(body[:nf]), GgmKey.from_bytes(body[nf : nf + ng])
        _check_key_widths(f_key, g_key, ell, "punctured decryption circuit")
        return cls(f_key, g_key, ell, bytes_to_bits(body[nf + ng :], 12 * ell))


register_circuit_kind(EncryptionCircuit.KIND_TAG, EncryptionCircuit)
register_circuit_kind(DecryptionCircuit.KIND_TAG, DecryptionCircuit)
register_circuit_kind(PuncturedDecryptionCircuit.KIND_TAG, PuncturedDecryptionCircuit)


# ---------------------------------------------------------------------------
# scheme operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeKeys:
    """ek is the published encryption circuit handle; dk stays a plain record."""

    ek: ObfuscatedCircuit
    dk: DecryptionCircuit
    ell: int


def pe_gen(ell: int, rng) -> PeKeys:
    if ell < 1:
        raise LengthError("plaintext length must be positive")
    f_key = injective_pprf_gen(3 * ell, 9 * ell, rng)
    g_key = ggm_gen(9 * ell, ell, rng)
    return PeKeys(ObfuscatedCircuit(EncryptionCircuit(f_key, g_key, ell)), DecryptionCircuit(f_key, g_key, ell), ell)


def pe_enc(ek: ObfuscatedCircuit, m: str, rng) -> str:
    """Encrypt under a fresh uniform seed of |m| bits."""
    seed = bytes_to_bits(rng.bytes((len(m) + 7) // 8), len(m))
    return ek.run(m, seed)


def pe_dec(dk, c: str) -> str | None:
    return dk.run(c)


def pe_puncture(dk: DecryptionCircuit, c_star: str) -> ObfuscatedCircuit:
    check_bits(c_star, 12 * dk.ell, what="punctured ciphertext")
    return ObfuscatedCircuit(PuncturedDecryptionCircuit(dk.f_key, dk.g_key, dk.ell, c_star))


__all__ = [
    "EncryptionCircuit",
    "DecryptionCircuit",
    "PuncturedDecryptionCircuit",
    "ObfuscatedCircuit",
    "PeKeys",
    "pe_gen",
    "pe_enc",
    "pe_dec",
    "pe_puncture",
    "circuit_to_bytes",
    "circuit_from_bytes",
    "register_circuit_kind",
]
