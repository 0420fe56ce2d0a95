"""Sparse encryption layer: correctness, ciphertext structure, puncturing,
sparseness, and circuit serialization."""

from __future__ import annotations

import pytest

from qwmark import elwm, pe
from qwmark.crypto import bytes_to_bits, int_to_bits, write_record
from qwmark.errors import FormatError, LengthError

from conftest import rng_for


def test_ciphertext_layout():
    keys = pe.pe_gen(8, rng_for("pe-layout"))
    c = pe.pe_enc(keys.ek, "10110001", rng_for("pe-layout-enc"))
    assert len(c) == 96  # 12 * ell
    alpha, beta, gamma = c[:16], c[16:88], c[88:]
    assert len(alpha) == 16 and len(beta) == 72 and len(gamma) == 8


def test_round_trip_exhaustive_small():
    keys = pe.pe_gen(4, rng_for("pe-rt"))
    enc_rng = rng_for("pe-rt-enc")
    for v in range(16):
        m = int_to_bits(v, 4)
        c = pe.pe_enc(keys.ek, m, enc_rng)
        assert pe.pe_dec(keys.dk, c) == m


def test_encryption_is_seed_deterministic():
    keys = pe.pe_gen(6, rng_for("pe-det"))
    raw = keys.ek.circuit
    assert raw.run("101010", "110011") == raw.run("101010", "110011")
    assert raw.run("101010", "110011") != raw.run("101010", "110010")


def test_decrypt_rejects_mangled_ciphertexts():
    keys = pe.pe_gen(6, rng_for("pe-rej"))
    c = pe.pe_enc(keys.ek, "111000", rng_for("pe-rej-enc"))
    # flipping any single alpha or beta bit must break the consistency check;
    # flipping a gamma bit decodes to a different message that then fails too
    for pos in (0, 3, 12, 20, 40, 65, 70, 71):
        flipped = c[:pos] + ("1" if c[pos] == "0" else "0") + c[pos + 1 :]
        assert pe.pe_dec(keys.dk, flipped) is None


def test_sparseness_uniform_ciphertexts():
    # valid ciphertexts are ~2^(-6 ell) of the space; 10^4 uniform strings at
    # ell=4 should all bounce
    keys = pe.pe_gen(4, rng_for("pe-sparse"))
    local = rng_for("pe-sparse-draws")
    hits = 0
    for _ in range(10_000):
        c = bytes_to_bits(local.bytes(6), 48)
        if pe.pe_dec(keys.dk, c) is not None:
            hits += 1
    assert hits == 0


def test_puncture_blocks_exactly_one_point():
    keys = pe.pe_gen(5, rng_for("pe-punct"))
    enc_rng = rng_for("pe-punct-enc")
    c_star = pe.pe_enc(keys.ek, "10101", enc_rng)
    pdk = pe.pe_puncture(keys.dk, c_star)
    assert pdk.run(c_star) is None
    # all other ciphertexts, same and different plaintexts, still decrypt
    for v in range(32):
        m = int_to_bits(v, 5)
        for _ in range(4):
            c = pe.pe_enc(keys.ek, m, enc_rng)
            if c == c_star:
                continue
            assert pdk.run(c) == m


def test_punctured_circuit_validates_length():
    keys = pe.pe_gen(4, rng_for("pe-len"))
    c_star = pe.pe_enc(keys.ek, "0110", rng_for("pe-len-enc"))
    pdk = pe.pe_puncture(keys.dk, c_star)
    with pytest.raises(LengthError):
        pdk.run("01")


def test_distinct_messages_distinct_ciphertexts():
    keys = pe.pe_gen(6, rng_for("pe-distinct"))
    enc_rng = rng_for("pe-distinct-enc")
    seen = set()
    for v in range(64):
        c = pe.pe_enc(keys.ek, int_to_bits(v, 6), enc_rng)
        assert c not in seen
        seen.add(c)


# ---------------------------------------------------------------------------
# obfuscation wrapper
# ---------------------------------------------------------------------------


def test_identity_obfuscator_preserves_behavior():
    keys = pe.pe_gen(4, rng_for("pe-obf"))
    assert keys.ek.scheme == "identity"
    raw = keys.ek.circuit
    assert keys.ek.run("1100", "0011") == raw.run("1100", "0011")


def test_obfuscated_circuit_serialization():
    keys = pe.pe_gen(4, rng_for("pe-obf-ser"))
    blob = keys.ek.to_bytes()
    restored = pe.ObfuscatedCircuit.from_bytes(blob, pe.EncryptionCircuit, "tag")
    assert restored == keys.ek
    assert restored.run("1010", "0101") == keys.ek.run("1010", "0101")


# ---------------------------------------------------------------------------
# circuit serialization
# ---------------------------------------------------------------------------


def test_circuit_round_trips():
    keys = pe.pe_gen(5, rng_for("pe-ser"))
    for circ in (keys.ek.circuit, keys.dk):
        blob = pe.circuit_to_bytes(circ)
        assert pe.circuit_from_bytes(blob, type(circ), "circuit") == circ


def test_truncated_circuits_raise_format_error():
    keys = pe.pe_gen(5, rng_for("pe-trunc"))
    for blob, load in (
        (keys.ek.to_bytes(), lambda b: pe.ObfuscatedCircuit.from_bytes(b, pe.EncryptionCircuit, "tag")),
        (pe.circuit_to_bytes(keys.dk), lambda b: pe.circuit_from_bytes(b, pe.DecryptionCircuit, "circuit")),
    ):
        load(blob)
        for cut in range(len(blob)):
            with pytest.raises(FormatError):
                load(blob[:cut])


def test_circuit_records_refuse_other_kinds():
    keys = pe.pe_gen(9, rng_for("pe-kinds"))
    prfk, _ = elwm.gen(elwm.ElwmParams(4, seed_bits=6, range_bits=12), rng_for("pe-kinds-elwm"))
    records = (keys.ek.circuit, keys.dk, elwm.mark(prfk, "0110").circuit)
    kinds = [type(circ) for circ in records]
    blobs = [pe.circuit_to_bytes(circ) for circ in records] + [b"", b"\xff" + b"payload"]
    scheme = write_record((), (pe.ObfuscatedCircuit.scheme.encode(),))  # the handle's prefix
    for cls in kinds:
        for blob in blobs:
            if blob[:1] == bytes([cls.KIND_TAG]):
                assert type(pe.circuit_from_bytes(blob, cls, "circuit")) is cls
                assert type(pe.ObfuscatedCircuit.from_bytes(scheme + blob, cls, "handle").circuit) is cls
                continue
            with pytest.raises(FormatError):
                pe.circuit_from_bytes(blob, cls, "circuit")
            with pytest.raises(FormatError):
                pe.ObfuscatedCircuit.from_bytes(scheme + blob, cls, "handle")


def test_circuits_check_key_widths_when_built():
    # keys of ell = 4 and ell = 5: any mix, or either pair under the other ell, is malformed
    small, big = pe.pe_gen(4, rng_for("pe-widths-4")).dk, pe.pe_gen(5, rng_for("pe-widths-5")).dk
    c_star = "0" * 48
    for f_key, g_key in ((small.f_key, big.g_key), (big.f_key, small.g_key), (big.f_key, big.g_key)):
        for cls in (pe.EncryptionCircuit, pe.DecryptionCircuit):
            with pytest.raises(LengthError):
                cls(f_key, g_key, 4)
        with pytest.raises(LengthError):
            pe.PuncturedDecryptionCircuit(f_key, g_key, 4, c_star)
    with pytest.raises(LengthError):
        pe.PuncturedDecryptionCircuit(small.f_key, small.g_key, 4, c_star[1:])
    assert pe.PuncturedDecryptionCircuit(small.f_key, small.g_key, 4, c_star).run(c_star) is None


def test_pe_gen_validates_length():
    with pytest.raises(LengthError):
        pe.pe_gen(0, rng_for("pe-bad"))
