"""Sparse encryption layer: correctness, ciphertext structure, puncturing,
sparseness, circuit serialization, and the native and Python decryptions."""

from __future__ import annotations

import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qwmark import crypto, elwm, native, pe
from qwmark.crypto import int_to_bits, write_record
from qwmark.errors import FormatError, LengthError

from conftest import bytes_to_bits, rng_for


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


def test_a_punctured_circuit_refuses_a_memoized_c_star():
    # the equality gate comes before the plaintext memo, so a ciphertext the
    # memo would answer is still bottom where the key is punctured
    keys = pe.pe_gen(6, rng_for("pe-punct-memo"))
    crypto.forget_leaves()
    c_star = keys.ek.run("011010", "110001")
    assert crypto._plaintexts[pe._keys(keys.dk), int(c_star, 2)] == 0b011010
    assert keys.dk.run(c_star) == "011010"
    assert pe.pe_puncture(keys.dk, c_star).run(c_star) is None


def test_a_ciphertext_under_other_keys_misses_the_memo():
    ours, theirs = pe.pe_gen(6, rng_for("pe-memo-ours")), pe.pe_gen(6, rng_for("pe-memo-theirs"))
    crypto.forget_leaves()
    c = ours.ek.run("100111", "000111")
    assert crypto._plaintexts == {(pe._keys(ours.ek.circuit), int(c, 2)): 0b100111}
    assert theirs.dk.run(c) is None  # a memo keyed by the ciphertext alone would answer 100111
    assert ours.dk.run(c) == "100111"


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


# ---------------------------------------------------------------------------
# the native and Python decryptions
# ---------------------------------------------------------------------------

# The decryptions this host runs, each of a batch of ciphertexts: the Python twin always, and the native
# kernel where it builds, taken as built rather than after pe's probe has vetted it.
DECRYPTS = {"python": pe._python_decrypts}
if (native_decrypt := native.load_decrypt()) is not None:
    DECRYPTS["native"] = native_decrypt


def test_the_native_decrypt_runs_wherever_it_builds():
    assert native.kernels()["decrypt"] == ("native" if "native" in DECRYPTS else "python")


@pytest.mark.skipif("native" not in DECRYPTS, reason="the native decryption does not build on this host")
@pytest.mark.parametrize("ell", [1, 10, 36])  # at 36, 9 ell = 324 bits: F's output takes two leaf blocks
@given(data=st.data())
def test_native_and_python_decryptions_agree_with_the_memo_warm_and_cold(ell, data):
    keys = pe.pe_gen(ell, rng_for(f"pe-decrypt-twin-{ell}"))
    m, s = (data.draw(st.integers(0, (1 << ell) - 1)) for _ in range(2))
    crypto.forget_leaves()
    c = pe._encrypt(keys.ek.circuit, m, s)
    # one bit flipped in alpha, in beta and in gamma, and a random string
    flips = [data.draw(st.integers(low, high - 1)) for low, high in ((10 * ell, 12 * ell), (ell, 10 * ell), (0, ell))]
    cases = [c, *(c ^ 1 << bit for bit in flips), data.draw(st.integers(0, (1 << 12 * ell) - 1))]
    expected = [pe._python_decrypt(keys.dk, x) for x in cases]
    assert expected[0] == m
    assert DECRYPTS["native"](keys.dk, cases) == expected
    for name, decrypt in DECRYPTS.items():
        for warm in (True, False):  # the memo answers c when warm; the kernel decrypts every case when cold
            if warm:
                crypto._plaintexts[pe._keys(keys.dk), c] = m
            else:
                crypto.forget_leaves()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(pe, "_decrypt_in_use", lambda decrypt=decrypt: decrypt)
                assert pe._decrypt(keys.dk, cases, pe._keys(keys.dk)) == expected, (name, warm)
    crypto.forget_leaves()


class RecordedKernel:
    """A stand-in for a library's C function that records its calls."""

    restype = None

    def __init__(self):
        self.calls = []

    def __call__(self, *args):
        self.calls.append(args)
        return 0


def test_the_decryption_kernel_refuses_wrong_widths_before_any_c_call():
    kernel = RecordedKernel()
    decrypt = native.load_decrypt(types.SimpleNamespace(qwmark_decrypt=kernel))
    ell, seed = 10, b"s" * 16
    affine = bytes((3 * ell + 1) * 12)  # 3 ell + 1 columns of 9 ell = 90 bits, 12 bytes each

    def keys(ell=ell, f_seed=seed, affine=affine, g_seed=seed):
        """A stand-in for a decryption circuit, with keys of any widths."""
        f_key = types.SimpleNamespace(ggm=types.SimpleNamespace(seed=f_seed), _packed_affine=affine)
        return types.SimpleNamespace(ell=ell, f_key=f_key, g_key=types.SimpleNamespace(seed=g_seed))

    bad = [
        (keys(), [0, 1 << 12 * ell]),  # a ciphertext one bit too wide
        (keys(), [-1, 0]),
        (keys(ell=0, affine=b""), [0]),
        (keys(ell=1 << 40), [0]),  # refused before 1 << 12 ell could be formed
        (keys(f_seed=seed[:15]), [0]),
        (keys(g_seed=seed + b"s"), [0]),
        (keys(affine=affine[:-1]), [0]),
        (keys(affine=affine + b"\0"), [0]),
        (keys(ell=ell + 1), [0]),  # an affine map of other widths
    ]
    for args in bad:
        with pytest.raises(ValueError):
            decrypt(*args)
    assert kernel.calls == []
    assert decrypt(keys(), [0, (1 << 12 * ell) - 1]) == [None, None]  # the widest ciphertext reaches it
    assert decrypt(keys(), []) == []
    assert len(kernel.calls) == 2


def test_a_decryption_kernel_that_disagrees_on_a_probe_is_refused(monkeypatch):
    monkeypatch.setattr(native, "_PICKS", dict(native._PICKS))  # the picks below leave the report as it was
    (dk, (c, *_)), *_ = pe._decrypt_probes()
    wrong = [
        # refuses the one valid probe at ell = 10
        lambda dk_, cs: [None if c_ == c else m for c_, m in zip(cs, pe._python_decrypts(dk_, cs))],
        lambda dk_, cs: [m or 0 for m in pe._python_decrypts(dk_, cs)],  # accepts every string
    ]
    for kernel in wrong:
        picker = native.first_use("decrypt", lambda k=kernel: k, pe._python_decrypts, pe._decrypt_probes, "python")
        assert picker() is pe._python_decrypts
        assert native.kernels()["decrypt"] == "python"
    if "native" in DECRYPTS:
        picker = native.first_use("decrypt", lambda: native_decrypt, pe._python_decrypts, pe._decrypt_probes, "python")
        assert picker() is native_decrypt
        assert native.kernels()["decrypt"] == "native"
    crypto.forget_leaves()


def test_a_kernel_that_raises_during_its_pick_is_vetted_again_on_every_probe(monkeypatch):
    # the kernel raises once on the last probe, and is wrong there afterwards: the pick that raised is not kept,
    # and the next one runs every probe again rather than what is left of a half-used generator
    monkeypatch.setattr(native, "_PICKS", dict(native._PICKS))
    *_, (_, last) = pe._decrypt_probes()
    raised = []

    def kernel(dk, cs):
        if cs != last:
            return pe._python_decrypts(dk, cs)
        if not raised:
            raised.append(cs)
            raise MemoryError("the kernel could not allocate its scratch memory")
        return [0] * len(cs)

    picker = native.first_use("decrypt", lambda: kernel, pe._python_decrypts, pe._decrypt_probes, "python")
    with pytest.raises(MemoryError):
        picker()
    assert picker() is pe._python_decrypts and raised
    assert native.kernels()["decrypt"] == "python"
    crypto.forget_leaves()
