"""Keyed-function layer: generation, marked evaluation, simulation, and the
coin-indexed query distributions."""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qwmark import elwm
from qwmark.crypto import int_to_bits, keyed_rand, prg
from qwmark.errors import FormatError, IndexRangeError, LengthError
from qwmark.pe import ObfuscatedCircuit

from conftest import rng_for


def small_params():
    return elwm.ElwmParams(4, seed_bits=6, range_bits=12)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def test_param_arithmetic():
    p = small_params()
    assert p.idx_bits == 2
    assert p.pt_bits == 9  # 6 + 2 + 1
    assert p.domain_bits == 108  # 12 * pt_bits
    single = elwm.ElwmParams(1, seed_bits=6, range_bits=12)
    assert single.idx_bits == 1  # one index bit even for msg_bits = 1
    wide = elwm.ElwmParams(9, seed_bits=6, range_bits=12)
    assert wide.idx_bits == 4


def test_param_serialization():
    p = small_params()
    restored, rest = elwm.ElwmParams.read_from(p.to_bytes() + b"tail")
    assert restored == p and rest == b"tail"


def test_param_validation():
    with pytest.raises(LengthError):
        elwm.ElwmParams(0, seed_bits=6, range_bits=12)


# ---------------------------------------------------------------------------
# generation and plain evaluation
# ---------------------------------------------------------------------------


def test_gen_produces_matched_pair():
    prfk, tag = elwm.gen(small_params(), rng_for("elwm-gen"))
    assert prfk.gen_id == tag.gen_id
    assert prfk.params == tag.params
    prfk2, tag2 = elwm.gen(small_params(), rng_for("elwm-gen-2"))
    assert prfk2.gen_id != prfk.gen_id


def test_eval_prf_is_the_main_tree():
    from qwmark.crypto import ggm_eval

    prfk, _ = elwm.gen(small_params(), rng_for("elwm-eval"))
    local = rng_for("elwm-eval-x")
    for _ in range(5):
        x = "".join(str(b) for b in local.integers(0, 2, size=prfk.params.domain_bits))
        assert elwm.eval_prf(prfk, x) == ggm_eval(prfk.f_main, x)
        assert len(elwm.eval_prf(prfk, x)) == prfk.params.range_bits


def test_key_and_tag_serialization():
    prfk, tag = elwm.gen(small_params(), rng_for("elwm-ser"))
    assert elwm.PrfKeyIo.from_bytes(prfk.to_bytes()) == prfk
    assert elwm.TagIo.from_bytes(tag.to_bytes()) == tag
    with pytest.raises(FormatError):
        elwm.PrfKeyIo.from_bytes(b"WRONG" + prfk.to_bytes()[5:])
    with pytest.raises(FormatError):
        elwm.TagIo.from_bytes(prfk.to_bytes())  # key magic is not tag magic


# ---------------------------------------------------------------------------
# marking
# ---------------------------------------------------------------------------


def test_marked_circuit_matches_prf_off_sparse_set():
    prfk, _ = elwm.gen(small_params(), rng_for("elwm-mark"))
    circuit = elwm.mark(prfk, "1010")
    local = rng_for("elwm-mark-x")
    # uniform inputs are valid ciphertexts with probability ~2^-54
    for _ in range(50):
        x = "".join(str(b) for b in local.integers(0, 2, size=prfk.params.domain_bits))
        assert circuit.run(x) == elwm.eval_prf(prfk, x)


def test_marked_circuit_reroutes_disagreeing_positions():
    params = small_params()
    prfk, tag = elwm.gen(params, rng_for("elwm-branch"))
    message = "1010"
    circuit = elwm.mark(prfk, message)
    local = rng_for("elwm-branch-coins")
    for i in range(1, 5):
        for gamma_bit in "01":
            s = "".join(str(b) for b in local.integers(0, 2, size=params.seed_bits))
            enc_seed = "".join(str(b) for b in local.integers(0, 2, size=params.pt_bits))
            plaintext = s + int_to_bits(i - 1, params.idx_bits) + gamma_bit
            x = tag.pe_ek.run(plaintext, enc_seed)
            if message[i - 1] != gamma_bit:
                # planted disagreement: the circuit answers with the PRG value
                assert circuit.run(x) == prg(s, params.range_bits)
            else:
                assert circuit.run(x) == elwm.eval_prf(prfk, x)


def test_marked_circuit_ignores_out_of_range_index():
    # a plaintext indexing past msg_bits falls through to the main PRF
    params = elwm.ElwmParams(3, seed_bits=6, range_bits=12)  # idx_bits=2, indexes 1..4 encodable
    prfk, tag = elwm.gen(params, rng_for("elwm-oor"))
    circuit = elwm.mark(prfk, "000")
    s = "110100"
    plaintext = s + int_to_bits(3, params.idx_bits) + "1"  # index 4 > msg_bits 3
    x = tag.pe_ek.run(plaintext, "0" * params.pt_bits)
    assert circuit.run(x) == elwm.eval_prf(prfk, x)


def test_mark_validates_message_length():
    prfk, _ = elwm.gen(small_params(), rng_for("elwm-msglen"))
    with pytest.raises(LengthError):
        elwm.mark(prfk, "10")


def test_marked_circuit_serialization():
    prfk, _ = elwm.gen(small_params(), rng_for("elwm-circ-ser"))
    circuit = elwm.mark(prfk, "0110")
    blob = elwm.marked_circuit_to_bytes(circuit)
    restored = elwm.marked_circuit_from_bytes(blob)
    assert restored == circuit
    x = "0" * prfk.params.domain_bits
    assert restored.run(x) == circuit.run(x)
    with pytest.raises(FormatError):
        elwm.marked_circuit_from_bytes(b"XXXXX" + blob[5:])


@functools.cache
def _records(k: int = 3):
    prfk, tag = elwm.gen(elwm.ElwmParams(k + 1, seed_bits=6, range_bits=12), rng_for("elwm-records"))
    circuit = elwm.mark(prfk, "0110"[: k + 1])
    return prfk, tag, {
        "prfk": (prfk.to_bytes(), elwm.PrfKeyIo.from_bytes),
        "tag": (tag.to_bytes(), elwm.TagIo.from_bytes),
        "circ": (elwm.marked_circuit_to_bytes(circuit), elwm.marked_circuit_from_bytes),
    }


@pytest.mark.parametrize("name", ["prfk", "tag", "circ"])
def test_truncated_records_raise_format_error(name):
    blob, load = _records()[2][name]
    load(blob)
    for cut in range(len(blob)):
        with pytest.raises(FormatError):
            load(blob[:cut])


@pytest.mark.parametrize("name", ["tag", "circ"])
def test_corrupt_scheme_raises_format_error(name):
    blob, load = _records()[2][name]
    at = blob.index(b"identity")
    with pytest.raises(FormatError):
        load(blob[:at] + b"\xff" + blob[at + 1 :])


@pytest.mark.parametrize("last", [b"\xff", b"2"])
def test_corrupt_message_raises_format_error(last):
    blob, load = _records()[2]["circ"]
    with pytest.raises(FormatError):
        load(blob[:-1] + last)


def _assert_widths_agree(record) -> None:
    """A loaded record's keys have the widths its params declare, and it runs."""
    if isinstance(record, ObfuscatedCircuit):  # a marked circuit file
        params, f_main, pe = record.circuit.params, record.circuit.f_main, record.circuit.pe_dk
        assert len(record.circuit.message) == params.msg_bits
    elif isinstance(record, elwm.TagIo):
        params, f_main, pe = record.params, None, record.pe_ek.circuit
    else:
        params, f_main, pe = record.params, record.f_main, record.pe_dk
    ell = params.pt_bits
    assert pe.ell == ell
    assert (pe.f_key.in_bits, pe.f_key.out_bits, pe.g_key.domain_bits, pe.g_key.out_bits) == (3 * ell, 9 * ell, 9 * ell, ell)
    if f_main is not None:
        assert (f_main.domain_bits, f_main.out_bits) == (params.domain_bits, params.range_bits)
    x = "0" * params.domain_bits
    if isinstance(record, elwm.TagIo):
        assert len(record.pe_ek.run("0" * ell, "1" * ell)) == params.domain_bits
    elif isinstance(record, ObfuscatedCircuit):
        assert len(record.run(x)) == params.range_bits
    else:
        assert len(elwm.eval_prf(record, x)) == params.range_bits


def _load_or_format_error(load, blob: bytes) -> None:
    try:
        record = load(blob)
    except FormatError:
        return
    _assert_widths_agree(record)


@pytest.mark.parametrize("name", ["prfk", "tag", "circ"])
def test_every_single_bit_flip_fails_or_loads_consistent(name):
    blob, load = _records(k=2)[2][name]
    for bit in range(8 * len(blob)):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 0x80 >> (bit % 8)
        _load_or_format_error(load, bytes(flipped))


@pytest.mark.parametrize("name", ["prfk", "tag", "circ"])
@given(st.data())
def test_truncated_and_flipped_records_fail_or_load_consistent(name, data):
    blob, load = _records(k=2)[2][name]
    flips = data.draw(st.lists(st.integers(0, 8 * len(blob) - 1), max_size=4), label="flips")
    cut = data.draw(st.integers(0, len(blob)), label="cut")
    damaged = bytearray(blob)
    for bit in flips:
        damaged[bit // 8] ^= 0x80 >> (bit % 8)
    _load_or_format_error(load, bytes(damaged[:cut]))


def test_records_reject_circuits_of_the_wrong_kind():
    prfk, tag, _ = _records()
    enc = tag.pe_ek.circuit
    with pytest.raises(FormatError):
        elwm.PrfKeyIo.from_bytes(elwm.PrfKeyIo(prfk.params, prfk.f_main, enc, prfk.gen_id).to_bytes())
    with pytest.raises(FormatError):
        elwm.TagIo.from_bytes(elwm.TagIo(prfk.params, ObfuscatedCircuit(prfk.pe_dk), tag.gen_id).to_bytes())
    with pytest.raises(FormatError):
        elwm.marked_circuit_from_bytes(elwm.marked_circuit_to_bytes(ObfuscatedCircuit(prfk.pe_dk)))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def test_sim_triple_structure():
    params = small_params()
    prfk, tag = elwm.gen(params, rng_for("elwm-sim"))
    coins = "1" + "010101" + "110011001"  # gamma, s, enc seed
    gamma, x, y = elwm.sim(params, tag, 2, coins)
    assert gamma == 1
    assert len(x) == params.domain_bits
    assert y == prg("010101", params.range_bits)
    # the challenge point decrypts to s || i-1 || gamma under the secret key
    d = prfk.pe_dk.run(x)
    assert d == "010101" + int_to_bits(1, params.idx_bits) + "1"
    # determinism in the coins
    assert elwm.sim(params, tag, 2, coins) == (gamma, x, y)


def test_sim_index_range():
    params = small_params()
    _, tag = elwm.gen(params, rng_for("elwm-sim-idx"))
    coins = "0" * elwm.sim_coin_bits(params)
    with pytest.raises(IndexRangeError):
        elwm.sim(params, tag, 0, coins)
    with pytest.raises(IndexRangeError):
        elwm.sim(params, tag, 5, coins)


def test_sim_marked_circuit_answers_complement_on_disagreement():
    # on a simulated triple for position i: if the planted gamma disagrees
    # with m[i] the marked circuit returns exactly y; otherwise it returns
    # the PRF value, which differs from y except with tiny probability
    params = small_params()
    prfk, tag = elwm.gen(params, rng_for("elwm-sim-mdd"))
    message = "1001"
    circuit = elwm.mark(prfk, message)
    local = rng_for("elwm-sim-mdd-coins")
    for i in range(1, 5):
        for _ in range(8):
            coins = "".join(str(b) for b in local.integers(0, 2, size=elwm.sim_coin_bits(params)))
            gamma, x, y = elwm.sim(params, tag, i, coins)
            if str(gamma) != message[i - 1]:
                assert circuit.run(x) == y
            else:
                assert circuit.run(x) != y


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------


def test_kind_labels_parse():
    assert elwm.sim_tau(3) == "SimTau(3)"
    assert elwm.real_at(2) == "DRealAt(2)"
    with pytest.raises(FormatError):
        elwm.build_distribution(
            "Nonsense", params=small_params(), s=2, master_seed=b"m" * 16, coin_key=b"k" * 16
        )


@pytest.mark.parametrize(
    "kind", ["SimTau(x)", "SimTau()", "SimTau(-1)", "SimTau( 1)", "DRealAt(1_0)", "DRealAt(+1)", "DRealAt(\u0661)"]
)
def test_kind_labels_with_non_digit_indices_are_rejected(kind):
    with pytest.raises(FormatError):
        elwm.build_distribution(kind, params=small_params(), s=2, master_seed=b"m" * 16, coin_key=b"k" * 16)


def stack():
    params = small_params()
    gen_rng = rng_for("elwm-dist-stack")
    prfk, tag = elwm.gen(params, gen_rng)
    coin_key = elwm.new_coin_key(gen_rng)
    master_seed = elwm.derive_master_seed(gen_rng)
    return params, prfk, tag, coin_key, master_seed


def test_real_distribution_structure():
    params, prfk, tag, coin_key, master_seed = stack()
    d = elwm.build_distribution(
        elwm.REAL, params=params, s=8, master_seed=master_seed, coin_key=coin_key, prfk=prfk
    )
    assert d.kind == elwm.REAL and d.s == 8 and len(d.triples) == 8
    for b, x, y in d.triples:
        assert b in (0, 1)
        if b == 1:
            assert y == elwm.eval_prf(prfk, x)
        else:
            assert y != elwm.eval_prf(prfk, x)  # fresh coins at range_bits=12
    # deterministic reconstruction
    d2 = elwm.build_distribution(
        elwm.REAL, params=params, s=8, master_seed=master_seed, coin_key=coin_key, prfk=prfk
    )
    assert d2.triples == d.triples


def test_real_rev_flips_only_the_bit():
    params, prfk, tag, coin_key, master_seed = stack()
    d = elwm.build_distribution(
        elwm.REAL, params=params, s=8, master_seed=master_seed, coin_key=coin_key, prfk=prfk
    )
    rev = elwm.build_distribution(
        elwm.REAL_REV, params=params, s=8, master_seed=master_seed, coin_key=coin_key, prfk=prfk
    )
    for (b, x, y), (rb, rx, ry) in zip(d.triples, rev.triples):
        assert rb == 1 - b and rx == x and ry == y


def test_sim_tau_distribution_reproducible_and_indexed():
    params, prfk, tag, coin_key, master_seed = stack()
    d1 = elwm.build_distribution(
        elwm.sim_tau(1), params=params, s=6, master_seed=master_seed, coin_key=coin_key, tag=tag
    )
    d1_again = elwm.build_distribution(
        elwm.sim_tau(1), params=params, s=6, master_seed=master_seed, coin_key=coin_key, tag=tag
    )
    d2 = elwm.build_distribution(
        elwm.sim_tau(2), params=params, s=6, master_seed=master_seed, coin_key=coin_key, tag=tag
    )
    assert d1.triples == d1_again.triples
    assert d1.triples != d2.triples
    # every triple decrypts to the right index
    for gamma, x, y in d2.triples:
        d = prfk.pe_dk.run(x)
        assert d is not None
        idx = int(d[params.seed_bits : params.seed_bits + params.idx_bits], 2) + 1
        assert idx == 2


def test_real_at_matches_real_when_bit_is_zero():
    # coin layouts coincide, so at m[i] = "0" the triples are byte-identical
    params, prfk, tag, coin_key, master_seed = stack()
    message = "0110"
    real = elwm.build_distribution(
        elwm.REAL, params=params, s=10, master_seed=master_seed, coin_key=coin_key, prfk=prfk
    )
    at1 = elwm.build_distribution(
        elwm.real_at(1),
        params=params,
        s=10,
        master_seed=master_seed,
        coin_key=coin_key,
        prfk=prfk,
        message=message,
    )
    assert at1.triples == real.triples  # m[1] = "0"
    at2 = elwm.build_distribution(
        elwm.real_at(2),
        params=params,
        s=10,
        master_seed=master_seed,
        coin_key=coin_key,
        prfk=prfk,
        message=message,
    )
    # m[2] = "1": positions with g = 1 get fresh y instead of Eval, so the
    # marked/real split flips exactly on those coins
    assert at2.triples != real.triples
    for (g, x, y), (b, _, _) in zip(at2.triples, real.triples):
        assert g == b  # the first component is the same coin either way
        if str(g) == "1":
            assert y != elwm.eval_prf(prfk, x)
        else:
            assert y == elwm.eval_prf(prfk, x)


def test_distribution_missing_inputs():
    params, prfk, tag, coin_key, master_seed = stack()
    with pytest.raises(LengthError):
        elwm.build_distribution(
            elwm.REAL, params=params, s=4, master_seed=master_seed, coin_key=coin_key
        )
    with pytest.raises(LengthError):
        elwm.build_distribution(
            elwm.sim_tau(1), params=params, s=4, master_seed=master_seed, coin_key=coin_key
        )
    with pytest.raises(IndexRangeError):
        elwm.build_distribution(
            elwm.real_at(9),
            params=params,
            s=4,
            master_seed=master_seed,
            coin_key=coin_key,
            prfk=prfk,
            message="0110",
        )
