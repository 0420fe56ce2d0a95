"""Keyed-function layer: generation, marked evaluation, simulation, and the
coin-indexed query distributions."""

from __future__ import annotations

import functools
from dataclasses import astuple

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qwmark import crypto, elwm, native, pe
from qwmark.crypto import int_to_bits, read_record, read_whole_record, write_record
from qwmark.errors import FormatError, IndexRangeError, LengthError
from qwmark.pe import ObfuscatedCircuit

from conftest import malformed_bits, prg_bits, rng_for, sim


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
    fields, blobs, rest = read_record(write_record(astuple(p), ()) + b"tail", 3, 0, "params")
    assert elwm.ElwmParams(*fields) == p and blobs == [] and rest == b"tail"


def test_param_validation():
    with pytest.raises(LengthError):
        elwm.ElwmParams(0, seed_bits=6, range_bits=12)


def test_params_reject_widths_beyond_their_u16_fields():
    # msg_bits = 4 has idx_bits = 2, so seed_bits = MAX_PT_BITS - 3 gives the
    # widest plaintext the width budget accepts; one bit more is refused, and so
    # is a message or range wider than its u16 field
    budget = elwm.ElwmParams.MAX_PT_BITS
    widest = elwm.ElwmParams(4, seed_bits=budget - 3, range_bits=0xFFFF)
    assert widest.pt_bits == budget and widest.domain_bits == 12 * budget
    assert elwm.ElwmParams(*read_whole_record(write_record(astuple(widest), ()), 3, 0, "params")[0]) == widest
    bad = ((0x10000, 6, 12), (4, budget - 2, 12), (4, 5459, 12), (4, 6, 0x10000), (70001, 6, 12))
    for msg_bits, seed_bits, range_bits in bad:
        with pytest.raises(LengthError):
            elwm.ElwmParams(msg_bits, seed_bits=seed_bits, range_bits=range_bits)


def test_records_beyond_the_width_budget_are_refused_before_any_affine_map_is_derived(monkeypatch):
    # a record's params are read first and checked against the budget; a record
    # whose params fit but whose PE circuit is wider is refused for the
    # mismatch, and the injective PPRF derives its affine map on first use only
    prfk, tag = elwm.gen(small_params(), rng_for("elwm-width-budget"))
    derived = []
    monkeypatch.setattr(crypto, "_derive_affine", lambda *args: derived.append(args))
    ell = 2000  # a 6 000 -> 18 000-bit affine map: 108 M bits
    f_key = crypto.InjectivePprfKey(crypto.GgmKey(b"w" * 16, 3 * ell, 9 * ell), b"m" * 16)
    g_key = crypto.GgmKey(b"g" * 16, 9 * ell, ell)
    wide_dk, wide_ek = pe.DecryptionCircuit(f_key, g_key, ell), pe.EncryptionCircuit(f_key, g_key, ell)
    over = (4, 5000, 12)

    def prfk_record(fields, dk):
        return elwm.PRFK_MAGIC + write_record(fields, (prfk.f_main.to_bytes(), pe.circuit_to_bytes(dk), prfk.gen_id))

    def tag_record(fields, ek):
        return elwm.TAG_MAGIC + write_record(fields, (ObfuscatedCircuit(ek).to_bytes(), tag.gen_id))

    def circuit_record(fields, dk):
        payload = write_record(fields, (prfk.f_main.to_bytes(), pe.circuit_to_bytes(dk), b"0110"))
        marked = bytes([elwm.MarkedEvalCircuit.KIND_TAG]) + payload
        return elwm.CIRCUIT_MAGIC + write_record((), (ObfuscatedCircuit.scheme.encode(),)) + marked

    fits = astuple(prfk.params)
    loads = [
        (elwm.PrfKeyIo.from_bytes, prfk_record, prfk.pe_dk, wide_dk),
        (elwm.TagIo.from_bytes, tag_record, tag.pe_ek.circuit, wide_ek),
        (elwm.marked_circuit_from_bytes, circuit_record, prfk.pe_dk, wide_dk),
    ]
    for load, record, narrow, wide in loads:
        load(record(fits, narrow))  # the record as written loads
        for blob in (record(over, narrow), record(fits, wide)):
            with pytest.raises(FormatError):
                load(blob)
    assert derived == []


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
                assert circuit.run(x) == prg_bits(s, params.range_bits)
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


def test_marked_circuit_refuses_malformed_inputs():
    prfk, _ = elwm.gen(small_params(), rng_for("elwm-malformed"))
    circuit = elwm.mark(prfk, "0110")
    n = prfk.params.domain_bits
    for x in (*malformed_bits(n), "0" * (n - 1), b"0" * n, 0):
        with pytest.raises(LengthError, match="PRF input"):
            circuit.run(x)
    assert circuit.run("0" * n) == elwm.eval_prf(prfk, "0" * n)


def test_mark_validates_message_length():
    prfk, _ = elwm.gen(small_params(), rng_for("elwm-msglen"))
    with pytest.raises(LengthError):
        elwm.mark(prfk, "10")


def test_records_check_key_widths_when_built():
    prfk, tag = elwm.gen(small_params(), rng_for("elwm-widths"))
    wide = elwm.ElwmParams(4, seed_bits=7, range_bits=12)
    other, other_tag = elwm.gen(wide, rng_for("elwm-widths-wide"))
    # the PRF key, the PE decryption circuit or the params of another width
    mismatched = (
        (prfk.params, other.f_main, prfk.pe_dk),
        (prfk.params, prfk.f_main, other.pe_dk),
        (wide, prfk.f_main, prfk.pe_dk),
    )
    for params, f_main, pe_dk in mismatched:
        with pytest.raises(LengthError):
            elwm.MarkedEvalCircuit(params, f_main, pe_dk, "0110")
        with pytest.raises(LengthError):
            elwm.PrfKeyIo(params, f_main, pe_dk, prfk.gen_id)
    with pytest.raises(LengthError):
        elwm.TagIo(prfk.params, other_tag.pe_ek, tag.gen_id)
    for message in ("011", "01100", "01a0"):
        with pytest.raises(LengthError):
            elwm.MarkedEvalCircuit(prfk.params, prfk.f_main, prfk.pe_dk, message)


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
    # an undecodable byte, and a well-formed name of a scheme that does not exist
    for first in (b"\xff", b"x"):
        with pytest.raises(FormatError):
            load(blob[:at] + first + blob[at + 1 :])


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
    gamma, x, y = sim(params, tag, 2, coins)
    assert gamma == 1
    assert len(x) == params.domain_bits
    assert y == prg_bits("010101", params.range_bits)
    # the challenge point decrypts to s || i-1 || gamma under the secret key
    d = prfk.pe_dk.run(x)
    assert d == "010101" + int_to_bits(1, params.idx_bits) + "1"
    # determinism in the coins
    assert sim(params, tag, 2, coins) == (gamma, x, y)


def test_sim_index_range():
    params = small_params()
    _, tag = elwm.gen(params, rng_for("elwm-sim-idx"))
    coins = "0" * elwm.sim_coin_bits(params)
    with pytest.raises(IndexRangeError):
        sim(params, tag, 0, coins)
    with pytest.raises(IndexRangeError):
        sim(params, tag, 5, coins)


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
            gamma, x, y = sim(params, tag, i, coins)
            if str(gamma) != message[i - 1]:
                assert circuit.run(x) == y
            else:
                assert circuit.run(x) != y


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------


def stack():
    params = small_params()
    gen_rng = rng_for("elwm-dist-stack")
    prfk, tag = elwm.gen(params, gen_rng)
    coin_key = elwm.new_coin_key(gen_rng)
    master_seed = gen_rng.bytes(16)
    return params, prfk, tag, coin_key, master_seed


def test_real_distribution_structure():
    params, prfk, tag, coin_key, master_seed = stack()
    d = elwm.build_distribution(
        None, params=params, s=8, master_seed=master_seed, coin_key=coin_key, prfk=prfk
    )
    assert len(d) == 8
    for b, x, y in d:
        assert b in (0, 1)
        if b == 1:
            assert y == elwm.eval_prf(prfk, x)
        else:
            assert y != elwm.eval_prf(prfk, x)  # fresh coins at range_bits=12
    # deterministic reconstruction
    d2 = elwm.build_distribution(
        None, params=params, s=8, master_seed=master_seed, coin_key=coin_key, prfk=prfk
    )
    assert d2 == d


def test_sim_tau_distribution_reproducible_and_indexed():
    params, prfk, tag, coin_key, master_seed = stack()
    d1 = elwm.build_distribution(
        1, params=params, s=6, master_seed=master_seed, coin_key=coin_key, tag=tag
    )
    d1_again = elwm.build_distribution(
        1, params=params, s=6, master_seed=master_seed, coin_key=coin_key, tag=tag
    )
    d2 = elwm.build_distribution(
        2, params=params, s=6, master_seed=master_seed, coin_key=coin_key, tag=tag
    )
    assert d1 == d1_again
    assert d1 != d2
    # every triple decrypts to the right index
    for gamma, x, y in d2:
        d = prfk.pe_dk.run(x)
        assert d is not None
        idx = int(d[params.seed_bits : params.seed_bits + params.idx_bits], 2) + 1
        assert idx == 2


def test_distribution_missing_inputs():
    params, prfk, tag, coin_key, master_seed = stack()
    with pytest.raises(LengthError):
        elwm.build_distribution(
            None, params=params, s=4, master_seed=master_seed, coin_key=coin_key
        )
    with pytest.raises(LengthError):
        elwm.build_distribution(
            1, params=params, s=4, master_seed=master_seed, coin_key=coin_key
        )
    for index in (-1, 0, 9):
        with pytest.raises(IndexRangeError):
            elwm.build_distribution(
                index, params=params, s=4, master_seed=master_seed, coin_key=coin_key, tag=tag
            )
    for s in (0, elwm.MAX_TRIPLES + 1):  # the budget is checked before any triple is built
        with pytest.raises(LengthError):
            elwm.build_distribution(1, params=params, s=s, master_seed=master_seed, coin_key=coin_key, tag=tag)


# ---------------------------------------------------------------------------
# the Sim builders and the plaintext memo
# ---------------------------------------------------------------------------

# The Sim builders this host runs: the Python loop always, and the native
# kernel where it builds, taken as built rather than after elwm's probe has vetted it.
SIMS = {"python": elwm._python_sim}
if (sim_kernel := native.load_sim()) is not None:
    SIMS["native"] = elwm._native_sim(sim_kernel)


def test_the_native_sim_runs_wherever_it_builds():
    assert native.kernels()["sim_kernel"] == ("native" if "native" in SIMS else "python")


@pytest.mark.skipif("native" not in SIMS, reason="the native Sim kernel does not build on this host")
@given(
    msg_bits=st.integers(1, 40) | st.integers(1, 0xFFFF),
    seed_bits=st.integers(1, 140),
    range_bits=st.integers(1, 600),
    s=st.integers(1, 9),  # up to 8 records walk in pairs: odd and even counts end differently
    data=st.data(),
)
@example(msg_bits=5, seed_bits=6, range_bits=12, s=3, data=None)  # the widths of a game
@example(msg_bits=5, seed_bits=6, range_bits=12, s=64, data=None)  # and its s in superposed_s64
@example(msg_bits=3, seed_bits=26, range_bits=300, s=3, data=None)  # F's output and y wider than one block
@example(msg_bits=2, seed_bits=130, range_bits=257, s=3, data=None)  # coins of 263 bits: 9 ell = 1188
@example(msg_bits=1, seed_bits=1, range_bits=1, s=3, data=None)  # the narrowest
@example(msg_bits=40, seed_bits=1, range_bits=256, s=3, data=None)  # six index bits, y of exactly one block
@example(msg_bits=300, seed_bits=5, range_bits=9, s=3, data=None)  # an index of two bytes
@example(msg_bits=0xFFFF, seed_bits=2, range_bits=40, s=3, data=None)  # the widest index, 16 bits
def test_native_and_python_sim_build_the_same_triples(msg_bits, seed_bits, range_bits, s, data):
    params = elwm.ElwmParams(msg_bits, seed_bits, range_bits)
    _, tag = elwm.gen(params, rng_for(f"sim-twin-{msg_bits}-{seed_bits}-{range_bits}"))
    index = data.draw(st.integers(1, msg_bits)) if data is not None else msg_bits
    args = (params, tag.pe_ek.circuit, index, s, b"twin-master-seed", b"twin-coin-key-16")
    triples = SIMS["python"](*args)
    assert SIMS["native"](*args) == triples
    assert triples == elwm.build_distribution(
        index, params=params, s=s, master_seed=args[4], coin_key=args[5], tag=tag
    )


# The RealD builders this host runs, as SIMS above.
REALDS = {"python": elwm._python_reald}
if (reald_kernel := native.load_reald()) is not None:
    REALDS["native"] = elwm._native_reald(reald_kernel)


def test_the_native_reald_runs_wherever_it_builds():
    assert native.kernels()["reald_kernel"] == ("native" if "native" in REALDS else "python")


def test_the_probes_reach_every_walk():
    # first_use runs the probes on both builders, so each must hold a group of 16 walks and some left over
    for _, _, _, s, _, _ in elwm._SIM_PROBES:
        assert s > 16 and s % 2
    for key, s, master_seed, coin_key in elwm._REALD_PROBES:
        b_ones = sum(b for b, _, _ in elwm._python_reald(key, s, master_seed, coin_key))
        assert b_ones > 16 and b_ones % 2


@pytest.mark.skipif(
    "native" not in SIMS or "native" not in REALDS, reason="the native Sim and RealD kernels do not build on this host"
)
@given(s=st.integers(1, 40), wide=st.booleans(), data=st.data())
@example(s=64, wide=False, data=None)  # four full groups
@example(s=17, wide=True, data=None)
def test_native_and_python_builders_agree_on_groups_of_every_size(s, wide, data):
    # groups of more than 8 records walk in 16 lanes where the CPU has AVX-512, smaller ones in pairs; RealD
    # groups the records whose b is 1
    params = elwm._PROBE_PARAMS[wide]
    prfk, tag = elwm.gen(params, rng_for(f"group-twin-{wide}"))
    index = data.draw(st.integers(1, params.msg_bits)) if data is not None else params.msg_bits
    args = (params, tag.pe_ek.circuit, index, s, b"group-twin-mstr!", b"group-twin-coin!")
    assert SIMS["native"](*args) == SIMS["python"](*args)
    args = (prfk.f_main, s, b"group-twin-mstr!", b"group-twin-coin!")
    expected = REALDS["python"](*args)
    crypto.forget_leaves()  # the Python builder reads F(x) from the leaf memo, where the kernel puts it
    assert REALDS["native"](*args) == expected
    crypto.forget_leaves()


@pytest.mark.parametrize("name", sorted(REALDS))
def test_a_reald_build_leaves_its_prf_values_for_the_marked_circuit(name, monkeypatch):
    params = small_params()
    prfk, _ = elwm.gen(params, rng_for("reald-leaves"))
    circuit = elwm.mark(prfk, "0110")
    native.kernels()  # pick the kernels first: their probes walk leaves of their own keys
    crypto.forget_leaves()
    triples = REALDS[name](prfk.f_main, 64, b"reald-leaf-mstr!", b"reald-leaf-coin!")
    real = [(x, y) for b, x, y in triples if b]
    n, m = params.domain_bits, params.range_bits
    assert len(real) > 16
    assert crypto._leaves == {(prfk.f_main.seed, int(x, 2), n, m): int(y, 2) for x, y in real}
    walked, leaf = [], crypto._leaf_in_use()
    monkeypatch.setattr(crypto, "_leaf_in_use", lambda: lambda *args: walked.append(args) or leaf(*args))
    assert [circuit.run(x) for x, _ in real] == [y for _, y in real]
    assert [args for args in walked if args[0] == prfk.f_main.seed] == []
    crypto.forget_leaves()


def sim_stack():
    params = small_params()
    prfk, tag = elwm.gen(params, rng_for("elwm-sim-memo"))
    return params, prfk, tag, b"memo-coin-key-16", b"memo-master-seed"


@pytest.mark.parametrize("name", sorted(SIMS))
def test_sim_ciphertexts_decrypt_alike_with_the_memo_emptied(name):
    params, prfk, tag, coin_key, master_seed = sim_stack()
    crypto.forget_leaves()
    triples = SIMS[name](params, tag.pe_ek.circuit, 3, 16, master_seed, coin_key)
    keys = pe._keys(prfk.pe_dk)
    memoized = [crypto._plaintexts[keys, int(x, 2)] for _, x, _ in triples]  # every ciphertext is in the memo
    crypto.forget_leaves()
    assert not crypto._plaintexts
    walked = [pe._decrypt(prfk.pe_dk, int(x, 2), keys) for _, x, _ in triples]
    assert walked == memoized
    for (gamma, _, _), m in zip(triples, walked):
        assert m & 1 == gamma and (m >> 1) & ((1 << params.idx_bits) - 1) == 2


@pytest.mark.parametrize("name", sorted(SIMS))
def test_the_plaintext_memo_never_outgrows_its_bound(name):
    params, _, tag, coin_key, master_seed = sim_stack()
    crypto.forget_leaves()
    assert crypto._PLAINTEXT_MEMO_SIZE == elwm.MAX_TRIPLES  # one whole distribution fits
    for index in (1, 2):  # two full distributions do not
        triples = SIMS[name](params, tag.pe_ek.circuit, index, elwm.MAX_TRIPLES, master_seed, coin_key)
        assert 0 < len(crypto._plaintexts) <= crypto._PLAINTEXT_MEMO_SIZE
    # it was emptied during or before the second one, whose ciphertexts it still holds
    assert {c for _, c in crypto._plaintexts} <= {int(x, 2) for _, x, _ in triples}
    assert {keys for keys, _ in crypto._plaintexts} == {pe._keys(tag.pe_ek.circuit)}
    crypto.forget_leaves()
