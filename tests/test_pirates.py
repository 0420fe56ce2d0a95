"""Pirate decoder zoo: classical deciders, the coin flipper, keyed noise, and
coherent branch superpositions."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwmark import pirates
from qwmark.api import distribution_povm
from qwmark.crypto import _keyed_coins, bits_to_bytes
from qwmark.errors import DimensionError, FormatError, InvariantError
from qwmark.qcore import QuantumProgram, StateVector, UnitaryOracle, program_projectors
from qwmark.spectral import projimp

from conftest import FakeDistribution, accept_probability, oracle_matrices, per_pair, rng_for
from spectral_oracles import spectral_measurement


class ToyCircuit:
    """Tiny deterministic stand-in for a marked circuit: y = parity-ish map."""

    def run(self, x: str) -> str:
        ones = x.count("1")
        return format(ones % 16, "04b")


def toy_triples(s: int, seed: str, honest_fraction_target=None):
    """Triples whose y is the toy circuit's answer or a corruption of it."""
    local = rng_for(f"toy-{seed}")
    circ = ToyCircuit()
    triples = []
    for r in range(s):
        x = "".join(str(b) for b in local.integers(0, 2, size=6))
        y = circ.run(x)
        gamma = 1
        triples.append((gamma, x, y))
    return tuple(triples)


# ---------------------------------------------------------------------------
# classical pirates
# ---------------------------------------------------------------------------


def test_classical_pirate_state_is_exact_eigenvector():
    prog = pirates.classical_pirate(lambda x, y: x == y)
    for x, y, expected in (("1", "1", 1.0), ("1", "0", 0.0)):
        assert abs(accept_probability(prog, 1, x, y) - expected) < 1e-12


def test_honest_pirate_accepts_exactly_correct_pairs():
    circ = ToyCircuit()
    prog = pirates.honest_pirate(circ)
    x = "110100"
    good = circ.run(x)
    bad = "1111" if good != "1111" else "0000"
    assert accept_probability(prog, 1, x, good) == 1.0
    assert accept_probability(prog, 1, x, bad) == 0.0


def test_anti_pirate_is_the_complement():
    circ = ToyCircuit()
    honest = pirates.honest_pirate(circ)
    anti = pirates.anti_pirate(circ)
    x = "101010"
    y = circ.run(x)
    p_h = accept_probability(honest, 1, x, y)
    p_a = accept_probability(anti, 1, x, y)
    assert (p_h, p_a) == (1.0, 0.0)


def test_honest_pirate_projimp_gives_eigenvalue_one():
    triples = toy_triples(6, "honest")
    prog = pirates.honest_pirate(ToyCircuit())
    accept = distribution_povm(prog, FakeDistribution(triples))
    val, post = projimp(accept, prog.state, rng_for("honest-run"))
    assert val == 1.0


def test_classical_measurement_does_not_disturb():
    # classical pirates commute with every projector: post state = pre state
    triples = toy_triples(5, "commute")
    prog = pirates.honest_pirate(ToyCircuit())
    accept = distribution_povm(prog, FakeDistribution(triples))
    _, post = projimp(accept, prog.state, rng_for("commute-run"))
    assert abs(abs(np.vdot(post.amplitudes, prog.state.amplitudes)) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# noisy pirates
# ---------------------------------------------------------------------------


def test_noisy_pirate_extremes():
    circ = ToyCircuit()
    triples = toy_triples(8, "noise-ext")
    dist = FakeDistribution(triples)
    quiet = pirates.noisy_pirate(circ, 0.0)
    loud = pirates.noisy_pirate(circ, 1.0)
    val_q, _ = projimp(distribution_povm(quiet, dist), quiet.state, rng_for("noise-q"))
    val_l, _ = projimp(distribution_povm(loud, dist), loud.state, rng_for("noise-l"))
    assert val_q == 1.0
    assert val_l == 0.0


def test_noisy_pirate_eigenvalue_counts_flips():
    circ = ToyCircuit()
    eta = 0.4
    prog = pirates.noisy_pirate(circ, eta)
    triples = toy_triples(10, "noise-mid")
    # count which (x, y) pairs the keyed hash flips, then compare exactly
    flipped = 0
    for gamma, x, y in triples:
        honest = circ.run(x) == y
        answered_one = accept_probability(prog, 1, x, y)
        agrees = answered_one == 1.0
        if agrees != honest:
            flipped += 1
    accept = distribution_povm(prog, FakeDistribution(triples))
    val, _ = projimp(accept, prog.state, rng_for("noise-mid-run"))
    assert abs(val - (1.0 - flipped / 10)) < 1e-12
    assert 0 < flipped < 10  # the seed gives a genuinely partial corruption


def test_noisy_pirate_validates_rate():
    with pytest.raises(FormatError):
        pirates.noisy_pirate(ToyCircuit(), 1.5)


# ---------------------------------------------------------------------------
# coin pirate
# ---------------------------------------------------------------------------


def test_coin_pirate_answers_half_everywhere():
    prog = pirates.coin_pirate()
    for x, y in (("0", "0"), ("101", "11"), ("1", "0")):
        assert abs(accept_probability(prog, 1, x, y) - 0.5) < 1e-12


def test_coin_pirate_eigenvalues_reflect_gamma_balance():
    # the accept operator is diagonal: eigenvalue = fraction of triples whose
    # gamma matches each basis answer, each seen with probability 1/2
    triples = (
        (1, "000", "0"),
        (1, "001", "0"),
        (1, "010", "0"),
        (0, "011", "0"),
        (0, "100", "0"),
        (1, "101", "0"),
        (1, "110", "0"),
        (1, "111", "0"),
    )
    prog = pirates.coin_pirate()
    accept = distribution_povm(prog, FakeDistribution(triples))
    spec = spectral_measurement(accept)
    assert sorted(round(v, 9) for v in spec.eigenvalues) == [0.25, 0.75]
    probs = spec.probabilities(prog.state)
    assert np.allclose(probs, [0.5, 0.5])


# ---------------------------------------------------------------------------
# superposed pirates
# ---------------------------------------------------------------------------


def test_superposed_pirate_limits():
    circ = ToyCircuit()
    triples = toy_triples(6, "sp-limit")
    dist = FakeDistribution(triples)
    honest = pirates.honest_pirate(circ)
    coin = pirates.coin_pirate()
    at_zero = pirates.superposed_pirate(0.0, honest, coin)
    val, _ = projimp(distribution_povm(at_zero, dist), at_zero.state, rng_for("sp-0"))
    assert val == 1.0
    at_right_angle = pirates.superposed_pirate(np.pi / 2, honest, coin)
    spec = spectral_measurement(distribution_povm(at_right_angle, dist))
    probs = spec.probabilities(at_right_angle.state)
    # pure coin branch: all weight on its diagonal eigenvalues
    mass = {round(v, 9): p for v, p in zip(spec.eigenvalues, probs) if p > 1e-12}
    assert all(abs(w - 0.5) < 1e-10 for w in mass.values())


def test_superposed_pirate_spectrum_is_branch_mixture():
    theta = np.pi / 3
    circ = ToyCircuit()
    triples = toy_triples(6, "sp-mix")
    dist = FakeDistribution(triples)
    prog = pirates.superposed_pirate(theta, pirates.honest_pirate(circ), pirates.anti_pirate(circ))
    spec = spectral_measurement(distribution_povm(prog, dist))
    probs = spec.probabilities(prog.state)
    mass = {round(v, 9): p for v, p in zip(spec.eigenvalues, probs) if p > 1e-12}
    assert abs(mass[1.0] - np.cos(theta) ** 2) < 1e-10
    assert abs(mass[0.0] - np.sin(theta) ** 2) < 1e-10


def test_superposed_pirate_output_register_stays_first_qubit():
    # measuring the composite must agree with the cos^2-weighted branch
    # acceptance on every single query
    circ = ToyCircuit()
    theta = 0.7
    honest = pirates.honest_pirate(circ)
    coin = pirates.coin_pirate()
    prog = pirates.superposed_pirate(theta, honest, coin)
    x = "011011"
    y = circ.run(x)
    expect = np.cos(theta) ** 2 * 1.0 + np.sin(theta) ** 2 * 0.5
    got = accept_probability(prog, 1, x, y)
    assert abs(got - expect) < 1e-12


def test_superposed_pirate_rejects_non_unitary_branch():
    circ = ToyCircuit()
    leaky = QuantumProgram(StateVector.basis(2, 0), UnitaryOracle(2, per_pair(lambda x, y: np.diag([1.0, 0.5]))))
    for branches in ((pirates.honest_pirate(circ), leaky), (leaky, pirates.coin_pirate())):
        prog = pirates.superposed_pirate(0.4, *branches)
        with pytest.raises(InvariantError):
            program_projectors(prog, [(1, "011011", circ.run("011011"))])


def test_superposed_pirate_rejects_dim_mismatch():
    circ = ToyCircuit()
    small = pirates.honest_pirate(circ)
    big = pirates.superposed_pirate(0.3, small, pirates.coin_pirate())
    with pytest.raises(DimensionError):
        pirates.superposed_pirate(0.5, small, big)


# ---------------------------------------------------------------------------
# batched stacks against a per-pair reference
# ---------------------------------------------------------------------------

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_I = np.eye(2, dtype=complex)


def reference_matrix(kind: str, circ, eta: float, x: str, y: str) -> np.ndarray:
    """U_{x,y} of a pirate kind, built for one pair by the rule of its docstring."""
    if kind.startswith("superposed"):
        _, a, b = kind.split(":")
        u = np.zeros((4, 4), dtype=complex)
        u[0::2, 0::2] = reference_matrix(a, circ, eta, x, y)
        u[1::2, 1::2] = reference_matrix(b, circ, eta, x, y)
        return u
    if kind == "coin":
        return _I
    honest = circ.run(x) == y
    if kind == "noisy":
        label = bits_to_bytes(x) + b"/" + bits_to_bytes(y)
        return _X if honest != (_keyed_coins(b"noisy-pirate", label, 53) / (1 << 53) < eta) else _I
    return _X if honest == (kind == "honest") else _I


def build_kind(kind: str, circ, eta: float) -> QuantumProgram:
    simple = {
        "honest": lambda: pirates.honest_pirate(circ),
        "anti": lambda: pirates.anti_pirate(circ),
        "coin": pirates.coin_pirate,
        "noisy": lambda: pirates.noisy_pirate(circ, eta),
    }
    if kind.startswith("superposed"):
        _, a, b = kind.split(":")
        return pirates.superposed_pirate(0.6, simple[a](), simple[b]())
    return simple[kind]()


KINDS = ["honest", "anti", "noisy", "coin"] + [
    f"superposed:{a}:{b}" for a in pirates.SIMPLE_KINDS for b in pirates.SIMPLE_KINDS
]
# a query pair: a 6-bit x, and either the toy circuit's answer to it or a 4-bit y
QUERIES = st.tuples(st.text("01", min_size=6, max_size=6), st.none() | st.text("01", min_size=4, max_size=4))


class CountingCircuit(ToyCircuit):
    """The toy circuit, recording every query it is asked."""

    def __init__(self):
        self.asked = []

    def run(self, x: str) -> str:
        self.asked.append(x)
        return super().run(x)


@settings(max_examples=60)
@given(kind=st.sampled_from(KINDS), queries=st.lists(QUERIES, min_size=1, max_size=12), eta=st.floats(0.0, 1.0))
def test_batched_stack_matches_the_per_pair_reference(kind, queries, eta):
    circ = ToyCircuit()
    pairs = [(x, circ.run(x) if y is None else y) for x, y in queries]
    expected = np.stack([reference_matrix(kind, circ, eta, x, y) for x, y in pairs])
    counting = CountingCircuit()
    prog = build_kind(kind, counting, eta)
    assert np.array_equal(prog.unitaries.stack(pairs), expected)
    # one run per query of each branch that reads the circuit, branch by branch, in batch order
    readers = [part for part in kind.split(":") if part in ("honest", "anti", "noisy")]
    assert counting.asked == [x for _ in readers for x, _ in pairs]
    assert np.array_equal(oracle_matrices(prog.unitaries, pairs), expected)


@settings(max_examples=30)
@given(queries=st.lists(QUERIES, min_size=1, max_size=12), data=st.data())
def test_the_first_non_unitary_member_of_a_stack_is_named(queries, data):
    circ = ToyCircuit()
    pairs = [(x, circ.run(x) if y is None else y) for x, y in queries]
    bad = pairs[data.draw(st.integers(0, len(pairs) - 1))]
    leaky = QuantumProgram(
        StateVector.basis(2, 0),
        UnitaryOracle(2, per_pair(lambda x, y: np.diag([1.0, 0.5]) if (x, y) == bad else np.eye(2))),
    )
    for branches in ((pirates.honest_pirate(circ), leaky), (leaky, pirates.coin_pirate())):
        with pytest.raises(InvariantError, match=re.escape(f"({bad[0]!r}, {bad[1]!r})")):
            oracle_matrices(pirates.superposed_pirate(0.4, *branches).unitaries, pairs)


# ---------------------------------------------------------------------------
# declarative specs
# ---------------------------------------------------------------------------


def test_pirate_spec_round_trip():
    spec = pirates.PirateSpec.from_dict({"kind": "noisy", "eta": 0.25})
    assert spec.kind == "noisy" and spec.eta == 0.25
    with pytest.raises(FormatError):
        pirates.PirateSpec.from_dict({"kind": "noisy", "volume": 11})


@pytest.mark.parametrize("kind", ["noisy", "superposed"])
@pytest.mark.parametrize("field", ["eta", "theta"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_pirate_spec_rejects_non_finite_parameters(kind, field, value):
    with pytest.raises(FormatError, match="finite"):
        pirates.PirateSpec(kind=kind, **{field: value})


@pytest.mark.parametrize(
    "raw",
    [
        {"kind": "honest"},
        {"kind": "anti"},
        {"kind": "coin"},
        {"kind": "noisy", "eta": 0.3},
        {"kind": "superposed", "theta": 0.5, "branch_a": "honest", "branch_b": "coin"},
    ],
)
def test_build_pirate_all_kinds(raw):
    spec = pirates.PirateSpec.from_dict(raw)
    prog = pirates.build_pirate(spec, ToyCircuit())
    assert prog.dim in (2, 4)


def test_build_pirate_rejects_unknown():
    with pytest.raises(FormatError):
        pirates.build_pirate(pirates.PirateSpec(kind="plunder"), ToyCircuit())
    with pytest.raises(FormatError):
        pirates.build_pirate(
            pirates.PirateSpec(kind="superposed", branch_a="noisy"), ToyCircuit()
        )
