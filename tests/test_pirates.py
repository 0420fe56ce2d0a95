"""Pirate decoder zoo: classical deciders, the coin flipper, keyed noise, and
coherent branch superpositions."""

from __future__ import annotations

import numpy as np
import pytest

from qwmark import pirates
from qwmark.api import distribution_povm
from qwmark.errors import DimensionError, FormatError, InvariantError
from qwmark.qcore import QuantumProgram, StateVector, UnitaryOracle, program_projector
from qwmark.spectral import projimp, spectral_measurement

from conftest import FakeDistribution, random_triples, rng_for


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
        proj = program_projector(prog, 1, x, y)
        assert abs(proj.expectation(prog.state) - expected) < 1e-12


def test_honest_pirate_accepts_exactly_correct_pairs():
    circ = ToyCircuit()
    prog = pirates.honest_pirate(circ)
    x = "110100"
    good = circ.run(x)
    bad = "1111" if good != "1111" else "0000"
    assert program_projector(prog, 1, x, good).expectation(prog.state) == 1.0
    assert program_projector(prog, 1, x, bad).expectation(prog.state) == 0.0


def test_anti_pirate_is_the_complement():
    circ = ToyCircuit()
    honest = pirates.honest_pirate(circ)
    anti = pirates.anti_pirate(circ)
    x = "101010"
    y = circ.run(x)
    p_h = program_projector(honest, 1, x, y).expectation(honest.state)
    p_a = program_projector(anti, 1, x, y).expectation(anti.state)
    assert (p_h, p_a) == (1.0, 0.0)


def test_honest_pirate_projimp_gives_eigenvalue_one():
    triples = toy_triples(6, "honest")
    prog = pirates.honest_pirate(ToyCircuit())
    povm = distribution_povm(prog, FakeDistribution(triples))
    val, post = projimp(povm, prog.state, rng_for("honest-run"))
    assert val == 1.0


def test_classical_measurement_does_not_disturb():
    # classical pirates commute with every projector: post state = pre state
    triples = toy_triples(5, "commute")
    prog = pirates.honest_pirate(ToyCircuit())
    povm = distribution_povm(prog, FakeDistribution(triples))
    _, post = projimp(povm, prog.state, rng_for("commute-run"))
    assert abs(abs(post.inner(prog.state)) - 1.0) < 1e-12


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
        answered_one = program_projector(prog, 1, x, y).expectation(prog.state)
        agrees = answered_one == 1.0
        if agrees != honest:
            flipped += 1
    povm = distribution_povm(prog, FakeDistribution(triples))
    val, _ = projimp(povm, prog.state, rng_for("noise-mid-run"))
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
        assert abs(program_projector(prog, 1, x, y).expectation(prog.state) - 0.5) < 1e-12


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
    povm = distribution_povm(prog, FakeDistribution(triples))
    spec = spectral_measurement(povm.average())
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
    spec = spectral_measurement(distribution_povm(at_right_angle, dist).average())
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
    spec = spectral_measurement(distribution_povm(prog, dist).average())
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
    got = program_projector(prog, 1, x, y).expectation(prog.state)
    assert abs(got - expect) < 1e-12


def test_superposed_pirate_rejects_non_unitary_branch():
    circ = ToyCircuit()
    leaky = QuantumProgram(StateVector.basis(2, 0), UnitaryOracle(2, lambda x, y: np.diag([1.0, 0.5])))
    for branches in ((pirates.honest_pirate(circ), leaky), (leaky, pirates.coin_pirate())):
        prog = pirates.superposed_pirate(0.4, *branches)
        with pytest.raises(InvariantError):
            program_projector(prog, 1, "011011", circ.run("011011"))


def test_superposed_pirate_rejects_dim_mismatch():
    circ = ToyCircuit()
    small = pirates.honest_pirate(circ)
    big = pirates.superposed_pirate(0.3, small, pirates.coin_pirate())
    with pytest.raises(DimensionError):
        pirates.superposed_pirate(0.5, small, big)


# ---------------------------------------------------------------------------
# declarative specs
# ---------------------------------------------------------------------------


def test_pirate_spec_round_trip():
    spec = pirates.PirateSpec.from_dict({"kind": "noisy", "eta": 0.25})
    assert spec.kind == "noisy" and spec.eta == 0.25
    with pytest.raises(FormatError):
        pirates.PirateSpec.from_dict({"kind": "noisy", "volume": 11})


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
