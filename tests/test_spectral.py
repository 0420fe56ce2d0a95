"""Projective implementation of POVM mixtures and the shift distance."""

from __future__ import annotations

import numpy as np
import pytest

from qwmark import spectral
from qwmark.errors import DimensionError, InvariantError
from qwmark.qcore import StateVector, check_projectors

from conftest import (
    FakeDistribution,
    projimp_bernoulli_check,
    random_program,
    random_state,
    random_triples,
    rng_for,
)
from qwmark.api import distribution_povm
from qwmark.pirates import classical_pirate, superposed_pirate


def diag_povm(*diagonals) -> spectral.MixedBinaryPOVM:
    """Mixture of the diagonal projectors with the given 0/1 diagonals."""
    stack = np.array([np.diag(np.array(d, dtype=complex)) for d in diagonals])
    return spectral.MixedBinaryPOVM(check_projectors(stack))


# ---------------------------------------------------------------------------
# mixtures and spectral measurements
# ---------------------------------------------------------------------------


def test_mixture_average():
    povm = diag_povm((1, 0), (1, 1))
    assert np.allclose(povm.average(), np.diag([1.0, 0.5]))
    for bad in (np.zeros((0, 2, 2)), np.eye(2), np.zeros((3, 2, 4))):
        with pytest.raises(DimensionError):
            spectral.MixedBinaryPOVM(bad)


def test_mixture_average_equals_running_sum():
    # the per-member loop that preceded the batched sum, kept as the oracle
    prog = random_program(8, "mix-running-sum")
    povm = distribution_povm(prog, FakeDistribution(random_triples(16, "mix-running-sum")))
    assert povm.stack.shape == (16, 8, 8)
    acc = np.zeros((8, 8), dtype=complex)
    for member in povm.stack:
        acc += member
    assert np.array_equal(povm.average(), acc / 16)


def test_spectral_measurement_clusters_close_eigenvalues():
    spec = spectral.spectral_measurement(np.diag([0.5, 0.5 + 1e-12, 0.9]))
    assert len(spec.eigenvalues) == 2
    assert abs(spec.eigenvalues[0] - 0.5) < 1e-10
    assert spec.eigenprojectors[0].shape == (3, 3)
    assert abs(np.trace(spec.eigenprojectors[0]).real - 2.0) < 1e-10


def test_spectral_measurement_rejects_bad_operators():
    with pytest.raises(InvariantError):
        spectral.spectral_measurement(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InvariantError):
        spectral.spectral_measurement(np.diag([1.5, 0.0]))


def test_probabilities_born_rule():
    spec = spectral.spectral_measurement(np.diag([0.2, 0.7]))
    psi = StateVector(np.array([0.6, 0.8]))
    probs = spec.probabilities(psi)
    assert np.allclose(probs, [0.36, 0.64])


# ---------------------------------------------------------------------------
# projimp
# ---------------------------------------------------------------------------


def test_projimp_on_eigenvector_is_deterministic():
    povm = diag_povm((1, 0), (1, 1))
    val, post = spectral.projimp(povm, StateVector.basis(2, 1), rng_for("proj-eig"))
    assert val == 0.5
    assert abs(abs(post.amplitudes[1]) - 1.0) < 1e-12


def test_projimp_identity_mixture():
    # every member accepts everything: the only eigenvalue is 1
    povm = diag_povm((1, 1, 1, 1))
    val, post = spectral.projimp(povm, random_state(4, rng_for("proj-id")), rng_for("proj-id2"))
    assert val == 1.0


def test_projimp_is_projective():
    local = rng_for("proj-repeat")
    triples = random_triples(6, "proj-repeat-triples")
    prog = random_program(8, "proj-repeat-prog")
    povm = distribution_povm(prog, FakeDistribution(triples))
    val1, post1 = spectral.projimp(povm, prog.state, local)
    val2, post2 = spectral.projimp(povm, post1, local)
    assert abs(val1 - val2) < 1e-9
    assert abs(abs(np.vdot(post1.amplitudes, post2.amplitudes)) - 1.0) < 1e-9


def test_projimp_outcome_statistics_two_point():
    # P_D = diag(0.25, 0.75); |psi> = (|0>+|1>)/sqrt(2) lands on each with 1/2
    povm = diag_povm((0, 1), (0, 1), (1, 1), (0, 0))
    assert np.allclose(povm.average(), np.diag([0.25, 0.75]))
    local = rng_for("proj-stats")
    psi = StateVector(np.full(2, 1 / np.sqrt(2)))
    hits = {0.25: 0, 0.75: 0}
    for _ in range(4000):
        val, _ = spectral.projimp(povm, psi, local)
        hits[round(val, 9)] += 1
    assert abs(hits[0.25] / 4000 - 0.5) < 0.04


def test_projimp_bernoulli_check_matches_quadratic_form():
    triples = random_triples(8, "proj-bern")
    prog = random_program(8, "proj-bern-prog")
    povm = distribution_povm(prog, FakeDistribution(triples))
    value = projimp_bernoulli_check(povm, prog.state)
    direct = float(np.real(np.vdot(prog.state.amplitudes, povm.average() @ prog.state.amplitudes)))
    assert abs(value - direct) < 1e-10


def test_projimp_member_order_irrelevant():
    a, b, c = (1, 0, 0, 1), (0, 1, 0, 1), (1, 1, 0, 0)
    p1 = diag_povm(a, b, c).average()
    p2 = diag_povm(c, a, b).average()
    assert np.allclose(p1, p2)


def test_projimp_superposed_pirate_mixture_weights():
    # branch A always answers 1, branch B always 0: the spectrum is the pair
    # {f1, 1 - f1} (f1 = fraction of triples asking for 1) weighted by the
    # superposition amplitudes cos^2 / sin^2
    theta = np.pi / 3
    always_one = classical_pirate(lambda x, y: True)
    always_zero = classical_pirate(lambda x, y: False)
    prog = superposed_pirate(theta, always_one, always_zero)
    triples = random_triples(4, "proj-sp")
    f1 = sum(g for g, _, _ in triples) / len(triples)
    assert f1 != 0.5  # seed chosen so the branch eigenvalues stay distinct
    povm = distribution_povm(prog, FakeDistribution(triples))
    spec = spectral.spectral_measurement(povm.average())
    probs = spec.probabilities(prog.state)
    weight = {round(val, 9): p for val, p in zip(spec.eigenvalues, probs) if p > 1e-12}
    assert set(weight) == {round(f1, 9), round(1 - f1, 9)}
    assert abs(weight[round(f1, 9)] - np.cos(theta) ** 2) < 1e-10
    assert abs(weight[round(1 - f1, 9)] - np.sin(theta) ** 2) < 1e-10


# ---------------------------------------------------------------------------
# outcome distributions and shift distance
# ---------------------------------------------------------------------------


def test_outcome_distribution_validation():
    with pytest.raises(InvariantError):
        spectral.OutcomeDistribution((0.3, 0.1), (0.5, 0.5))
    with pytest.raises(InvariantError):
        spectral.OutcomeDistribution((0.1, 0.3), (0.4, 0.4))


def test_from_samples_bins():
    d = spectral.OutcomeDistribution.from_samples([0.1001, 0.0999, 0.3], bin_resolution=0.01)
    assert d.support == (0.1, 0.3)
    assert abs(d.masses[0] - 2 / 3) < 1e-12


def test_cdf_sf_grid_slack():
    d = spectral.OutcomeDistribution((0.25, 0.75), (0.5, 0.5))
    assert d.cdf(0.25) == 0.5
    assert d.cdf(0.25 - 1e-13) == 0.5  # slack absorbs float dust
    assert d.cdf(0.2) == 0.0
    assert d.sf(0.75) == 0.5
    assert d.sf(0.76) == 0.0


def test_shift_distance_identical_is_zero():
    d = spectral.OutcomeDistribution((0.2, 0.8), (0.3, 0.7))
    assert spectral.shift_distance(d, d, 0.0) == 0.0


def test_shift_distance_point_masses():
    a = spectral.OutcomeDistribution((0.3,), (1.0,))
    b = spectral.OutcomeDistribution((0.5,), (1.0,))
    # separation 0.2: inside an 0.2 shift the distance vanishes, below it is 1
    assert spectral.shift_distance(a, b, 0.2) == 0.0
    assert spectral.shift_distance(a, b, 0.1999) == 1.0
    assert spectral.shift_distance(a, b, 0.5) == 0.0


def test_shift_distance_symmetric():
    local = rng_for("shift-sym")
    vals_a = np.sort(local.random(4))
    vals_b = np.sort(local.random(3) + 0.2)
    a = spectral.OutcomeDistribution(tuple(vals_a), (0.1, 0.2, 0.3, 0.4))
    b = spectral.OutcomeDistribution(tuple(vals_b), (0.3, 0.3, 0.4))
    assert spectral.shift_distance(a, b, 0.05) == spectral.shift_distance(b, a, 0.05)


def test_shift_distance_monotone_in_eps():
    a = spectral.OutcomeDistribution((0.1, 0.4, 0.9), (0.2, 0.5, 0.3))
    b = spectral.OutcomeDistribution((0.15, 0.55), (0.6, 0.4))
    prev = None
    for eps in (0.0, 0.05, 0.1, 0.2, 0.5):
        cur = spectral.shift_distance(a, b, eps)
        if prev is not None:
            assert cur <= prev + 1e-12
        prev = cur


def test_shift_distance_partial_mass():
    # mass 0.3 escapes any 0.1-window around the other support point
    a = spectral.OutcomeDistribution((0.0, 1.0), (0.7, 0.3))
    b = spectral.OutcomeDistribution((0.0,), (1.0,))
    assert abs(spectral.shift_distance(a, b, 0.1) - 0.3) < 1e-12
