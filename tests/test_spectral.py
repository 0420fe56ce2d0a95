"""Projective implementation of POVM mixtures and the shift distance."""

from __future__ import annotations

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qwmark import spectral
from qwmark.errors import DimensionError, InvariantError
from qwmark.qcore import StateVector, check_projectors, program_projectors

from conftest import (
    FakeDistribution,
    haar_unitary,
    projimp_bernoulli_check,
    random_program,
    random_state,
    random_triples,
    rng_for,
)
from spectral_oracles import OutcomeDistribution, SpectralMeasurement, shift_distance, spectral_measurement
from qwmark.api import distribution_povm
from qwmark.pirates import classical_pirate, superposed_pirate


def mixture(stack: np.ndarray) -> np.ndarray:
    """Accept operator of the uniform mixture of a checked projector stack."""
    return check_projectors(stack).sum(0) / len(stack)


def diag_mixture(*diagonals) -> np.ndarray:
    """Accept operator of the mixture of the diagonal projectors with the given 0/1 diagonals."""
    return mixture(np.array([np.diag(np.array(d, dtype=complex)) for d in diagonals]))


# ---------------------------------------------------------------------------
# mixtures and spectral measurements
# ---------------------------------------------------------------------------


def test_mixture_average():
    assert np.allclose(diag_mixture((1, 0), (1, 1)), np.diag([1.0, 0.5]))


def test_mixture_average_equals_running_sum():
    # the per-member loop that preceded the batched sum, kept as the oracle:
    # P_D must equal it bit for bit, or `eigh` and the pinned post states change
    prog = random_program(8, "mix-running-sum")
    triples = random_triples(16, "mix-running-sum")
    accept = distribution_povm(prog, FakeDistribution(triples))
    assert accept.shape == (8, 8)
    acc = np.zeros((8, 8), dtype=complex)
    for member in program_projectors(prog, triples):
        acc += member
    assert accept.tobytes() == (acc / 16).tobytes()


def test_spectral_measurement_clusters_close_eigenvalues():
    spec = spectral_measurement(np.diag([0.5, 0.5 + 1e-12, 0.9]))
    assert len(spec.eigenvalues) == 2
    assert abs(spec.eigenvalues[0] - 0.5) < 1e-10
    assert spec.eigenprojectors[0].shape == (3, 3)
    assert abs(np.trace(spec.eigenprojectors[0]).real - 2.0) < 1e-10


def test_spectral_measurement_rejects_bad_operators():
    with pytest.raises(InvariantError):
        spectral_measurement(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InvariantError):
        spectral_measurement(np.diag([1.5, 0.0]))


def test_probabilities_born_rule():
    spec = spectral_measurement(np.diag([0.2, 0.7]))
    psi = StateVector(np.array([0.6, 0.8]))
    probs = spec.probabilities(psi)
    assert np.allclose(probs, [0.36, 0.64])


def test_probabilities_reject_nan():
    spec = SpectralMeasurement((0.0, 1.0), (np.diag([1.0, 0.0]), np.full((2, 2), np.nan)))
    with pytest.raises(InvariantError, match="sum"):
        spec.probabilities(StateVector(np.array([0.6, 0.8])))


def test_accept_eigenbasis_rejects_nan():
    with pytest.raises(InvariantError, match="Hermitian"):
        spectral.accept_eigenbasis(np.array([[np.nan, 0.0], [0.0, 0.5]]))


def test_accept_eigenbasis_clips_only_beyond_the_unit_interval():
    vals, _ = spectral.accept_eigenbasis(np.diag([-1e-12, 0.5, 1.0 + 1e-12]))
    assert vals.tolist() == [0.0, 0.5, 1.0]
    vals, _ = spectral.accept_eigenbasis(np.diag([0.0, 0.5, 1.0]))
    assert vals.tolist() == [0.0, 0.5, 1.0]
    for bad in (np.diag([-2e-9, 0.5]), np.diag([0.5, 1.0 + 2e-9])):
        with pytest.raises(InvariantError, match="slack"):
            spectral.accept_eigenbasis(bad)


def test_eigen_coefficients_reject_nan():
    with pytest.raises(InvariantError, match="sum"):
        spectral.eigen_coefficients(np.full((2, 2), np.nan), StateVector.basis(2, 0))


# ---------------------------------------------------------------------------
# the Born draw
# ---------------------------------------------------------------------------

SUBNORMAL = st.floats(min_value=0.0, max_value=2.2e-308, exclude_min=True, allow_subnormal=True)
WEIGHTS = st.lists(
    st.one_of(st.just(0.0), st.sampled_from([0.25, 0.5, 1.0]), SUBNORMAL, st.floats(1e-300, 1.0)),
    min_size=1,
    max_size=300,
)


def born_draw(p, rng) -> int:
    """The draw of `projimp_cluster`: one uniform bisected into the checked cdf of p."""
    return bisect_right(spectral._born_cdf(list(p)), rng.random())


@given(WEIGHTS, st.floats(-1.0, 1.0), st.integers(0, 2**32 - 1))
def test_born_draw_is_rng_choice(raw, off, seed):
    # Twin streams: the same index, or the same refusal, and the same next
    # draw.  The sum of p is off from 1 by up to sqrt(eps), within float dust.
    raw = np.array(raw)
    if not raw.sum():
        raw[0] = 1.0
    p = raw / raw.sum() * (1.0 + off * (1.0 - 1e-6) * spectral.CHOICE_ATOL)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        expected = int(theirs.choice(len(p), p=p))
    except ValueError:
        with pytest.raises(InvariantError):
            born_draw(p.tolist(), ours)
    else:
        assert born_draw(p.tolist(), ours) == expected
    assert ours.random() == theirs.random()


class FixedUniforms:
    """A generator whose `random()` returns the given values in turn."""

    def __init__(self, *values):
        self.values = iter(values)

    def random(self):
        return next(self.values)


def test_born_draw_never_lands_on_a_zero_weight():
    # a uniform exactly on a step of the running sum goes past the zero
    # weights there, as `searchsorted(side="right")` in `rng.choice` does
    p = [0.0, 0.5, 0.0, 0.5]
    assert [born_draw(p, FixedUniforms(u)) for u in (0.0, 0.25, 0.5, 0.75)] == [1, 1, 3, 3]


def test_born_draw_scales_the_running_sum_to_one():
    # p sums to 1 - 1e-8: the steps move up by the same factor, and the
    # largest uniform below 1 still lands on the last index
    p = [0.5, 0.5 - 1e-8]
    assert born_draw(p, FixedUniforms(0.5 + 1e-9)) == 0
    assert born_draw(p, FixedUniforms(1.0 - 2.0**-53)) == 1


@pytest.mark.parametrize(
    "p",
    [
        [-0.25, 1.25],
        [-0.0 - 5e-324, 1.0],
        [np.nan, 1.0],
        [0.5, np.nan, 0.5],
        [np.inf, 0.0],
        [0.5, 0.5 + 2 * spectral.CHOICE_ATOL],
        [0.5, 0.5 - 2 * spectral.CHOICE_ATOL],
    ],
)
def test_born_draw_refuses_what_rng_choice_refuses(p):
    ours, theirs = rng_for("born-draw-refusal"), rng_for("born-draw-refusal")
    with pytest.raises(ValueError):
        theirs.choice(len(p), p=p)
    with pytest.raises(InvariantError):
        born_draw(p, ours)
    assert ours.random() == theirs.random()


# ---------------------------------------------------------------------------
# projimp
# ---------------------------------------------------------------------------


def test_projimp_on_eigenvector_is_deterministic():
    accept = diag_mixture((1, 0), (1, 1))
    val, post = spectral.projimp(accept, StateVector.basis(2, 1), rng_for("proj-eig"))
    assert val == 0.5
    assert abs(abs(post.amplitudes[1]) - 1.0) < 1e-12


def test_projimp_identity_mixture():
    # every member accepts everything: the only eigenvalue is 1
    accept = diag_mixture((1, 1, 1, 1))
    val, post = spectral.projimp(accept, random_state(4, rng_for("proj-id")), rng_for("proj-id2"))
    assert val == 1.0


def test_projimp_is_projective():
    local = rng_for("proj-repeat")
    triples = random_triples(6, "proj-repeat-triples")
    prog = random_program(8, "proj-repeat-prog")
    accept = distribution_povm(prog, FakeDistribution(triples))
    val1, post1 = spectral.projimp(accept, prog.state, local)
    val2, post2 = spectral.projimp(accept, post1, local)
    assert abs(val1 - val2) < 1e-9
    assert abs(abs(np.vdot(post1.amplitudes, post2.amplitudes)) - 1.0) < 1e-9


def test_projimp_outcome_statistics_two_point():
    # P_D = diag(0.25, 0.75); |psi> = (|0>+|1>)/sqrt(2) lands on each with 1/2
    accept = diag_mixture((0, 1), (0, 1), (1, 1), (0, 0))
    assert np.allclose(accept, np.diag([0.25, 0.75]))
    local = rng_for("proj-stats")
    psi = StateVector(np.full(2, 1 / np.sqrt(2)))
    hits = {0.25: 0, 0.75: 0}
    for _ in range(4000):
        val, _ = spectral.projimp(accept, psi, local)
        hits[round(val, 9)] += 1
    assert abs(hits[0.25] / 4000 - 0.5) < 0.04


def test_projimp_bernoulli_check_matches_quadratic_form():
    triples = random_triples(8, "proj-bern")
    prog = random_program(8, "proj-bern-prog")
    accept = distribution_povm(prog, FakeDistribution(triples))
    value = projimp_bernoulli_check(accept, prog.state)
    direct = float(np.real(np.vdot(prog.state.amplitudes, accept @ prog.state.amplitudes)))
    assert abs(value - direct) < 1e-10


def test_projimp_member_order_irrelevant():
    a, b, c = (1, 0, 0, 1), (0, 1, 0, 1), (1, 1, 0, 0)
    p1 = diag_mixture(a, b, c)
    p2 = diag_mixture(c, a, b)
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
    accept = distribution_povm(prog, FakeDistribution(triples))
    spec = spectral_measurement(accept)
    probs = spec.probabilities(prog.state)
    weight = {round(val, 9): p for val, p in zip(spec.eigenvalues, probs) if p > 1e-12}
    assert set(weight) == {round(f1, 9), round(1 - f1, 9)}
    assert abs(weight[round(f1, 9)] - np.cos(theta) ** 2) < 1e-10
    assert abs(weight[round(1 - f1, 9)] - np.sin(theta) ** 2) < 1e-10


def projector_cluster(accept: np.ndarray, state: StateVector, rng):
    """`projimp_cluster` through the eigenprojectors of `spectral_measurement`:
    (cluster index, eigenvalue, post amplitudes, cluster probabilities)."""
    spec = spectral_measurement(accept)
    probs = spec.probabilities(state)
    idx = int(rng.choice(len(probs), p=probs))
    post = StateVector.from_unnormalized(spec.eigenprojectors[idx] @ state.amplitudes)
    return idx, spec.eigenvalues[idx], post.amplitudes, probs


def shared_basis_mixture(d: int, s: int, rng) -> np.ndarray:
    """Mixture of s projectors diagonal in one Haar basis, with 0/1 diagonals
    whose first two entries agree: P_D has eigenvalues k/s, at least one repeated, which
    float error spreads by far less than CLUSTER_TOL."""
    basis = haar_unitary(d, rng)
    diagonals = rng.integers(0, 2, size=(s, d))
    diagonals[:, 1] = diagonals[:, 0]
    return mixture(np.array([(basis * row) @ basis.conj().T for row in diagonals]))


def near_pair_mixture(d: int, rng) -> np.ndarray:
    """Mixture of two members, each a sum of one line per 2x2 block of a Haar basis.
    Lines at cosine c give P_D the eigenvalues (1 +- c) / 2; in the first
    block c = 2e-11, so that pair is 2e-11 apart, one cluster whose mean is
    neither of its eigenvalues."""
    first, second = np.zeros((2, d, d))
    for j, c in enumerate(np.append(2e-11, rng.uniform(0.1, 0.9, d // 2 - 1))):
        first[2 * j, 2 * j] = 1.0
        line = np.zeros(d)
        line[2 * j : 2 * j + 2] = c, np.sqrt(1.0 - c * c)
        second += np.outer(line, line)
    basis = haar_unitary(d, rng)
    return mixture(basis @ np.array([first, second]) @ basis.conj().T)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_projimp_cluster_matches_eigenprojector_oracle(d):
    # Twin streams: the same cluster and eigenvalue, probabilities and post
    # amplitudes within 1e-12, and the same next draw.  Two programs in three
    # have a cluster of at least two eigenvalues.
    merged = 0
    for i in range(12):
        label = f"proj-cluster-oracle-{d}-{i}"
        local = rng_for(label)
        if i % 3 == 1:
            accept = shared_basis_mixture(d, 3, local)
        elif i % 3 == 2:
            accept = near_pair_mixture(d, local)
        else:
            prog = random_program(d, label)
            accept = distribution_povm(prog, FakeDistribution(random_triples(3, label)))
        state = random_state(d, local)
        oracle_rng, ours = rng_for(f"{label}-draw"), rng_for(f"{label}-draw")
        idx, value, post_amps, probs = projector_cluster(accept, state, oracle_rng)
        got = spectral.projimp_cluster(accept, state, ours)
        assert got[:2] == (idx, value)
        assert np.max(np.abs(np.diff(spectral.spectrum(accept, state).cdf, prepend=0.0) - probs)) < 1e-12
        assert np.max(np.abs(got[2].amplitudes - post_amps)) < 1e-12
        assert ours.random() == oracle_rng.random()
        merged += len(probs) < d
    assert merged >= 8


@pytest.mark.parametrize("d", [4, 8])
def test_projimp_cluster_post_state_rounds_as_a_fancy_indexed_copy(d):
    # The pinned runs built a cluster's post state from `vecs[:, group]`, a
    # column-major copy; matmul on the row-major slice `vecs[:, lo:hi]` rounds
    # differently, so the post amplitudes must match that copy bit for bit.
    multi = 0
    for i in range(16):
        label = f"proj-cluster-layout-{d}-{i}"
        local = rng_for(label)
        accept = shared_basis_mixture(d, 3, local) if i % 2 else near_pair_mixture(d, local)
        state = random_state(d, local)
        vals, vecs = spectral.accept_eigenbasis(accept)
        coef, _ = spectral.eigen_coefficients(vecs, state)
        idx, _, post = spectral.projimp_cluster(accept, state, rng_for(f"{label}-draw"))
        cuts = [0, *(np.flatnonzero(np.diff(vals) > spectral.CLUSTER_TOL) + 1).tolist(), d]
        group = list(range(cuts[idx], cuts[idx + 1]))
        expected = StateVector.from_unnormalized(vecs[:, group] @ coef[group])
        assert post.amplitudes.tobytes() == expected.amplitudes.tobytes()
        multi += len(group) > 1
    assert multi >= 4


def test_projimp_cluster_refuses_an_operator_of_the_wrong_shape():
    state = random_state(4, rng_for("proj-cluster-shape"))
    for accept in (diag_mixture((1, 0)), diag_mixture((1, 0, 0, 1, 1, 0, 1, 0)), np.ones((4, 2)), np.eye(4)[None]):
        with pytest.raises(DimensionError):
            spectral.projimp_cluster(accept, state, rng_for("proj-cluster-shape-draw"))


# ---------------------------------------------------------------------------
# the spectral memo
# ---------------------------------------------------------------------------


def memo_cases(d: int):
    """(label, accept, state): mixtures of random programs, and mixtures with a
    repeated or a near-repeated eigenvalue."""
    for i in range(6):
        label = f"memo-{d}-{i}"
        local = rng_for(label)
        if i % 3 == 1:
            accept = shared_basis_mixture(d, 3, local)
        elif i % 3 == 2:
            accept = near_pair_mixture(d, local)
        else:
            prog = random_program(d, label)
            accept = distribution_povm(prog, FakeDistribution(random_triples(3, label)))
        yield label, accept, random_state(d, local)


def cluster_draws(accept: np.ndarray, state: StateVector, rng, *, cold: bool):
    """Eight `projimp_cluster` draws from one stream, the memo emptied before
    each when cold: (idx, value, post bytes) per draw, and the stream's next uniform."""
    draws = []
    for _ in range(8):
        if cold:
            spectral._spectrum.cache_clear()
        idx, value, post = spectral.projimp_cluster(accept, state, rng)
        draws.append((idx, value, post.amplitudes.tobytes()))
    return draws, rng.random()


@pytest.mark.parametrize("d", [2, 4, 8])
def test_projimp_cluster_is_the_same_on_a_cold_and_a_warm_memo(d):
    for label, accept, state in memo_cases(d):
        cold = cluster_draws(accept, state, rng_for(f"{label}-draw"), cold=True)
        spectral._spectrum.cache_clear()
        warm = cluster_draws(accept, state, rng_for(f"{label}-draw"), cold=False)
        assert warm == cold
        info = spectral._spectrum.cache_info()
        assert (info.hits, info.misses) == (7, 1)


@pytest.mark.parametrize(
    "accept, match",
    [
        (np.array([[0.0, 1.0], [0.0, 0.0]]), "Hermitian"),
        (np.diag([0.5, 1.0 + 2e-9]), "slack"),
        (np.array([[np.nan, 0.0], [0.0, 0.5]]), "Hermitian"),
    ],
)
def test_spectrum_refuses_a_bad_operator_on_every_call(accept, match):
    for _ in range(2):
        with pytest.raises(InvariantError, match=match):
            spectral.projimp_cluster(accept, StateVector.basis(2, 0), rng_for("memo-bad-draw"))
    info = spectral._spectrum.cache_info()
    assert (info.misses, info.currsize) == (2, 0)


def test_spectral_memo_is_bounded_and_its_arrays_read_only():
    state = StateVector.basis(2, 0)
    operators = [np.diag([i / 1024, 1.0]) for i in range(spectral.SPECTRUM_MEMO + 8)]
    for accept in operators:
        spec = spectral.spectrum(accept, state)
        assert spectral._spectrum.cache_info().currsize <= spectral.SPECTRUM_MEMO
    assert spectral._spectrum.cache_info().currsize == spectral.SPECTRUM_MEMO
    for array in (spec.values, spec.vectors, spec.coef, spec.born, spec.cluster(0)[1].amplitudes):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert spectral.spectrum(operators[-1], state) is spec
    misses = spectral._spectrum.cache_info().misses
    spectral.spectrum(operators[0], state)  # the least recently used, so gone
    assert spectral._spectrum.cache_info().misses == misses + 1


# ---------------------------------------------------------------------------
# outcome distributions and shift distance
# ---------------------------------------------------------------------------


def test_outcome_distribution_validation():
    with pytest.raises(InvariantError):
        OutcomeDistribution((0.3, 0.1), (0.5, 0.5))
    with pytest.raises(InvariantError):
        OutcomeDistribution((0.1, 0.3), (0.4, 0.4))


def test_from_samples_bins():
    d = OutcomeDistribution.from_samples([0.1001, 0.0999, 0.3], bin_resolution=0.01)
    assert d.support == (0.1, 0.3)
    assert abs(d.masses[0] - 2 / 3) < 1e-12


def test_cdf_sf_grid_slack():
    d = OutcomeDistribution((0.25, 0.75), (0.5, 0.5))
    assert d.cdf(0.25) == 0.5
    assert d.cdf(0.25 - 1e-13) == 0.5  # slack absorbs float dust
    assert d.cdf(0.2) == 0.0
    assert d.sf(0.75) == 0.5
    assert d.sf(0.76) == 0.0


def left_to_right(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


@pytest.mark.parametrize("masses", [(0.1,) * 10, (0.7, 0.1, 0.1, 0.1), (1e-17, 0.3, 0.7 - 1e-17)])
def test_cdf_and_sf_sum_left_to_right(masses):
    # the builtin sum compensates from Python 3.12 on; a left fold gives one value on every version
    support = tuple(0.1 * i for i in range(len(masses)))
    d = OutcomeDistribution(support, masses)
    for i, x in enumerate(support):
        assert d.cdf(x) == left_to_right(masses[: i + 1])
        assert d.sf(x) == left_to_right(masses[i:])
    if masses == (0.1,) * 10:
        assert d.cdf(support[-1]) == 0.9999999999999999  # sum() gives 1.0 on 3.12 and later


def test_shift_distance_identical_is_zero():
    d = OutcomeDistribution((0.2, 0.8), (0.3, 0.7))
    assert shift_distance(d, d, 0.0) == 0.0


def test_shift_distance_point_masses():
    a = OutcomeDistribution((0.3,), (1.0,))
    b = OutcomeDistribution((0.5,), (1.0,))
    # separation 0.2: inside an 0.2 shift the distance vanishes, below it is 1
    assert shift_distance(a, b, 0.2) == 0.0
    assert shift_distance(a, b, 0.1999) == 1.0
    assert shift_distance(a, b, 0.5) == 0.0


def test_shift_distance_symmetric():
    local = rng_for("shift-sym")
    vals_a = np.sort(local.random(4))
    vals_b = np.sort(local.random(3) + 0.2)
    a = OutcomeDistribution(tuple(vals_a), (0.1, 0.2, 0.3, 0.4))
    b = OutcomeDistribution(tuple(vals_b), (0.3, 0.3, 0.4))
    assert shift_distance(a, b, 0.05) == shift_distance(b, a, 0.05)


def test_shift_distance_monotone_in_eps():
    a = OutcomeDistribution((0.1, 0.4, 0.9), (0.2, 0.5, 0.3))
    b = OutcomeDistribution((0.15, 0.55), (0.6, 0.4))
    prev = None
    for eps in (0.0, 0.05, 0.1, 0.2, 0.5):
        cur = shift_distance(a, b, eps)
        if prev is not None:
            assert cur <= prev + 1e-12
        prev = cur


def test_shift_distance_partial_mass():
    # mass 0.3 escapes any 0.1-window around the other support point
    a = OutcomeDistribution((0.0, 1.0), (0.7, 0.3))
    b = OutcomeDistribution((0.0,), (1.0,))
    assert abs(shift_distance(a, b, 0.1) - 0.3) < 1e-12
