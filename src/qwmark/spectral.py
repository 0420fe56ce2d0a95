"""Spectral measurement machinery: projective implementation of mixtures of
binary POVMs and the shift distance between outcome distributions.

A mixture of binary projective measurements {(P_i, I-P_i)} with uniform weight
has accept operator P_D = mean_i P_i, and that (d, d) array is all a
measurement here takes of the mixture (`api.distribution_povm` builds it).
Its *projective implementation* measures the eigenbasis of P_D and reports the
eigenvalue: a projective measurement whose outcome p, followed by a
Bernoulli(p) draw, reproduces the original POVM's statistics exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import add

import numpy as np

from .errors import DimensionError, EigensolverError, InvariantError
from .qcore import StateVector

EIGENVALUE_SLACK = 1e-9  # clamp eigenvalues this far outside [0, 1]; error beyond
CLUSTER_TOL = 1e-9  # eigenvalues this close are one eigenvalue of P_D
CHOICE_ATOL = math.sqrt(np.finfo(float).eps)  # how far from 1 `rng.choice` lets p sum


@dataclass(frozen=True)
class SpectralMeasurement:
    """Clustered eigendecomposition of an accept operator.

    eigenvalues are ascending and unique after clustering; eigenprojectors[i]
    projects onto the eigenspace of eigenvalues[i].
    """

    eigenvalues: tuple[float, ...]
    eigenprojectors: tuple[np.ndarray, ...]

    def probabilities(self, state: StateVector) -> np.ndarray:
        probs = np.array(
            [float(np.real(np.vdot(state.amplitudes, proj @ state.amplitudes))) for proj in self.eigenprojectors]
        )
        probs = np.clip(probs, 0.0, None)
        total = probs.sum()
        if not (abs(total - 1.0) <= 1e-8):
            raise InvariantError(f"eigenspace probabilities sum to {total!r}, not 1")
        return probs / total


def _runs(ascending: list[float], tol: float) -> list[tuple[int, int]]:
    """Clusters of ascending values as [lo, hi) runs: a gap > tol starts a new run."""
    edges = [0, *(j for j in range(1, len(ascending)) if ascending[j] - ascending[j - 1] > tol), len(ascending)]
    return list(zip(edges, edges[1:]))


def accept_eigenbasis(accept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Checked, unclustered eigendecomposition of an accept operator.

    Returns the ascending eigenvalues, clipped to [0, 1], and the orthonormal
    eigenvectors as columns.  Eigenvalues further than EIGENVALUE_SLACK
    outside [0, 1] raise InvariantError.  `eigh` returns them ascending, so
    the two ends bound them, and the clip runs only when an end leaves [0, 1].
    """
    accept = np.asarray(accept, dtype=complex)
    if not (np.abs(accept - accept.conj().T).max() <= 1e-8):
        raise InvariantError("accept operator is not Hermitian")
    try:
        vals, vecs = np.linalg.eigh(accept)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigendecomposition failed: {exc}") from exc
    low, high = float(vals[0]), float(vals[-1])
    if not (0.0 <= low and high <= 1.0):
        if not (-EIGENVALUE_SLACK <= low and high <= 1.0 + EIGENVALUE_SLACK):
            raise InvariantError(f"accept-operator eigenvalues [{low!r}, {high!r}] leave [0,1] beyond slack")
        vals = np.clip(vals, 0.0, 1.0)
    return vals, vecs


def spectral_measurement(accept: np.ndarray) -> SpectralMeasurement:
    vals, vecs = accept_eigenbasis(accept)
    eigenvalues = []
    projectors = []
    for lo, hi in _runs(vals.tolist(), CLUSTER_TOL):
        cols = vecs[:, lo:hi]
        eigenvalues.append(float(vals[lo:hi].mean()))
        projectors.append(cols @ cols.conj().T)
    return SpectralMeasurement(tuple(eigenvalues), tuple(projectors))


def eigen_coefficients(eigvecs: np.ndarray, state: StateVector) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients <phi_j|psi> of a state in an orthonormal eigenbasis, and
    their Born weights; weights that sum further than 1e-8 from 1 raise
    InvariantError."""
    coef = eigvecs.conj().T @ state.amplitudes
    born = np.abs(coef) ** 2
    total = born.sum()
    if not (abs(total - 1.0) <= 1e-8):
        raise InvariantError(f"Born weights of the state sum to {total!r}, not 1")
    return coef, born


def born_draw(p: list[float], rng) -> int:
    """The index `rng.choice(len(p), p=p)` draws, from the same single
    `rng.random()` uniform: the first index whose running sum of p, divided
    by the last running sum, exceeds the uniform.

    Negative or NaN weights, or a sum further than CHOICE_ATOL from 1,
    raise InvariantError where `choice` raises ValueError.
    """
    if not all(w >= 0.0 for w in p):
        raise InvariantError(f"Born weights {p!r} are not all nonnegative")
    total = math.fsum(p)
    if not (abs(total - 1.0) <= CHOICE_ATOL):
        raise InvariantError(f"Born weights sum to {total!r}, not 1")
    cdf = list(accumulate(p))
    last = cdf[-1]
    return bisect_right([c / last for c in cdf], rng.random())


def projimp_cluster(accept: np.ndarray, state: StateVector, rng) -> tuple[int, float, StateVector]:
    """Born draw of an eigencluster of the accept operator P_D: (cluster
    index, eigenvalue, post state).

    A cluster's weight is the sum of its Born weights |<phi_j|psi>|^2, and
    its post state is sum_j <phi_j|psi> phi_j over the cluster, normalized.
    Draws one `rng.random()` uniform, which gives the index `rng.choice`
    would give (`born_draw`).
    """
    if accept.shape != (state.dim, state.dim):
        raise DimensionError(f"accept operator of shape {accept.shape} vs state dim {state.dim}")
    vals, vecs = accept_eigenbasis(accept)
    coef, born = eigen_coefficients(vecs, state)
    runs = _runs(vals.tolist(), CLUSTER_TOL)  # `eigh` sorts, so each cluster is a run of columns
    probs = np.array([born[lo:hi].sum() for lo, hi in runs])
    idx = born_draw((probs / probs.sum()).tolist(), rng)
    lo, hi = runs[idx]
    cols = np.asfortranarray(vecs[:, lo:hi])  # matmul rounds by layout; pinned post states came from column-major
    post = StateVector.from_unnormalized(cols @ coef[lo:hi])
    return idx, float(vals[lo:hi].sum()) / (hi - lo), post  # np.mean's sum and division


def projimp(accept: np.ndarray, state: StateVector, rng) -> tuple[float, StateVector]:
    """Projective implementation: measure the eigenbasis of the accept
    operator P_D, report the eigenvalue.

    Returns (eigenvalue, post state).  Repeating on the post state returns the
    same eigenvalue with certainty (projectivity).
    """
    _, value, post = projimp_cluster(accept, state, rng)
    return value, post


# ---------------------------------------------------------------------------
# shift distance between finite outcome distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OutcomeDistribution:
    """Finite distribution over real outcomes; support ascending, masses positive."""

    support: tuple[float, ...]
    masses: tuple[float, ...]

    def __post_init__(self):
        if len(self.support) != len(self.masses) or not self.support:
            raise DimensionError("support and masses must be nonempty and equal length")
        if any(b <= a for a, b in zip(self.support, self.support[1:])):
            raise InvariantError("support must be strictly ascending")
        if any(m < 0 for m in self.masses):
            raise InvariantError("masses must be nonnegative")
        total = reduce(add, self.masses, 0.0)  # left to right: the builtin sum compensates from 3.12 on
        if abs(total - 1.0) > 1e-9:
            raise InvariantError(f"masses sum to {total!r}, not 1")

    @classmethod
    def from_samples(cls, values, bin_resolution: float | None = None) -> "OutcomeDistribution":
        """Empirical distribution; optionally snap values to a grid of given pitch."""
        values = np.asarray(values, dtype=float)
        if bin_resolution is not None:
            values = np.round(values / bin_resolution) * bin_resolution
        support, counts = np.unique(values, return_counts=True)
        return cls(tuple(float(s) for s in support), tuple(float(c) / values.size for c in counts))

    def cdf(self, x: float) -> float:
        """Pr[X <= x], with a hair of slack so grid points compare as intended."""
        return float(reduce(add, self.masses[: bisect_right(self.support, x + 1e-12)], 0.0))

    def sf(self, x: float) -> float:
        """Pr[X >= x]."""
        return float(reduce(add, self.masses[bisect_left(self.support, x - 1e-12) :], 0.0))


def shift_distance(d0: OutcomeDistribution, d1: OutcomeDistribution, eps: float) -> float:
    """Smallest delta such that each distribution's CDF/SF is dominated by the
    other's after an eps shift:

        Pr[D0 <= x] <= Pr[D1 <= x + eps] + delta      for all x,
        Pr[D0 >= x] <= Pr[D1 >= x - eps] + delta      for all x,

    and the same two inequalities with D0 and D1 swapped.
    """
    if eps < 0:
        raise InvariantError("shift parameter must be nonnegative")

    def worst(a: OutcomeDistribution, b: OutcomeDistribution) -> float:
        gap = 0.0
        for x in set(a.support) | {s - eps for s in b.support}:
            gap = max(gap, a.cdf(x) - b.cdf(x + eps))
        for x in set(a.support) | {s + eps for s in b.support}:
            gap = max(gap, a.sf(x) - b.sf(x - eps))
        return gap

    return max(0.0, worst(d0, d1), worst(d1, d0))
