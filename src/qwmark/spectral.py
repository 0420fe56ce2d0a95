"""Spectral measurement machinery: projective implementation of mixtures of
binary POVMs and the shift distance between outcome distributions.

A mixture of binary projective measurements {(P_i, I-P_i)} with uniform weight
has accept operator P_D = mean_i P_i.  The mixture holds its members as one
checked (s, d, d) stack, as `qcore.program_projectors` builds it.  Its
*projective implementation* measures the eigenbasis of P_D and reports the
eigenvalue: a projective measurement whose outcome p, followed by a
Bernoulli(p) draw, reproduces the original POVM's statistics exactly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EigensolverError, InvariantError
from .qcore import StateVector

EIGENVALUE_SLACK = 1e-9  # clamp eigenvalues this far outside [0, 1]; error beyond
CLUSTER_TOL = 1e-9  # eigenvalues this close are one eigenvalue of P_D


@dataclass(frozen=True)
class MixedBinaryPOVM:
    """Uniform mixture of binary projective measurements.

    stack[i] is the accept projector of member i; the stack is taken as
    passed by `qcore.check_projectors`.
    """

    stack: np.ndarray  # (s, d, d)

    def __post_init__(self):
        if self.stack.ndim != 3 or self.stack.shape[1] != self.stack.shape[2]:
            raise DimensionError(f"a POVM mixture needs an (s, d, d) stack, got shape {self.stack.shape}")
        if not len(self.stack):
            raise DimensionError("a POVM mixture needs at least one projector")

    @property
    def s(self) -> int:
        return self.stack.shape[0]

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    def average(self) -> np.ndarray:
        """Accept operator P_D = mean of the member projectors.

        The sum over axis 0 of a C-contiguous stack adds the members in
        order, so this is the left-to-right running sum bit for bit.
        """
        return self.stack.sum(0) / self.s


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
        if abs(total - 1.0) > 1e-8:
            raise InvariantError(f"eigenspace probabilities sum to {total!r}, not 1")
        return probs / total


def _cluster(values: np.ndarray, tol: float) -> list[list[int]]:
    """Group sorted indices whose consecutive eigenvalue gaps are <= tol."""
    order = np.argsort(values)
    groups: list[list[int]] = [[order[0]]]
    for idx in order[1:]:
        if values[idx] - values[groups[-1][-1]] <= tol:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return groups


def accept_eigenbasis(accept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Checked, unclustered eigendecomposition of an accept operator.

    Returns the ascending eigenvalues, clipped to [0, 1], and the orthonormal
    eigenvectors as columns.  Eigenvalues further than EIGENVALUE_SLACK
    outside [0, 1] raise InvariantError.
    """
    accept = np.asarray(accept, dtype=complex)
    if np.max(np.abs(accept - accept.conj().T)) > 1e-8:
        raise InvariantError("accept operator is not Hermitian")
    try:
        vals, vecs = np.linalg.eigh(accept)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigendecomposition failed: {exc}") from exc
    if vals.min() < -EIGENVALUE_SLACK or vals.max() > 1.0 + EIGENVALUE_SLACK:
        raise InvariantError(
            f"accept-operator eigenvalues [{vals.min()!r}, {vals.max()!r}] leave [0,1] beyond slack"
        )
    return np.clip(vals, 0.0, 1.0), vecs


def spectral_measurement(accept: np.ndarray) -> SpectralMeasurement:
    vals, vecs = accept_eigenbasis(accept)
    eigenvalues = []
    projectors = []
    for group in _cluster(vals, CLUSTER_TOL):
        cols = vecs[:, group]
        eigenvalues.append(float(np.mean(vals[group])))
        projectors.append(cols @ cols.conj().T)
    return SpectralMeasurement(tuple(eigenvalues), tuple(projectors))


def projimp_cluster(povm: MixedBinaryPOVM, state: StateVector, rng) -> tuple[int, float, StateVector]:
    """Born draw of an eigencluster of P_D: (cluster index, eigenvalue, post state).

    Makes exactly one `rng.choice` draw; the post state is the normalized
    projection onto the drawn cluster.
    """
    if povm.dim != state.dim:
        raise DimensionError(f"POVM dim {povm.dim} vs state dim {state.dim}")
    spec = spectral_measurement(povm.average())
    probs = spec.probabilities(state)
    idx = int(rng.choice(len(probs), p=probs))
    post = StateVector.from_unnormalized(spec.eigenprojectors[idx] @ state.amplitudes)
    return idx, spec.eigenvalues[idx], post


def projimp(povm: MixedBinaryPOVM, state: StateVector, rng) -> tuple[float, StateVector]:
    """Projective implementation: measure the eigenbasis of P_D, report the eigenvalue.

    Returns (eigenvalue, post state).  Repeating on the post state returns the
    same eigenvalue with certainty (projectivity).
    """
    _, value, post = projimp_cluster(povm, state, rng)
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
        if abs(sum(self.masses) - 1.0) > 1e-9:
            raise InvariantError(f"masses sum to {sum(self.masses)!r}, not 1")

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
        return float(sum(self.masses[: bisect_right(self.support, x + 1e-12)]))

    def sf(self, x: float) -> float:
        """Pr[X >= x]."""
        return float(sum(self.masses[bisect_left(self.support, x - 1e-12) :]))


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
