"""Measurement oracles of the tests: the projective implementation through
explicit eigenprojectors, and the shift distance between finite outcome
distributions.

The game never runs these.  The release gate (a01, a04, a05) and the unit
tests compare `spectral.projimp_cluster`, the two API engines and their
estimate laws against them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from qwmark.errors import DimensionError, InvariantError
from qwmark.qcore import StateVector
from qwmark.spectral import CLUSTER_TOL, _runs, accept_eigenbasis


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


def spectral_measurement(accept: np.ndarray) -> SpectralMeasurement:
    vals, vecs = accept_eigenbasis(accept)
    eigenvalues = []
    projectors = []
    for lo, hi in _runs(vals.tolist(), CLUSTER_TOL):
        cols = vecs[:, lo:hi]
        eigenvalues.append(float(vals[lo:hi].mean()))
        projectors.append(cols @ cols.conj().T)
    return SpectralMeasurement(tuple(eigenvalues), tuple(projectors))


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
