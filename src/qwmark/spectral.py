"""Spectral measurement machinery: projective implementation of mixtures of
binary POVMs.

A mixture of binary projective measurements {(P_i, I-P_i)} with uniform weight
has accept operator P_D = mean_i P_i, and that (d, d) array is all a
measurement here takes of the mixture (`api.distribution_povm` builds it).
Its *projective implementation* measures the eigenbasis of P_D and reports the
eigenvalue: a projective measurement whose outcome p, followed by a
Bernoulli(p) draw, reproduces the original POVM's statistics exactly.

Every measurement takes its eigen data from `spectrum(accept, state)`, a memo
keyed by the bytes of the complex P_D and of the state's amplitudes and
bounded to SPECTRUM_MEMO entries of dimension at most MEMO_DIM, least recently
used first out; a larger pair is decomposed on every call.  A classical
or perfect pirate's P_D takes few values and its state is a basis vector up to
phase, so a game diagonalizes the same pair again and again.  A miss runs every
check (Hermiticity, eigenvalue slack, Born sum) on its input; a hit has
byte-identical input, so it returns the same read-only arrays and the same
verdict.  A raised check is never stored.  The draws are not memoized: each
measurement makes its own draw on the spectrum's checked cdf, so the rng stream
is the same with a cold memo or a warm one.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import DimensionError, EigensolverError, InvariantError
from .qcore import MEMO_DIM, StateVector

EIGENVALUE_SLACK = 1e-9  # clamp eigenvalues this far outside [0, 1]; error beyond
CLUSTER_TOL = 1e-9  # eigenvalues this close are one eigenvalue of P_D
CHOICE_ATOL = math.sqrt(np.finfo(float).eps)  # how far from 1 `rng.choice` lets p sum
SPECTRUM_MEMO = 256  # (P_D, state) pairs whose spectra are kept


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


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Checked eigen data of a state under an accept operator; arrays read-only.

    values ascend and vectors holds their eigenvectors as columns; coef are
    the state's coefficients <phi_j|psi> and born their Born weights.  Each
    cluster of eigenvalues within CLUSTER_TOL is a [lo, hi) run of columns,
    and cdf holds the running sums of the clusters' Born weights (`_born_cdf`).
    """

    values: np.ndarray
    vectors: np.ndarray
    coef: np.ndarray
    born: np.ndarray
    runs: tuple[tuple[int, int], ...]
    cdf: tuple[float, ...]
    _clusters: dict[int, tuple[float, StateVector]] = field(default_factory=dict, repr=False)

    def cluster(self, idx: int) -> tuple[float, StateVector]:
        """(eigenvalue, post state) of cluster idx: the mean of its eigenvalues,
        and sum_j <phi_j|psi> phi_j over it, normalized; computed on first use."""
        found = self._clusters.get(idx)
        if found is None:
            lo, hi = self.runs[idx]
            # matmul rounds by layout; the pinned post states came from a column-major copy
            post = StateVector.from_unnormalized(np.asfortranarray(self.vectors[:, lo:hi]) @ self.coef[lo:hi])
            value = float(self.values[lo:hi].sum()) / (hi - lo)  # np.mean's sum and division
            found = self._clusters[idx] = (value, post)
        return found


@lru_cache(maxsize=SPECTRUM_MEMO)
def _spectrum(accept: bytes, amplitudes: bytes) -> Spectrum:
    """The spectrum of a state under an accept operator, both given as the bytes of their complex arrays."""
    state = StateVector(np.frombuffer(amplitudes, dtype=complex))  # the same amplitudes, checked again
    vals, vecs = accept_eigenbasis(np.frombuffer(accept, dtype=complex).reshape(state.dim, state.dim))
    coef, born = eigen_coefficients(vecs, state)
    runs = tuple(_runs(vals.tolist(), CLUSTER_TOL))  # `eigh` sorts, so each cluster is a run of columns
    probs = np.array([born[lo:hi].sum() for lo, hi in runs])
    for array in (vals, vecs, coef, born):
        array.flags.writeable = False
    return Spectrum(vals, vecs, coef, born, runs, _born_cdf((probs / probs.sum()).tolist()))


def spectrum(accept: np.ndarray, state: StateVector) -> Spectrum:
    """Eigen data of `state` under the accept operator P_D, from the memo when
    the same bytes were seen before."""
    accept = np.asarray(accept, dtype=complex)
    if accept.shape != (state.dim, state.dim):
        raise DimensionError(f"accept operator of shape {accept.shape} vs state dim {state.dim}")
    memo = _spectrum if state.dim <= MEMO_DIM else _spectrum.__wrapped__
    return memo(accept.tobytes(), state.amplitudes.tobytes())


def _born_cdf(p: list[float]) -> tuple[float, ...]:
    """The running sums of the Born weights p, each divided by the last: `bisect_right` of one uniform into
    them is the index `rng.choice(len(p), p=p)` draws from it.  Negative or NaN weights, or a sum further
    than CHOICE_ATOL from 1, raise InvariantError where `choice` raises ValueError."""
    if not all(w >= 0.0 for w in p):
        raise InvariantError(f"Born weights {p!r} are not all nonnegative")
    total = math.fsum(p)
    if not (abs(total - 1.0) <= CHOICE_ATOL):
        raise InvariantError(f"Born weights sum to {total!r}, not 1")
    cdf = list(accumulate(p))
    last = cdf[-1]
    return tuple(c / last for c in cdf)


def projimp_cluster(accept: np.ndarray, state: StateVector, rng) -> tuple[int, float, StateVector]:
    """Born draw of an eigencluster of the accept operator P_D: (cluster
    index, eigenvalue, post state).

    A cluster's weight is the sum of its Born weights |<phi_j|psi>|^2, and
    its post state is sum_j <phi_j|psi> phi_j over the cluster, normalized.
    Draws one `rng.random()` uniform, which gives the index `rng.choice`
    would give (`_born_cdf`).
    """
    spec = spectrum(accept, state)
    idx = bisect_right(spec.cdf, rng.random())
    return (idx, *spec.cluster(idx))


def projimp(accept: np.ndarray, state: StateVector, rng) -> tuple[float, StateVector]:
    """Projective implementation: measure the eigenbasis of the accept
    operator P_D, report the eigenvalue.

    Returns (eigenvalue, post state).  Repeating on the post state returns the
    same eigenvalue with certainty (projectivity).
    """
    _, value, post = projimp_cluster(accept, state, rng)
    return value, post
