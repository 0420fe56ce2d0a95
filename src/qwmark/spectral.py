"""Spectral measurement machinery: projective implementation of mixtures of
binary POVMs, two-projector (Jordan) decompositions, and the shift distance
between outcome distributions.

A mixture of binary projective measurements {(P_i, I-P_i)} with uniform weight
has accept operator P_D = mean_i P_i.  The mixture holds its members as one
checked (s, d, d) stack, as `qcore.program_projectors` builds it.  Its
*projective implementation* measures the eigenbasis of P_D and reports the
eigenvalue: a projective measurement whose outcome p, followed by a
Bernoulli(p) draw, reproduces the original POVM's statistics exactly.

The Jordan decomposition splits a Hilbert space into one- and two-dimensional
subspaces invariant under a pair of projectors (Pi_v, Pi_w); on each
two-dimensional piece the pair acts like two lines at angle theta with
p = cos^2(theta) = |<v_j|w_j>|^2.  Phases are fixed so <v_j|w_j> = sqrt(p_j)
is real and nonnegative.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, EigensolverError, InvariantError
from .qcore import BinaryProjector, StateVector

EIGENVALUE_SLACK = 1e-9  # clamp eigenvalues this far outside [0, 1]; error beyond
DEFAULT_CLUSTER_TOL = 1e-9
RANK_TOL = 1e-7


@dataclass(frozen=True)
class MixedBinaryPOVM:
    """Uniform mixture of binary projective measurements.

    stack[i] is the accept projector of member i; the stack is taken as
    checked, so build it with `qcore.program_projectors` or `of`.
    """

    stack: np.ndarray  # (s, d, d)

    def __post_init__(self):
        if self.stack.ndim != 3 or self.stack.shape[1] != self.stack.shape[2]:
            raise DimensionError(f"a POVM mixture needs an (s, d, d) stack, got shape {self.stack.shape}")
        if not len(self.stack):
            raise DimensionError("a POVM mixture needs at least one projector")

    @classmethod
    def of(cls, projectors: Sequence[BinaryProjector]) -> "MixedBinaryPOVM":
        """Mixture of checked projectors of one dimension."""
        if not projectors:
            raise DimensionError("a POVM mixture needs at least one projector")
        dims = {p.dim for p in projectors}
        if len(dims) != 1:
            raise DimensionError(f"mixed projector dimensions: {sorted(dims)}")
        return cls(np.stack([p.matrix for p in projectors]))

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


def spectral_measurement(accept: np.ndarray, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> SpectralMeasurement:
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
    vals = np.clip(vals, 0.0, 1.0)
    eigenvalues = []
    projectors = []
    for group in _cluster(vals, cluster_tol):
        cols = vecs[:, group]
        eigenvalues.append(float(np.mean(vals[group])))
        projectors.append(cols @ cols.conj().T)
    return SpectralMeasurement(tuple(eigenvalues), tuple(projectors))


def projimp_cluster(
    povm: MixedBinaryPOVM,
    state: StateVector,
    rng,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> tuple[int, float, StateVector]:
    """Born draw of an eigencluster of P_D: (cluster index, eigenvalue, post state).

    Makes exactly one `rng.choice` draw; the post state is the normalized
    projection onto the drawn cluster.
    """
    if povm.dim != state.dim:
        raise DimensionError(f"POVM dim {povm.dim} vs state dim {state.dim}")
    spec = spectral_measurement(povm.average(), cluster_tol)
    probs = spec.probabilities(state)
    idx = int(rng.choice(len(probs), p=probs))
    post = StateVector.from_unnormalized(spec.eigenprojectors[idx] @ state.amplitudes)
    return idx, spec.eigenvalues[idx], post


def projimp(
    povm: MixedBinaryPOVM,
    state: StateVector,
    rng,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> tuple[float, StateVector]:
    """Projective implementation: measure the eigenbasis of P_D, report the eigenvalue.

    Returns (eigenvalue, post state).  Repeating on the post state returns the
    same eigenvalue with certainty (projectivity).
    """
    _, value, post = projimp_cluster(povm, state, rng, cluster_tol)
    return value, post


def projimp_bernoulli_check(povm: MixedBinaryPOVM, state: StateVector) -> float:
    """Acceptance probability of projimp-then-Bernoulli(p); must equal <psi|P_D|psi>.

    Raises InvariantError if the spectral average and the quadratic form
    disagree beyond 1e-8; returns the common value.
    """
    spec = spectral_measurement(povm.average())
    probs = spec.probabilities(state)
    via_spectrum = float(np.dot(probs, spec.eigenvalues))
    direct = float(np.real(np.vdot(state.amplitudes, povm.average() @ state.amplitudes)))
    if abs(via_spectrum - direct) > 1e-8:
        raise InvariantError(
            f"Bernoulli-equivalence probe failed: spectrum gives {via_spectrum!r}, "
            f"quadratic form gives {direct!r}"
        )
    return direct


# ---------------------------------------------------------------------------
# Jordan decomposition of a projector pair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JordanSubspace:
    """One invariant subspace of a projector pair.

    Two-dimensional pieces carry the full frame (v, w, v_perp, w_perp) with
      w = sqrt(p) v + sqrt(1-p) v_perp,   w_perp = sqrt(1-p) v - sqrt(p) v_perp.
    One-dimensional pieces carry whichever of v (in range Pi_v) / w (in range
    Pi_w) exists; a vector outside both ranges has only `other`.
    """

    p: float
    v: np.ndarray | None = None
    w: np.ndarray | None = None
    v_perp: np.ndarray | None = None
    w_perp: np.ndarray | None = None
    other: np.ndarray | None = None

    @property
    def two_dimensional(self) -> bool:
        return self.v_perp is not None


@dataclass(frozen=True)
class JordanDecomposition:
    subspaces: tuple[JordanSubspace, ...]
    dim: int

    def reconstruction(self) -> np.ndarray:
        """Sum of rank-1 projectors over all stored basis vectors; must be I."""
        acc = np.zeros((self.dim, self.dim), dtype=complex)
        for sub in self.subspaces:
            for vec in (sub.v, sub.v_perp, sub.other):
                if vec is not None:
                    acc += np.outer(vec, vec.conj())
            if sub.v is None and sub.w is not None:
                acc += np.outer(sub.w, sub.w.conj())
        return acc


def jordan(
    pi_v: BinaryProjector,
    pi_w: BinaryProjector,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> JordanDecomposition:
    """Decompose the space into subspaces invariant under both projectors.

    Eigenvalues p_j of Pi_v Pi_w Pi_v restricted to range(Pi_v) give the
    squared cosines; eigenvalues within cluster_tol are treated as one angle
    but kept as separate (orthogonal) subspace records.
    """
    if pi_v.dim != pi_w.dim:
        raise DimensionError(f"projector dims {pi_v.dim} vs {pi_w.dim}")
    dim = pi_v.dim
    vals_v, vecs_v = np.linalg.eigh(pi_v.matrix)
    basis_v = vecs_v[:, vals_v > 0.5]  # orthonormal basis of range(Pi_v)
    subspaces: list[JordanSubspace] = []
    claimed: list[np.ndarray] = []
    if basis_v.shape[1] > 0:
        compressed = basis_v.conj().T @ pi_w.matrix @ basis_v
        try:
            p_vals, p_vecs = np.linalg.eigh(compressed)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"Jordan compression failed: {exc}") from exc
        p_vals = np.clip(p_vals, 0.0, 1.0)
        snap = max(cluster_tol, RANK_TOL)
        # snap near-0/near-1 angles to exact; each eigenvector gets its own record
        for p_raw, col in zip(p_vals, p_vecs.T):
            v = basis_v @ col
            p = float(p_raw)
            if p >= 1.0 - snap:
                w = pi_w.matrix @ v
                w = w / np.linalg.norm(w)
                subspaces.append(JordanSubspace(p=1.0, v=v, w=w))
                claimed.append(v)
            elif p <= snap:
                subspaces.append(JordanSubspace(p=0.0, v=v))
                claimed.append(v)
            else:
                w = pi_w.matrix @ v / np.sqrt(p)  # <v|w> = sqrt(p) >= 0 by construction
                v_perp = (w - np.sqrt(p) * v) / np.sqrt(1.0 - p)
                w_perp = np.sqrt(1.0 - p) * v - np.sqrt(p) * v_perp
                subspaces.append(JordanSubspace(p=p, v=v, w=w, v_perp=v_perp, w_perp=w_perp))
                claimed.append(v)
                claimed.append(v_perp)
    # residual: the part of the space orthogonal to every claimed vector
    residual = np.eye(dim, dtype=complex)
    for vec in claimed:
        residual -= np.outer(vec, vec.conj())
    r_vals, r_vecs = np.linalg.eigh(residual)
    r_basis = r_vecs[:, r_vals > 0.5]
    if r_basis.shape[1] > 0:
        inner = r_basis.conj().T @ pi_w.matrix @ r_basis
        w_vals, w_vecs = np.linalg.eigh(inner)
        for val, col in zip(w_vals, w_vecs.T):
            vec = r_basis @ col
            if val > 0.5:
                subspaces.append(JordanSubspace(p=0.0, w=vec))  # in range(Pi_w) only
            else:
                subspaces.append(JordanSubspace(p=0.0, other=vec))  # outside both
    return JordanDecomposition(tuple(subspaces), dim)


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

    def cdf(self, x: float, slack: float = 1e-12) -> float:
        """Pr[X <= x], with a hair of slack so grid points compare as intended."""
        return float(sum(self.masses[: bisect_right(self.support, x + slack)]))

    def sf(self, x: float, slack: float = 1e-12) -> float:
        """Pr[X >= x]."""
        return float(sum(self.masses[bisect_left(self.support, x - slack) :]))


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
