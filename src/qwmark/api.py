"""Approximate projective implementation (API) of a mixed binary POVM.

The measurement runs on an enlarged space H_R (x) H, where H_R holds a
uniform superposition |1_R> over the coin register of the mixture.  Two
binary measurements alternate:

    CProj:  sum_r |r><r| (x) Pi_{D(r)}   vs. its complement
    IsU:    |1_R><1_R| (x) I             vs. its complement

Starting from |1_R>|psi>, T = ceil(ln(4/delta)/eps^2) rounds of
(CProj, IsU) are performed; with b_0 = 1 prepended, the outcome estimate is

    p~ = #{i in 1..2T : b_{i-1} = b_i} / 2T.

If the final IsU outcome is 0 the loop continues (pairs of measurements)
until an IsU outcome of 1 re-anchors the register in |1_R>, which is then
discarded exactly.  Two successive runs agree within eps except with
probability <= delta (almost projectivity); reversing the projector roles
on the second run gives estimates summing to ~1 (reverse almost
projectivity).

There are two engines.  Both take a distribution's projectors as one checked
(s, d, d) stack from `distribution_povm`.

* api_exact simulates the alternating measurements literally on H_R (x) H,
  holding the state as an (s, d) array.  CProj is applied as one batched
  product of the (s, d, d) projector stack with the coin blocks, IsU as the
  column mean broadcast back over the register, and every measurement makes
  exactly one uniform draw, in the fixed order CProj, IsU, CProj, IsU, ...
  of the main loop and then of the flush.
* api_fast uses the Jordan structure: range(IsU) compresses CProj to the
  accept operator P_D on H, so sampling an eigenvalue cluster p_j of P_D with
  the Born weights and drawing t ~ Binomial(2T, p_j) (or 1-p_j reversed)
  reproduces the estimate law, and the post state is the cluster projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateStateError,
    DimensionCapError,
    DimensionError,
    FlushLimitError,
    InvariantError,
)
from .qcore import QuantumProgram, StateVector, dimension_cap, program_projectors
from .spectral import DEFAULT_CLUSTER_TOL, MixedBinaryPOVM, projimp_cluster

FLUSH_ROUNDS_PER_T = 64


@dataclass(frozen=True)
class ApiParams:
    """Accuracy/confidence pair; the round count T is derived, never set.

    T = ceil(ln(4/delta) / eps^2).
    """

    eps: float
    delta: float
    max_flush_rounds: int = 0  # 0 means the default cap of 64*T
    T: int = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise InvariantError(f"eps must lie in (0,1), got {self.eps}")
        if not (0.0 < self.delta < 1.0):
            raise InvariantError(f"delta must lie in (0,1), got {self.delta}")
        object.__setattr__(self, "T", math.ceil(math.log(4.0 / self.delta) / self.eps**2))
        if self.max_flush_rounds == 0:
            object.__setattr__(self, "max_flush_rounds", FLUSH_ROUNDS_PER_T * self.T)
        if self.max_flush_rounds < 1:
            raise InvariantError("max_flush_rounds must be positive")


@dataclass(frozen=True)
class ApiTranscript:
    """Outcome record of one exact API run.

    bits: the 2T main-loop outcomes (CProj, IsU alternating).
    flush_bits: outcomes of the re-anchoring pairs, empty if b_2T = 1.
    t: agreement count in (1, b_1, ..., b_2T); estimate = t / 2T.
    """

    bits: tuple[int, ...]
    flush_bits: tuple[int, ...]
    t: int
    estimate: float

    def __post_init__(self):
        if len(self.bits) % 2:
            raise InvariantError("transcript must hold an even number of main-loop bits")
        if self.flush_bits and self.flush_bits[-1] != 1:
            raise InvariantError("flush must end on an IsU outcome of 1")

    @property
    def flush_rounds(self) -> int:
        return len(self.flush_bits) // 2


def agreement_count(bits: tuple[int, ...]) -> int:
    """Number of adjacent agreements in (1, b_1, ..., b_2T).

    The leading 1 reflects the initial state lying in range(IsU), i.e. the
    run starts as if the previous uniformity test had accepted.
    """
    prev, count = 1, 0
    for b in bits:
        if b == prev:
            count += 1
        prev = b
    return count


@dataclass(frozen=True)
class ControlledProjection:
    """The coin-controlled projector pair on H_R (x) H, stored as one stack.

    stack[r] is the accept projector on H of coin r; a state on H_R (x) H is
    an (s, d) array whose row r is the H-component under coin r.
    """

    stack: np.ndarray  # (s, d, d)

    @property
    def s(self) -> int:
        return self.stack.shape[0]

    @property
    def block_dim(self) -> int:
        return self.stack.shape[1]

    def apply_accept(self, mat: np.ndarray, reverse: bool) -> np.ndarray:
        """Apply the accept operator (complemented blocks when reverse) to an (s, d) state."""
        branch = np.matmul(self.stack, mat[:, :, None])[:, :, 0]
        return mat - branch if reverse else branch


def distribution_povm(prog: QuantumProgram, dist) -> MixedBinaryPOVM:
    """Binary POVM mixture induced by a program on a finite triple distribution.

    The r-th member accepts when the program answers the triple's first
    component on query (x_r, y_r); the members form one checked stack.
    """
    return MixedBinaryPOVM(program_projectors(prog, dist.triples))


def api_exact(
    dist,
    prog: QuantumProgram,
    params: ApiParams,
    rng,
    *,
    reverse: bool = False,
) -> tuple[float, StateVector, ApiTranscript]:
    """Run the alternating-measurement algorithm literally on H_R (x) H.

    Returns (estimate, post state on H, transcript).  With reverse=True the
    projector roles of the controlled measurement swap, estimating 1 - p.
    """
    povm = distribution_povm(prog, dist)
    if povm.dim != prog.dim:
        raise DimensionError("program dimension changed under projector construction")
    cproj = ControlledProjection(povm.stack)
    s, d = cproj.s, cproj.block_dim
    if s * d > dimension_cap():
        raise DimensionCapError(f"composite dimension {s * d} exceeds cap {dimension_cap()}")
    ones_col = np.ones((s, 1))
    vec = np.full((s, 1), 1.0 / np.sqrt(s), dtype=complex) * prog.state.amplitudes[None, :]

    def measure(v: np.ndarray, accept: np.ndarray) -> tuple[int, np.ndarray]:
        """Measure (accept, v - accept) with one uniform draw; return the bit and branch."""
        p1 = min(1.0, max(0.0, float(np.vdot(v, accept).real)))
        if rng.random() < p1:
            bit, branch = 1, accept
        else:
            bit, branch = 0, v - accept
        norm = math.sqrt(np.vdot(branch, branch).real)
        if norm < 1e-12:
            raise DegenerateStateError("measurement branch vanished during API run")
        return bit, branch / norm

    bits: list[int] = []
    for _ in range(params.T):
        b, vec = measure(vec, cproj.apply_accept(vec, reverse))
        bits.append(b)
        b, vec = measure(vec, ones_col * (vec.sum(0) / s))
        bits.append(b)
    flush: list[int] = []
    rounds = 0
    while (flush[-1] if flush else bits[-1]) != 1:
        if rounds >= params.max_flush_rounds:
            raise FlushLimitError(f"no register re-anchor after {rounds} flush rounds")
        b, vec = measure(vec, cproj.apply_accept(vec, reverse))
        flush.append(b)
        b, vec = measure(vec, ones_col * (vec.sum(0) / s))
        flush.append(b)
        rounds += 1
    t = agreement_count(tuple(bits))
    # after an IsU accept the register factors as |1_R> (x) phi exactly
    phi = vec.sum(axis=0) / np.sqrt(s)
    residual = vec - np.full((s, 1), 1.0 / np.sqrt(s)) * phi[None, :]
    if np.linalg.norm(residual) > 1e-8:
        raise InvariantError("post state failed to factor out the uniform register")
    transcript = ApiTranscript(tuple(bits), tuple(flush), t, t / (2 * params.T))
    return transcript.estimate, StateVector.from_unnormalized(phi), transcript


def api_fast(
    dist,
    prog: QuantumProgram,
    params: ApiParams,
    rng,
    *,
    reverse: bool = False,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> tuple[float, StateVector, int]:
    """Jordan-compressed API: identical estimate law and cluster post states.

    Compressing CProj^1 by the range of IsU gives exactly P_D, so the Jordan
    angles of (IsU, CProj^1) are the eigenvalues of P_D and the invariant
    vectors are |1_R> (x) phi_j with phi_j the eigenvectors.  The run samples
    a cluster j with Born weight, then t ~ Binomial(2T, p_j) forward or
    Binomial(2T, 1 - p_j) reversed.  Returns (estimate, post state, j).
    """
    idx, q, post = projimp_cluster(distribution_povm(prog, dist), prog.state, rng, cluster_tol)
    if reverse:
        q = 1.0 - q
    t = int(rng.binomial(2 * params.T, min(1.0, max(0.0, q))))
    return t / (2 * params.T), post, idx


def run_api(
    dist,
    prog: QuantumProgram,
    params: ApiParams,
    rng,
    *,
    engine: str = "fast",
    reverse: bool = False,
) -> tuple[float, StateVector, dict]:
    """Engine dispatch; returns (estimate, post state, summary dict)."""
    if engine == "fast":
        est, post, idx = api_fast(dist, prog, params, rng, reverse=reverse)
        return est, post, {"engine": "fast", "estimate": est, "subspace": idx}
    if engine == "exact":
        est, post, transcript = api_exact(dist, prog, params, rng, reverse=reverse)
        return est, post, {
            "engine": "exact",
            "estimate": est,
            "t": transcript.t,
            "flush_rounds": transcript.flush_rounds,
        }
    raise InvariantError(f"unknown API engine {engine!r}")
