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

* api_exact runs the alternating measurements on the Jordan blocks of
  (CProj, IsU), one per eigenvector phi_j of P_D: in the block spanned by
  |1_R> (x) phi_j and CProj |1_R> (x) phi_j every measurement repeats the
  previous outcome with probability p_j (1 - p_j reversed), so d block
  weights carry the state.  It makes the literal walk's draws, one uniform
  per measurement in the order CProj, IsU, ... of the main loop and then of
  the flush; the literal walk on H_R (x) H is its oracle in the tests.
* api_fast uses the two-projector structure: range(IsU) compresses CProj to the
  accept operator P_D on H, so sampling an eigenvalue cluster p_j of P_D with
  the Born weights and drawing t ~ Binomial(2T, p_j) (or 1-p_j reversed)
  reproduces the estimate law, and the post state is the cluster projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .errors import (
    DegenerateStateError,
    DimensionCapError,
    DimensionError,
    FlushLimitError,
    InvariantError,
    RoundLimitError,
)
from .qcore import QuantumProgram, StateVector, dimension_cap, program_projectors
from .spectral import MixedBinaryPOVM, accept_eigenbasis, projimp_cluster

FLUSH_ROUNDS_PER_T = 64
MAX_EXACT_ROUNDS = 1 << 20  # largest T api_exact runs; T grows as 1/eps^2
DRAW_CHUNK = 4096  # main-loop uniforms per rng.random call
RESCALE_BELOW = 1e-150  # block weights are rescaled once their sum falls below this


@dataclass(frozen=True)
class ApiParams:
    """Accuracy/confidence pair; the round count T is derived, never set.

    T = ceil(ln(4/delta) / eps^2).
    """

    eps: float
    delta: float
    T: int = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise InvariantError(f"eps must lie in (0,1), got {self.eps}")
        if not (0.0 < self.delta < 1.0):
            raise InvariantError(f"delta must lie in (0,1), got {self.delta}")
        object.__setattr__(self, "T", math.ceil(math.log(4.0 / self.delta) / self.eps**2))

    @property
    def max_flush_rounds(self) -> int:
        """Cap on the flush rounds of one exact run."""
        return FLUSH_ROUNDS_PER_T * self.T


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


def distribution_povm(prog: QuantumProgram, dist) -> MixedBinaryPOVM:
    """Binary POVM mixture induced by a program on a finite triple distribution.

    The r-th member accepts when the program answers the triple's first
    component on query (x_r, y_r); the members form one checked stack.
    """
    return MixedBinaryPOVM(program_projectors(prog, dist.triples))


def _uniforms(rng, params: ApiParams, bits: bytearray):
    """The 2T main-loop uniforms in chunks, then one flush uniform at a time
    for as long as the last outcome appended to `bits` is an IsU reject, so
    the stream ends where one draw per measurement would leave it."""
    n = 2 * params.T
    for start in range(0, n, DRAW_CHUNK):
        yield from rng.random(min(DRAW_CHUNK, n - start)).tolist()
    rounds = 0
    while bits[-1] != 1:
        if rounds >= params.max_flush_rounds:
            raise FlushLimitError(f"no register re-anchor after {rounds} flush rounds")
        yield rng.random()
        yield rng.random()
        rounds += 1


def api_exact(
    dist,
    prog: QuantumProgram,
    params: ApiParams,
    rng,
    *,
    reverse: bool = False,
) -> tuple[float, StateVector, ApiTranscript]:
    """Run the alternating-measurement algorithm on the Jordan blocks of (CProj, IsU).

    Block j starts with weight |<phi_j|psi>|^2.  An outcome that repeats the
    previous one (1 before the first) scales each w_j by q_j = p_j (1 - p_j
    reversed), a flip by 1 - q_j, so outcome 1 has probability sum_j w_j q_j
    after a 1 and 1 - sum_j w_j q_j after a 0.  The post state is
    (-1)^n00 sum_j sqrt(w_j) phase(<phi_j|psi>) phi_j, n00 counting 0 -> 0
    repeats.  Returns (estimate, post state on H, transcript).
    """
    if params.T > MAX_EXACT_ROUNDS:
        raise RoundLimitError(f"exact engine needs T = {params.T} rounds, cap is {MAX_EXACT_ROUNDS}")
    povm = distribution_povm(prog, dist)
    if povm.dim != prog.dim:
        raise DimensionError("program dimension changed under projector construction")
    if povm.s * povm.dim > dimension_cap():
        raise DimensionCapError(f"composite dimension {povm.s * povm.dim} exceeds cap {dimension_cap()}")
    p, eigvecs = accept_eigenbasis(povm.average())
    coef = eigvecs.conj().T @ prog.state.amplitudes
    born = np.abs(coef) ** 2
    if abs(born.sum() - 1.0) > 1e-8:
        raise InvariantError(f"eigen-coefficients of the state sum to {born.sum()!r}, not 1")
    held = born > 0  # a block without weight adds exact zeros to every sum
    p, eigvecs, coef, born = p[held], eigvecs[:, held], coef[held], born[held]
    agree, flip = ((1.0 - p).tolist(), p.tolist()) if reverse else (p.tolist(), (1.0 - p).tolist())
    # The weights stay unnormalized, with sum `total`, and are rescaled only
    # before they could underflow; this saves a pass over them per step.
    weights, total = born.tolist(), float(born.sum())
    bits = bytearray()
    prev = 1
    for u in _uniforms(rng, params, bits):
        num = sum(map(mul, weights, agree))
        g = num / total
        bit = int(u < (g if prev else 1.0 - g))
        if bit == prev:
            weights, kept = list(map(mul, weights, agree)), num
        else:
            weights = list(map(mul, weights, flip))
            kept = sum(weights)
        if kept < 1e-24 * total:
            raise DegenerateStateError("measurement branch vanished during API run")
        total = kept
        if total < RESCALE_BELOW:
            weights = [w / total for w in weights]
            total = sum(weights)
        bits.append(bit)
        prev = bit
    main, flush = tuple(bits[: 2 * params.T]), tuple(bits[2 * params.T :])
    zeros = np.frombuffer(bits, dtype=np.uint8) == 0
    n00 = int(np.count_nonzero(zeros[1:] & zeros[:-1]))
    amps = eigvecs @ (coef / np.abs(coef) * np.sqrt(np.array(weights) / total))
    t = agreement_count(main)
    transcript = ApiTranscript(main, flush, t, t / (2 * params.T))
    return transcript.estimate, StateVector.from_unnormalized(-amps if n00 % 2 else amps), transcript


def api_fast(
    dist,
    prog: QuantumProgram,
    params: ApiParams,
    rng,
    *,
    reverse: bool = False,
) -> tuple[float, StateVector, int]:
    """Compressed API: identical estimate law and cluster post states.

    Compressing CProj^1 by the range of IsU gives exactly P_D, so the squared
    cosines of the principal angles of (IsU, CProj^1) are the eigenvalues of
    P_D and the invariant vectors are |1_R> (x) phi_j with phi_j the
    eigenvectors.  The run samples a cluster j with Born weight, then
    t ~ Binomial(2T, p_j) forward or Binomial(2T, 1 - p_j) reversed.
    Returns (estimate, post state, j).
    """
    idx, q, post = projimp_cluster(distribution_povm(prog, dist), prog.state, rng)
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
