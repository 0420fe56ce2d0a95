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
  the flush; the literal walk on H_R (x) H is its oracle in the tests.  When
  one block holds all the weight (classical and honest pirates), each
  main-loop step is a fixed map of the previous bit and the bits follow from
  a prefix scan over the uniforms.  A uniform within SCAN_MARGIN of q or
  1 - q, or a step that would vanish, sends the run back to the per-step
  block walk on the same draws, so both give the same bytes.
* api_fast uses the two-projector structure: range(IsU) compresses CProj to the
  accept operator P_D on H, so sampling an eigenvalue cluster p_j of P_D with
  the Born weights and drawing t ~ Binomial(2T, p_j) (or 1-p_j reversed)
  reproduces the estimate law, and the post state is the cluster projection.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain
from operator import mul

import numpy as np

from .errors import (
    DegenerateStateError,
    DimensionCapError,
    FlushLimitError,
    InvariantError,
    RoundLimitError,
)
from .qcore import DIMENSION_CAP, QuantumProgram, StateVector, program_projectors
from .spectral import MixedBinaryPOVM, accept_eigenbasis, projimp_cluster

FLUSH_ROUNDS_PER_T = 64
MAX_EXACT_ROUNDS = 1 << 20  # largest T api_exact runs; T grows as 1/eps^2
MAX_ROUNDS = (2**63 - 1) // 2  # largest T whose 2T fits the int64 of api_fast's binomial draw
DRAW_CHUNK = 4096  # main-loop uniforms per rng.random call
RESCALE_BELOW = 1e-150  # block weights are rescaled once their sum falls below this
VANISHED_BELOW = 1e-24  # a drawn outcome keeping less of the weight than this raises
SCAN_MARGIN = 1e-9  # a uniform this close to q or 1 - q sends a one-block walk to the block walk


@dataclass(frozen=True)
class ApiParams:
    """Accuracy/confidence pair; the round count T is derived, never set.

    T = ceil(ln(4/delta) / eps^2), at most MAX_ROUNDS.
    """

    eps: float
    delta: float
    T: int = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise InvariantError(f"eps must lie in (0,1), got {self.eps}")
        if not (0.0 < self.delta < 1.0):
            raise InvariantError(f"delta must lie in (0,1), got {self.delta}")
        # eps^2 underflows to 0 below about 1e-162, and 4/delta overflows to inf
        rounds = math.log(4.0 / self.delta) / self.eps**2 if self.eps**2 else math.inf
        if not (math.isfinite(rounds) and math.ceil(rounds) <= MAX_ROUNDS):
            raise RoundLimitError(
                f"eps={self.eps!r} and delta={self.delta!r} need {rounds:.3g} rounds, cap is {MAX_ROUNDS}"
            )
        object.__setattr__(self, "T", math.ceil(rounds))

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


def agreement_count(bits: Sequence[int]) -> int:
    """Number of adjacent agreements in (1, b_1, ..., b_2T).

    The leading 1 reflects the initial state lying in range(IsU), i.e. the
    run starts as if the previous uniformity test had accepted.
    """
    padded = np.frombuffer(b"\x01" + bytes(bits), dtype=np.uint8)
    return int(np.count_nonzero(padded[1:] == padded[:-1]))


def distribution_povm(prog: QuantumProgram, dist) -> MixedBinaryPOVM:
    """Binary POVM mixture induced by a program on a finite triple distribution.

    The r-th member accepts when the program answers the triple's first
    component on query (x_r, y_r); the members form one checked stack.
    """
    return MixedBinaryPOVM(program_projectors(prog, dist.triples))


def _main_uniforms(draws: np.ndarray):
    """The main-loop uniforms one at a time, converted DRAW_CHUNK at a time."""
    for start in range(0, len(draws), DRAW_CHUNK):
        yield from draws[start : start + DRAW_CHUNK].tolist()


def _flush_uniforms(rng, params: ApiParams, bits: bytearray, drawn=()):
    """Flush uniforms in pairs for as long as the last outcome appended to
    `bits` is an IsU reject: first the already `drawn` ones, then one
    rng.random() at a time, so the stream ends where one draw per
    measurement would leave it."""
    fresh = chain(drawn, iter(rng.random, None))  # rng.random() never returns None
    rounds = 0
    while bits[-1] != 1:
        if rounds >= params.max_flush_rounds:
            raise FlushLimitError(f"no register re-anchor after {rounds} flush rounds")
        yield next(fresh)
        yield next(fresh)
        rounds += 1


def _block_walk(born: np.ndarray, agree: list, flip: list, uniforms, bits: bytearray) -> np.ndarray:
    """Append one outcome per uniform to `bits`; return the final block weights over their sum."""
    # The weights stay unnormalized, with sum `total`, and are rescaled only
    # before they could underflow; this saves a pass over them per step.
    weights, total = born.tolist(), float(born.sum())
    prev = 1
    for u in uniforms:
        num = sum(map(mul, weights, agree))
        g = num / total
        bit = int(u < (g if prev else 1.0 - g))
        if bit == prev:
            weights, kept = list(map(mul, weights, agree)), num
        else:
            weights = list(map(mul, weights, flip))
            kept = sum(weights)
        if kept < VANISHED_BELOW * total:
            raise DegenerateStateError("measurement branch vanished during API run")
        total = kept
        if total < RESCALE_BELOW:
            weights = [w / total for w in weights]
            total = sum(weights)
        bits.append(bit)
        prev = bit
    return np.array(weights) / total


def _one_block_walk(main: np.ndarray, agree: float, flip: float, rng, params: ApiParams, drawn: list):
    """Outcome bits of a walk whose state lies in one Jordan block, or None
    where `_block_walk` must decide them; `drawn` keeps the flush uniforms
    taken so far.

    After a 1 the bit is u < q, after a 0 it is u < 1 - q (q = agree), so
    each main-loop step is a fixed map of the previous bit: constant 0,
    constant 1, the identity or a negation.  A bit is then the value of the
    last constant step up to it (the leading 1 counts as one), flipped by the
    parity of the negations since.  The block walk compares u with
    fl(fl(w q) / w), which can sit an ulp from q, so a uniform within
    SCAN_MARGIN of q or 1 - q is left to it; so is a step whose factor would
    let it raise DegenerateStateError.  With one block the weight ratio the
    block walk returns is exactly 1.
    """

    def near(u):
        return (np.abs(u - agree) < SCAN_MARGIN) | (np.abs(u - (1.0 - agree)) < SCAN_MARGIN)

    if np.any(near(main)):
        return None
    after_one = np.empty(len(main) + 1, dtype=bool)
    after_zero = np.empty(len(main) + 1, dtype=bool)
    after_one[0] = after_zero[0] = True
    np.less(main, agree, out=after_one[1:])
    np.less(main, 1.0 - agree, out=after_zero[1:])
    steps = np.arange(len(after_one), dtype=np.int32)  # 2T + 1 <= 2**21 + 1
    last_constant = np.maximum.accumulate(np.where(after_one == after_zero, steps, 0))
    odd = np.logical_xor.accumulate(after_zero & ~after_one)  # parity of the negations so far
    scan = after_one[last_constant] ^ odd ^ odd[last_constant]
    repeats = scan[1:] == scan[:-1]
    if (agree <= VANISHED_BELOW and repeats.any()) or (flip <= VANISHED_BELOW and not repeats.all()):
        return None
    bits = bytearray(scan[1:].view(np.uint8))
    for u in _flush_uniforms(rng, params, bits):
        drawn.append(u)
        prev = bits[-1]
        bit = int(u < (agree if prev else 1.0 - agree))
        if near(u) or (agree if bit == prev else flip) <= VANISHED_BELOW:
            return None
        bits.append(bit)
    return bits


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
    if povm.s * povm.dim > DIMENSION_CAP:
        raise DimensionCapError(f"composite dimension {povm.s * povm.dim} exceeds cap {DIMENSION_CAP}")
    p, eigvecs = accept_eigenbasis(povm.average())
    coef = eigvecs.conj().T @ prog.state.amplitudes
    born = np.abs(coef) ** 2
    if abs(born.sum() - 1.0) > 1e-8:
        raise InvariantError(f"eigen-coefficients of the state sum to {born.sum()!r}, not 1")
    held = born > 0  # a block without weight adds exact zeros to every sum
    p, eigvecs, coef, born = p[held], eigvecs[:, held], coef[held], born[held]
    agree, flip = ((1.0 - p).tolist(), p.tolist()) if reverse else (p.tolist(), (1.0 - p).tolist())
    n = 2 * params.T
    draws = np.empty(n)
    for start in range(0, n, DRAW_CHUNK):
        rng.random(out=draws[start : start + DRAW_CHUNK])
    drawn: list[float] = []
    bits = _one_block_walk(draws, agree[0], flip[0], rng, params, drawn) if len(agree) == 1 else None
    if bits is None:
        bits = bytearray()
        uniforms = chain(_main_uniforms(draws), _flush_uniforms(rng, params, bits, drawn))
        ratio = _block_walk(born, agree, flip, uniforms, bits)
    else:
        ratio = np.ones(1)  # the one block keeps all the weight
    zeros = np.frombuffer(bits, dtype=np.uint8) == 0
    n00 = int(np.count_nonzero(zeros[1:] & zeros[:-1]))
    amps = eigvecs @ (coef / np.abs(coef) * np.sqrt(ratio))
    t = agreement_count(bits[:n])
    transcript = ApiTranscript(tuple(bits[:n]), tuple(bits[n:]), t, t / n)
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
