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

There are two engines.  Both see a distribution only through its accept
operator P_D, the (d, d) array `distribution_povm` builds.

* api_exact runs the alternating measurements on the Jordan blocks of
  (CProj, IsU), one per eigenvector phi_j of P_D: in the block spanned by
  |1_R> (x) phi_j and CProj |1_R> (x) phi_j every measurement repeats the
  previous outcome with probability p_j (1 - p_j reversed), so d block
  weights carry the state.  It makes the literal walk's draws, one uniform
  per measurement in the order CProj, IsU, ... of the main loop and then of
  the flush; the literal walk on H_R (x) H is its oracle in the tests.  The
  transcript holds the outcomes as bytes, one 0 or 1 per byte.  When one
  block holds all the weight (classical and honest pirates), each main-loop
  step is a fixed map of the previous bit and the bits come from a carry
  chain: the carries of one integer addition over the packed comparisons of
  the uniforms.  A uniform within SCAN_MARGIN of q or 1 - q, or a step
  that would vanish, sends the run back to the per-step block walk on the
  same draws, so both give the same bytes.
* api_fast uses the two-projector structure: range(IsU) compresses CProj to the
  accept operator P_D on H, so sampling an eigenvalue cluster p_j of P_D with
  the Born weights and drawing t ~ Binomial(2T, p_j) (or 1-p_j reversed)
  reproduces the estimate law, and the post state is the cluster projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from operator import add, mul

import numpy as np

from .errors import (
    DegenerateStateError,
    DimensionCapError,
    FlushLimitError,
    InvariantError,
    RoundLimitError,
)
from .qcore import DIMENSION_CAP, QuantumProgram, StateVector, program_projectors
from .spectral import projimp_cluster, spectrum

FLUSH_ROUNDS_PER_T = 64
MAX_EXACT_ROUNDS = 1 << 20  # largest T api_exact runs; T grows as 1/eps^2
MAX_ROUNDS = (2**63 - 1) // 2  # largest T whose 2T fits the int64 of api_fast's binomial draw
DRAW_CHUNK = 4096  # main-loop uniforms the block walk converts to Python floats at a time
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

    bits: the 2T main-loop outcomes (CProj, IsU alternating), one 0 or 1
        per byte.
    flush_bits: outcomes of the re-anchoring pairs, bytes the same way;
        empty if b_2T = 1.
    t: agreement count in (1, b_1, ..., b_2T); estimate = t / 2T.
    """

    bits: bytes
    flush_bits: bytes
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


def _packed(flags: np.ndarray) -> int:
    """A bool or 0/1 array as an int whose bit i is flags[i]."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _led(bits) -> int:
    """(1, b_1, ..., b_m) packed: the leading 1 in bit 0, b_i in bit i."""
    return _packed(np.frombuffer(b"\x01" + bytes(bits), dtype=np.uint8))


def _agreements(led: int, m: int) -> int:
    """Adjacent agreements among the first m + 1 entries of a packed (1, b_1, ...).

    The leading 1 reflects the initial state lying in range(IsU), i.e. the
    run starts as if the previous uniformity test had accepted.
    """
    return m - ((led ^ (led >> 1)) & ((1 << m) - 1)).bit_count()


def distribution_povm(prog: QuantumProgram, dist) -> np.ndarray:
    """Accept operator P_D of the binary POVM mixture a program induces on a
    finite distribution, the tuple of its s triples (b, x, y).

    The r-th member accepts when the program answers b_r on query (x_r, y_r).
    P_D is the checked member stack summed over axis 0 and divided by s: the
    sum of a C-contiguous stack adds the members in order, so this is the
    left-to-right running sum bit for bit, and any other reduction changes the
    eigenbasis `eigh` returns.  A member memo hit holds the bytes a miss
    computes, so P_D is the same bytes cold or warm (`program_projectors`).
    """
    stack = program_projectors(prog, dist)
    return stack.sum(0) / len(stack)


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
    # before they could underflow; this saves a pass over them per step.  The
    # sums fold left to right: the builtin sum compensates from Python 3.12 on.
    weights, total = born.tolist(), float(born.sum())
    prev = 1
    for u in uniforms:
        num = reduce(add, map(mul, weights, agree), 0.0)
        g = num / total
        bit = int(u < (g if prev else 1.0 - g))
        if bit == prev:
            weights, kept = list(map(mul, weights, agree)), num
        else:
            weights = list(map(mul, weights, flip))
            kept = reduce(add, weights, 0.0)
        if kept < VANISHED_BELOW * total:
            raise DegenerateStateError("measurement branch vanished during API run")
        total = kept
        if total < RESCALE_BELOW:
            weights = [w / total for w in weights]
            total = reduce(add, weights, 0.0)
        bits.append(bit)
        prev = bit
    return np.array(weights) / total


def _one_block_walk(main: np.ndarray, agree: float, flip: float, rng, params: ApiParams, drawn: list):
    """Outcome bits of a walk whose state lies in one Jordan block, or None
    where `_block_walk` must decide them; `drawn` keeps the flush uniforms
    taken so far.

    After a 1 the bit is u < q, after a 0 it is u < 1 - q (q = agree), so
    each main-loop step is a fixed map of the previous bit: constant 0,
    constant 1, the identity or a negation.  XOR-ing each bit with the
    parity of the negations up to it turns every negation into an identity;
    the bits so changed are then the carries of an addition in which the
    constant-1 steps generate, the constant-0 steps kill, the other steps
    propagate and the leading 1 is the carry in.  The comparisons are packed
    into Python ints and the addition is one int sum.  The block walk
    compares u with fl(fl(w q) / w), which can sit an ulp from q, so a
    uniform within SCAN_MARGIN of q or 1 - q is left to it; so is a step
    whose factor would let it raise DegenerateStateError.  With one block
    the weight ratio the block walk returns is exactly 1.
    """

    def near(u):
        return ((agree - SCAN_MARGIN < u) & (u < agree + SCAN_MARGIN)) | (
            (1.0 - agree - SCAN_MARGIN < u) & (u < 1.0 - agree + SCAN_MARGIN)
        )

    if near(main).any():
        return None
    n = len(main)
    full = (1 << n) - 1
    after_one = _packed(main < agree)  # bit i: the outcome of step i + 1 after a 1
    after_zero = _packed(main < 1.0 - agree)  # ... and after a 0
    odd = after_zero & ~after_one  # the negations, then their prefix parity
    shift = 1
    while shift < n:
        odd ^= odd << shift
        shift <<= 1
    odd &= full
    moves = after_one ^ after_zero  # identity and negation steps: both propagate
    generate = ~moves & (after_one ^ odd) & full  # constant steps whose changed bit is 1
    either = moves | generate
    carries = ((either + generate + 1) ^ either ^ generate) >> 1
    scan = (carries ^ odd) & full
    agreements = _agreements(scan << 1 | 1, n)
    if (agree <= VANISHED_BELOW and agreements) or (flip <= VANISHED_BELOW and agreements < n):
        return None
    packed = np.frombuffer(scan.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    bits = bytearray(np.unpackbits(packed, count=n, bitorder="little"))
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
    composite = len(dist) * prog.dim
    if composite > DIMENSION_CAP:
        raise DimensionCapError(f"composite dimension {composite} exceeds cap {DIMENSION_CAP}")
    spec = spectrum(distribution_povm(prog, dist), prog.state)
    held = spec.born > 0  # a block without weight adds exact zeros to every sum
    p, eigvecs, coef, born = spec.values[held], spec.vectors[:, held], spec.coef[held], spec.born[held]
    agree, flip = ((1.0 - p).tolist(), p.tolist()) if reverse else (p.tolist(), (1.0 - p).tolist())
    n = 2 * params.T
    draws = rng.random(n)
    drawn: list[float] = []
    bits = _one_block_walk(draws, agree[0], flip[0], rng, params, drawn) if len(agree) == 1 else None
    if bits is None:
        bits = bytearray()
        uniforms = chain(_main_uniforms(draws), _flush_uniforms(rng, params, bits, drawn))
        ratio = _block_walk(born, agree, flip, uniforms, bits)
        amps = eigvecs @ (coef / np.abs(coef) * np.sqrt(ratio))
    else:
        amps = eigvecs @ (coef / np.abs(coef))  # the one block keeps all the weight
    led = _led(bits)
    t = _agreements(led, n)
    n00 = (~(led | led >> 1) & ((1 << len(bits)) - 1)).bit_count()  # 0 -> 0 steps
    transcript = ApiTranscript(bytes(bits[:n]), bytes(bits[n:]), t, t / n)
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
) -> tuple[float, StateVector, dict]:
    """Engine dispatch; returns (estimate, post state, summary dict)."""
    if engine == "fast":
        est, post, idx = api_fast(dist, prog, params, rng)
        return est, post, {"engine": "fast", "estimate": est, "subspace": idx}
    if engine == "exact":
        est, post, transcript = api_exact(dist, prog, params, rng)
        return est, post, {
            "engine": "exact",
            "estimate": est,
            "t": transcript.t,
            "flush_rounds": transcript.flush_rounds,
        }
    raise InvariantError(f"unknown API engine {engine!r}")
