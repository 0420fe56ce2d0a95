"""Watermarking PRF with quantum extraction.

Marking appends a zero bit to the k-bit user message and delegates to the
extraction-less scheme, so the embedded message has k+1 positions.  The
extractor never sees the pirate's code: it runs the approximate projective
measurement against simulated query distributions, one message position at a
time, threading the post-measurement state through the calls.

With eps' = eps / (4(k+1)) and an estimate p~ from each run:

  gate (position k+1): the decoder is declared unmarked when
      p~ < 1/2 + eps - 4 eps';
  position i in 1..k:  bit 0 when p~ > 1/2 + eps - 4(i+1) eps',
                       bit 1 when p~ < 1/2 - eps + 4(i+1) eps',
                       otherwise the loop exits and reports the all-zero
                       message flagged as a fallback.

The widening of the decision bands by 4 eps' per step absorbs the almost-
projectivity drift: a decoder that passes the gate keeps each successive
estimate inside the previous band up to eps' except with probability delta'.

Events over independent trials:

  Live    : the projective implementation of the real query mixture returns
            p >= 1/2 + eps on a fresh copy of the pirate;
  GoodExt : extraction returns anything but "unmarked";
  BadExt  : extraction returns a message differing from the embedded one.

The scheme's promise is Pr[BadExt] ~ 0 and Pr[GoodExt] >= Pr[Live] - (small);
Live and extraction run on separate copies because the two measurements do
not commute.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

from . import crypto, elwm
from .api import MAX_EXACT_ROUNDS, ApiParams, distribution_povm, run_api
from .elwm import ElwmParams, ObfuscatedCircuit, PrfKeyIo, TagIo, build_distribution
from .errors import DimensionCapError, IndexRangeError, InvariantError, LengthError, RoundLimitError
from .qcore import DIMENSION_CAP, QuantumProgram
from .spectral import projimp

LIVE_SLACK = 1e-12  # float dust only; thresholds are meant as exact comparisons


@dataclass(frozen=True)
class ExtractParams:
    """Extraction accuracy knobs.

    k is the user message length; eps the unremovability margin; delta_prime
    the per-call API confidence (the reference asymptotic choice is
    negligible, here a knob); s the coin-space size of each instantiated
    distribution, from 1 to ``elwm.MAX_TRIPLES``; engine selects the API
    implementation.
    """

    k: int
    eps: float
    delta_prime: float = 0.01
    s: int = 16
    engine: str = "fast"
    eps_prime: float = field(init=False)

    def __post_init__(self):
        if self.k < 1:
            raise IndexRangeError(f"message length must be positive, got {self.k}")
        if not (0.0 < self.eps <= 0.5):
            raise InvariantError(f"eps must lie in (0, 1/2], got {self.eps}")
        if not (0.0 < self.delta_prime < 1.0):
            raise InvariantError(f"delta_prime must lie in (0,1), got {self.delta_prime}")
        if self.s < 1:
            raise LengthError("coin-space size must be positive")
        if self.engine not in ("fast", "exact"):
            raise InvariantError(f"engine must be 'fast' or 'exact', got {self.engine!r}")
        # every program has dimension >= 2, so s * d stays within the exact
        # engine's cap only for s <= DIMENSION_CAP // 2; refuse before any Sim work
        if self.engine == "exact" and self.s > DIMENSION_CAP // 2:
            raise DimensionCapError(f"exact engine needs s * d <= {DIMENSION_CAP}; s = {self.s} exceeds it for any d >= 2")
        if self.s > elwm.MAX_TRIPLES:
            raise LengthError(f"coin-space size {self.s} exceeds the budget of {elwm.MAX_TRIPLES} triples")
        object.__setattr__(self, "eps_prime", self.eps / (4.0 * (self.k + 1)))
        rounds = self.api_params().T
        if self.engine == "exact" and rounds > MAX_EXACT_ROUNDS:
            raise RoundLimitError(f"exact engine needs T = {rounds} rounds, cap is {MAX_EXACT_ROUNDS}")

    def api_params(self) -> ApiParams:
        return ApiParams(self.eps_prime, self.delta_prime)

    def gate_threshold(self) -> float:
        return 0.5 + self.eps - 4.0 * self.eps_prime

    def bit_thresholds(self, i: int) -> tuple[float, float]:
        """(zero_above, one_below) for position i in 1..k.

        zero_above > 1/2 > one_below strictly for i < k; at i = k both
        collapse to exactly 1/2 (the band is empty there by construction).
        """
        if not (1 <= i <= self.k):
            raise IndexRangeError(f"bit index {i} outside 1..{self.k}")
        width = 4.0 * (i + 1) * self.eps_prime
        return 0.5 + self.eps - width, 0.5 - self.eps + width


UNMARKED = "unmarked"


@dataclass(frozen=True)
class ExtractionReport:
    """Serializable outcome of one extraction run."""

    k: int
    eps: float
    eps_prime: float
    delta_prime: float
    engine: str
    gate_estimate: float
    bit_estimates: tuple[float, ...]
    decoded: str  # k bits, or the literal "unmarked"
    fallback: bool  # True when the all-zero output came from a band exit
    calls: tuple[dict, ...]

    @property
    def unmarked(self) -> bool:
        return self.decoded == UNMARKED

    def to_json_dict(self) -> dict:
        """The fields by name, with the tuples as lists."""
        return {**asdict(self), "bit_estimates": list(self.bit_estimates), "calls": list(self.calls)}


def wm_gen(params: ExtractParams, elwm_params: ElwmParams, rng):
    """Key generation: message space inside the carrier is k+1 bits."""
    if elwm_params.msg_bits != params.k + 1:
        raise LengthError(f"carrier message space {elwm_params.msg_bits} != k+1 = {params.k + 1}")
    return elwm.gen(elwm_params, rng)


def wm_mark(prfk: PrfKeyIo, message: str) -> ObfuscatedCircuit:
    """Mark with the user message extended by the reserved zero bit."""
    if len(message) != prfk.params.msg_bits - 1:
        raise LengthError(
            f"message must have {prfk.params.msg_bits - 1} bits, got {len(message)}"
        )
    return elwm.mark(prfk, message + "0")


def extract(
    coin_key: bytes,
    tag: TagIo,
    prog: QuantumProgram,
    params: ExtractParams,
    rng,
) -> ExtractionReport:
    """Bit-by-bit extraction by repeated approximate projective measurement."""
    carrier = tag.params
    if carrier.msg_bits != params.k + 1:
        raise LengthError(f"tag carries {carrier.msg_bits} positions, expected {params.k + 1}")
    api_params = params.api_params()
    master_seed = rng.bytes(16)

    calls: list[dict] = []

    def measure(i: int, program: QuantumProgram):
        dist = build_distribution(
            i,
            params=carrier,
            s=params.s,
            master_seed=master_seed,
            coin_key=coin_key,
            tag=tag,
        )
        est, post, info = run_api(dist, program, api_params, rng, engine=params.engine)
        calls.append(dict(info, index=i))
        return est, program.with_state(post)

    gate_estimate, current = measure(params.k + 1, prog)
    estimates: list[float] = []
    if gate_estimate < params.gate_threshold():
        decoded, fallback = UNMARKED, False
    else:
        bits: list[str] = []
        for i in range(1, params.k + 1):
            est, current = measure(i, current)
            estimates.append(est)
            zero_above, one_below = params.bit_thresholds(i)
            if est > zero_above:
                bits.append("0")
            elif est < one_below:
                bits.append("1")
            else:
                break
        fallback = len(bits) < params.k
        decoded = "0" * params.k if fallback else "".join(bits)
    return ExtractionReport(
        params.k,
        params.eps,
        params.eps_prime,
        params.delta_prime,
        params.engine,
        gate_estimate,
        tuple(estimates),
        decoded,
        fallback,
        tuple(calls),
    )


# ---------------------------------------------------------------------------
# event experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialResult:
    message: str
    live: bool
    live_p: float
    report: ExtractionReport

    @property
    def good_ext(self) -> bool:
        """GoodExt: extraction returned anything but "unmarked"."""
        return not self.report.unmarked

    @property
    def bad_ext(self) -> bool:
        """BadExt: extraction returned a message other than the embedded one."""
        return self.good_ext and self.report.decoded != self.message


def live_probe(prog: QuantumProgram, prfk: PrfKeyIo, params: ExtractParams, coin_key: bytes, master_seed: bytes, rng) -> tuple[bool, float]:
    """Projective implementation of the real query mixture on a fresh copy."""
    dist = build_distribution(
        None,
        params=prfk.params,
        s=params.s,
        master_seed=master_seed,
        coin_key=coin_key,
        prfk=prfk,
    )
    p, _ = projimp(distribution_povm(prog, dist), prog.state, rng)
    return p >= 0.5 + params.eps - LIVE_SLACK, p


def run_event_trial(
    params: ExtractParams,
    pirate_builder: Callable[[ObfuscatedCircuit], QuantumProgram],
    message: str,
    rng,
    *,
    elwm_params: ElwmParams,
) -> TrialResult:
    """One independent game: fresh keys, fresh mark, fresh pirate, both probes.

    Live and extraction act on separate copies of the pirate (program objects
    are immutable; each probe threads its own post states).
    """
    crypto.forget_leaves()  # no leaf of an earlier game's keys is evaluated again
    prfk, tag = wm_gen(params, elwm_params, rng)
    coin_key = elwm.new_coin_key(rng)
    circuit = wm_mark(prfk, message)
    prog = pirate_builder(circuit)
    live, live_p = live_probe(prog, prfk, params, coin_key, rng.bytes(16), rng)
    report = extract(coin_key, tag, prog, params, rng)
    return TrialResult(message, live, live_p, report)

