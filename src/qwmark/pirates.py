"""A zoo of pirate decoders for experiments.

Classical pirates answer queries by a deterministic rule a(x, y) in {0,1};
they occupy a single qubit in the basis state |0> with U_{x,y} = X^{a(x,y)},
so their states are exact eigenvectors of every query projector and they
commute with the projective implementation.

The superposed pirate runs two branch programs coherently, controlled on an
extra branch qubit appended after the branch programs' own registers; its
measured spectrum is the cos^2/sin^2 mixture of the branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .crypto import bits_to_bytes, keyed_rand
from .errors import DimensionError, FormatError
from .qcore import QuantumProgram, StateVector, UnitaryOracle

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


def classical_pirate(answer) -> QuantumProgram:
    """Single-qubit program answering by the deterministic rule answer(x, y)."""

    def evaluate(x: str, y: str) -> np.ndarray:
        return _X if answer(x, y) else _I2

    return QuantumProgram(StateVector.basis(2, 0), UnitaryOracle(2, evaluate))


def honest_pirate(circuit) -> QuantumProgram:
    """Answers 1 exactly when the circuit agrees with the offered value."""
    return classical_pirate(lambda x, y: circuit.run(x) == y)


def anti_pirate(circuit) -> QuantumProgram:
    """Always answers the complement of the honest answer."""
    return classical_pirate(lambda x, y: circuit.run(x) != y)


def noisy_pirate(circuit, eta: float) -> QuantumProgram:
    """Honest except on a deterministic eta-fraction of query pairs.

    The flipped pairs are selected by a hash of (x, y) under the fixed key
    b"noisy-pirate", so the induced POVM eigenvalue on any finite distribution
    is exactly 1 minus the flipped fraction among its coins (up to PRF/PRG
    collisions).
    """
    if not (0.0 <= eta <= 1.0):
        raise FormatError(f"noise rate must lie in [0,1], got {eta}")

    def flipped(x: str, y: str) -> bool:
        digest = keyed_rand(b"noisy-pirate", bits_to_bytes(x) + b"/" + bits_to_bytes(y), 53)
        return int(digest, 2) / (1 << 53) < eta

    def answer(x: str, y: str) -> int:
        honest = circuit.run(x) == y
        return int(honest != flipped(x, y))

    return classical_pirate(answer)


def coin_pirate() -> QuantumProgram:
    """Ignores the query and answers a fair coin: state |+>, identity unitaries."""
    plus = StateVector(np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0))
    return QuantumProgram(plus, UnitaryOracle(2, lambda x, y: _I2))


def superposed_pirate(theta: float, prog_a: QuantumProgram, prog_b: QuantumProgram) -> QuantumProgram:
    """Coherent branch combination cos(theta)|a> + sin(theta)|b>.

    The branch qubit is appended after the branch registers, so the output
    qubit (the global first qubit) stays the branches' output qubit.  The
    projective implementation's outcome distribution is the cos^2(theta) /
    sin^2(theta) mixture of the branch spectra.
    """
    if prog_a.dim != prog_b.dim:
        raise DimensionError(f"branch dims differ: {prog_a.dim} vs {prog_b.dim}")
    d = prog_a.dim
    amps = np.zeros(2 * d, dtype=complex)
    amps[0::2] = math.cos(theta) * prog_a.state.amplitudes
    amps[1::2] = math.sin(theta) * prog_b.state.amplitudes
    state = StateVector.from_unnormalized(amps)  # unit norm up to float dust

    # The branch matrices go in unchecked: for an interleaved block-diagonal
    # U the largest entry of U U^dag - I is the larger of the two branches'
    # largest entries, so the oracle's own unitarity check covers both.
    def evaluate(x: str, y: str) -> np.ndarray:
        u = np.zeros((2 * d, 2 * d), dtype=complex)
        u[0::2, 0::2] = prog_a.unitaries.evaluate(x, y)
        u[1::2, 1::2] = prog_b.unitaries.evaluate(x, y)
        return u

    return QuantumProgram(state, UnitaryOracle(2 * d, evaluate))


# ---------------------------------------------------------------------------
# config-level pirate specs (used by the CLI)
# ---------------------------------------------------------------------------


SIMPLE_KINDS = ("honest", "anti", "coin")


@dataclass(frozen=True)
class PirateSpec:
    """Declarative pirate description: kind plus parameters.

    A spec is checked when it is made, so a malformed one fails before any
    key or circuit exists.
    """

    kind: str
    eta: float = 0.0
    theta: float = 0.0
    branch_a: str = "honest"
    branch_b: str = "coin"

    def __post_init__(self):
        if self.kind not in SIMPLE_KINDS + ("noisy", "superposed"):
            raise FormatError(f"unknown pirate kind {self.kind!r}")
        for name in ("eta", "theta"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise FormatError(f"pirate {name} must be a real number, got {value!r}")
        if self.kind == "noisy" and not 0.0 <= self.eta <= 1.0:
            raise FormatError(f"noise rate must lie in [0,1], got {self.eta}")
        if self.kind == "superposed":
            for name in (self.branch_a, self.branch_b):
                if name not in SIMPLE_KINDS:
                    raise FormatError(f"superposed branches must be one of {sorted(SIMPLE_KINDS)}, got {name!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "PirateSpec":
        if not isinstance(raw, dict) or "kind" not in raw:
            raise FormatError(f"a pirate spec must be an object with a kind, got {raw!r}")
        known = {"kind", "eta", "theta", "branch_a", "branch_b"}
        extra = set(raw) - known
        if extra:
            raise FormatError(f"unknown pirate spec fields: {sorted(extra)}")
        return cls(**raw)


def build_pirate(spec: PirateSpec, circuit) -> QuantumProgram:
    """Instantiate a spec against a marked circuit."""
    simple = {
        "honest": lambda: honest_pirate(circuit),
        "anti": lambda: anti_pirate(circuit),
        "coin": lambda: coin_pirate(),
    }
    if spec.kind == "noisy":
        return noisy_pirate(circuit, spec.eta)
    if spec.kind == "superposed":
        return superposed_pirate(spec.theta, simple[spec.branch_a](), simple[spec.branch_b]())
    return simple[spec.kind]()
