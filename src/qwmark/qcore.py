"""Finite-dimensional state vectors, unitary oracles, quantum programs, and
binary projective measurements.

A pirate decoder is modeled as a QuantumProgram: an internal state on a
2^n-dimensional Hilbert space together with a family of unitaries indexed by
classical query pairs (x, y).  The program "answers" a query by applying
U_{x,y} and reading its first qubit, so the projector onto answer b is

    P_{b,x,y} = U_{x,y}^dag (|b><b| (x) I) U_{x,y}.

A distribution's projectors live in one (s, d, d) stack built by
`program_projectors`: the oracle matrices of all s queries are evaluated and
checked for unitarity in one batched product, and the stack is checked for
Hermiticity and idempotence as a whole, at the same tolerances as a single
`BinaryProjector`.

Everything is dense complex numpy; dimensions are desk-scale and capped
(default 256, override via the QWMARK_DIM_CAP environment variable).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DegenerateStateError,
    DimensionCapError,
    DimensionError,
    InvariantError,
)

NORM_TOL = 1e-10
UNITARY_TOL = 1e-9
PROJECTOR_TOL = 1e-9

DEFAULT_DIMENSION_CAP = 256
DIM_CAP_ENV_VAR = "QWMARK_DIM_CAP"


def dimension_cap() -> int:
    """Current Hilbert-space dimension cap (env var override wins)."""
    raw = os.environ.get(DIM_CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_DIMENSION_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise DimensionCapError(f"{DIM_CAP_ENV_VAR} must be an integer, got {raw!r}") from exc
    if cap < 2:
        raise DimensionCapError(f"{DIM_CAP_ENV_VAR} must be >= 2, got {cap}")
    return cap


def check_dimension(dim: int, *, require_power_of_two: bool = False, what: str = "dimension") -> int:
    if dim < 2:
        raise DimensionError(f"{what} must be >= 2, got {dim}")
    if dim > dimension_cap():
        raise DimensionCapError(f"{what} {dim} exceeds cap {dimension_cap()}")
    if require_power_of_two and dim & (dim - 1):
        raise DimensionError(f"{what} must be a power of two, got {dim}")
    return dim


@dataclass(frozen=True)
class StateVector:
    """Unit vector of complex amplitudes.  Immutable: the array is locked."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        check_dimension(amps.size, what="state dimension")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise DegenerateStateError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @classmethod
    def basis(cls, dim: int, index: int) -> "StateVector":
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    @classmethod
    def from_unnormalized(cls, amps: np.ndarray) -> "StateVector":
        amps = np.asarray(amps, dtype=complex).reshape(-1)
        norm = np.linalg.norm(amps)
        if norm < 1e-12:
            raise DegenerateStateError("cannot normalize a (numerically) zero vector")
        return cls(amps / norm)

    def inner(self, other: "StateVector") -> complex:
        if self.dim != other.dim:
            raise DimensionError(f"inner product of dims {self.dim} and {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class BinaryProjector:
    """Hermitian idempotent matrix; the accept operator of a yes/no measurement."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionError(f"projector must be square, got shape {mat.shape}")
        check_dimension(mat.shape[0], what="projector dimension")
        if np.max(np.abs(mat - mat.conj().T)) > PROJECTOR_TOL:
            raise InvariantError("projector is not Hermitian within tolerance")
        if np.max(np.abs(mat @ mat - mat)) > PROJECTOR_TOL:
            raise InvariantError("projector is not idempotent within tolerance")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def expectation(self, state: StateVector) -> float:
        if state.dim != self.dim:
            raise DimensionError(f"projector dim {self.dim} vs state dim {state.dim}")
        val = float(np.real(np.vdot(state.amplitudes, self.matrix @ state.amplitudes)))
        # quadratic form of a projector: clamp float dust at the interval ends
        return min(1.0, max(0.0, val))


@dataclass(frozen=True)
class UnitaryOracle:
    """Query-indexed unitary family U_{x,y}.

    `evaluate` must be referentially transparent: same (x, y), same matrix.
    Unitarity is checked on first use of each query pair.
    """

    dim: int
    evaluate: Callable[[str, str], np.ndarray]
    _checked: set = field(default_factory=set, repr=False, compare=False)

    def matrices(self, pairs) -> np.ndarray:
        """(n, d, d) stack of U_{x,y} over the query pairs, in order.

        The pairs not checked before are checked for unitarity in one
        batched product and then remembered.
        """
        pairs = list(pairs)
        try:
            mats = np.array([self.evaluate(x, y) for x, y in pairs], dtype=complex, ndmin=3)
        except ValueError as exc:
            raise DimensionError(f"oracle returned matrices of differing shapes: {exc}") from exc
        if mats.shape != (len(pairs), self.dim, self.dim):
            raise DimensionError(f"oracle returned shape {mats.shape[1:]}, expected {(self.dim, self.dim)}")
        fresh = [i for i, pair in enumerate(pairs) if pair not in self._checked]
        if fresh:
            u = mats[fresh]
            dev = np.abs(u @ u.conj().transpose(0, 2, 1) - np.eye(self.dim)).max(axis=(1, 2))
            bad = np.flatnonzero(dev > UNITARY_TOL)
            if bad.size:
                x, y = pairs[fresh[bad[0]]]
                raise InvariantError(f"oracle matrix for ({x!r}, {y!r}) is not unitary")
            self._checked.update(pairs[i] for i in fresh)
        return mats

    def matrix(self, x: str, y: str) -> np.ndarray:
        return self.matrices([(x, y)])[0]


@dataclass(frozen=True)
class QuantumProgram:
    """Pirate decoder: internal state plus query-indexed unitaries.

    The output register is the first qubit (most significant index bit).
    """

    state: StateVector
    unitaries: UnitaryOracle

    def __post_init__(self):
        if self.state.dim != self.unitaries.dim:
            raise DimensionError(
                f"state dim {self.state.dim} vs oracle dim {self.unitaries.dim}"
            )
        check_dimension(self.state.dim, require_power_of_two=True, what="program dimension")

    @property
    def dim(self) -> int:
        return self.state.dim

    def with_state(self, state: StateVector) -> "QuantumProgram":
        return QuantumProgram(state, self.unitaries)


def program_projectors(prog: QuantumProgram, triples) -> np.ndarray:
    """Read-only (s, d, d) stack of the accept projectors of (b, x, y) triples.

    P = U^dag Pi_b U where Pi_b keeps the half of the index space whose first
    qubit reads b.  Each member is computed as U_b^dag U_b from the b-half
    rows of U; the whole stack is checked for Hermiticity and idempotence.
    """
    if not triples:
        raise DimensionError("a projector stack needs at least one triple")
    bits = [b for b, _, _ in triples]
    bad = [b for b in bits if b not in (0, 1)]
    if bad:
        raise InvariantError(f"answer bit must be 0 or 1, got {bad[0]!r}")
    d = check_dimension(prog.dim, what="projector dimension")
    us = prog.unitaries.matrices([(x, y) for _, x, y in triples])
    rows = us.reshape(len(bits), 2, d // 2, d)[np.arange(len(bits)), np.array(bits, dtype=np.intp)]
    stack = rows.conj().transpose(0, 2, 1) @ rows
    if np.max(np.abs(stack - stack.conj().transpose(0, 2, 1))) > PROJECTOR_TOL:
        raise InvariantError("projector is not Hermitian within tolerance")
    if np.max(np.abs(stack @ stack - stack)) > PROJECTOR_TOL:
        raise InvariantError("projector is not idempotent within tolerance")
    stack.flags.writeable = False
    return stack


def program_projector(prog: QuantumProgram, b: int, x: str, y: str) -> BinaryProjector:
    """Projector onto the program answering b on query (x, y)."""
    return BinaryProjector(program_projectors(prog, [(b, x, y)])[0])
