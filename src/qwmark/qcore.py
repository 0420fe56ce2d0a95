"""Finite-dimensional state vectors, unitary oracles, quantum programs, and
binary projective measurements.

A pirate decoder is modeled as a QuantumProgram: an internal state on a
2^n-dimensional Hilbert space together with a family of unitaries indexed by
classical query pairs (x, y).  The program "answers" a query by applying
U_{x,y} and reading its first qubit, so the projector onto answer b is

    P_{b,x,y} = U_{x,y}^dag (|b><b| (x) I) U_{x,y}.

A distribution's projectors live in one (s, d, d) stack built by
`program_projectors`: the oracle matrices of all s queries are evaluated and
checked for unitarity in one batched product, and `check_projectors` checks
the stack for Hermiticity and idempotence as a whole.

Everything is dense complex numpy; dimensions are desk-scale and capped at
DIMENSION_CAP.
"""

from __future__ import annotations

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

DIMENSION_CAP = 256


def check_dimension(dim: int, *, require_power_of_two: bool = False, what: str = "dimension") -> int:
    if dim < 2:
        raise DimensionError(f"{what} must be >= 2, got {dim}")
    if dim > DIMENSION_CAP:
        raise DimensionCapError(f"{what} {dim} exceeds cap {DIMENSION_CAP}")
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


def check_projectors(stack: np.ndarray) -> np.ndarray:
    """Lock an (s, d, d) stack after checking each member is a projector:
    Hermitian and idempotent within PROJECTOR_TOL."""
    if np.max(np.abs(stack - stack.conj().transpose(0, 2, 1))) > PROJECTOR_TOL:
        raise InvariantError("projector is not Hermitian within tolerance")
    if np.max(np.abs(stack @ stack - stack)) > PROJECTOR_TOL:
        raise InvariantError("projector is not idempotent within tolerance")
    stack.flags.writeable = False
    return stack


def program_projectors(prog: QuantumProgram, triples) -> np.ndarray:
    """Read-only (s, d, d) stack of the accept projectors of (b, x, y) triples.

    P = U^dag Pi_b U where Pi_b keeps the half of the index space whose first
    qubit reads b.  Each member is computed as U_b^dag U_b from the b-half
    rows of U; the whole stack goes through `check_projectors`.
    """
    if not triples:
        raise DimensionError("a projector stack needs at least one triple")
    bits = [b for b, _, _ in triples]
    bad = [b for b in bits if b not in (0, 1)]
    if bad:
        raise InvariantError(f"answer bit must be 0 or 1, got {bad[0]!r}")
    d = prog.dim
    us = prog.unitaries.matrices([(x, y) for _, x, y in triples])
    rows = us.reshape(len(bits), 2, d // 2, d)[np.arange(len(bits)), np.array(bits, dtype=np.intp)]
    return check_projectors(rows.conj().transpose(0, 2, 1) @ rows)
