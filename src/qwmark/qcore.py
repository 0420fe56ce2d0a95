"""Finite-dimensional state vectors, unitary oracles, quantum programs, and
binary projective measurements.

A pirate decoder is modeled as a QuantumProgram: an internal state on a
2^n-dimensional Hilbert space together with a family of unitaries indexed by
classical query pairs (x, y).  The program "answers" a query by applying
U_{x,y} and reading its first qubit, so the projector onto answer b is

    P_{b,x,y} = U_{x,y}^dag (|b><b| (x) I) U_{x,y}.

A distribution's projectors live in one (s, d, d) stack built by
`program_projectors`: the oracle returns the matrices of all s queries in one
call, and each member's projector comes from a bounded memo keyed by the bytes
of its matrix and its answer bit.  A miss checks that member for unitarity and
with `check_projectors`; a hit, on byte-identical input, returns the same bytes.

Everything is dense complex numpy; dimensions are desk-scale and capped at
DIMENSION_CAP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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
PROJECTOR_MEMO = 256  # checked member projectors kept
MEMO_DIM = 16  # the memos keep inputs of at most this dimension, so each stays under 4 MiB; larger ones are not kept


def check_dimension(dim: int, *, require_power_of_two: bool = False, what: str = "dimension") -> int:
    if dim < 2:
        raise DimensionError(f"{what} must be >= 2, got {dim}")
    if dim > DIMENSION_CAP:
        raise DimensionCapError(f"{what} {dim} exceeds cap {DIMENSION_CAP}")
    if require_power_of_two and dim & (dim - 1):
        raise DimensionError(f"{what} must be a power of two, got {dim}")
    return dim


def _norm(amps: np.ndarray) -> float:
    """Euclidean norm of a complex vector by `np.linalg.norm`'s own formula,
    without its argument dispatch."""
    re, im = amps.real, amps.imag
    return math.sqrt(re.dot(re) + im.dot(im))


@dataclass(frozen=True)
class StateVector:
    """Unit vector of complex amplitudes.  Immutable: the array is locked."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        check_dimension(amps.size, what="state dimension")
        norm = _norm(amps)
        if not (abs(norm - 1.0) <= NORM_TOL):
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
        """The state amps / ||amps||, from one norm and one new array.

        This is the unit-norm check: a finite norm of at least 1e-12 leaves
        the quotient of unit norm to within d rounding errors, far inside
        NORM_TOL, while a NaN, zero or overflowed norm is refused.
        """
        amps = np.asarray(amps, dtype=complex).reshape(-1)
        check_dimension(amps.size, what="state dimension")
        norm = _norm(amps)
        if not (1e-12 <= norm < math.inf):
            raise DegenerateStateError(f"cannot normalize a vector of norm {norm!r}")
        amps = amps / norm
        amps.flags.writeable = False
        state = object.__new__(cls)
        object.__setattr__(state, "amplitudes", amps)
        return state


@dataclass(frozen=True)
class UnitaryOracle:
    """Query-indexed unitary family U_{x,y}, evaluated a batch at a time.

    `stack(pairs)` returns the (len(pairs), d, d) array of U_{x,y} over a list
    of query pairs, in order.  It must be referentially transparent: the same
    pair gives the same matrix wherever it stands in a batch.  Every matrix it
    returns is checked by the bytes it holds, so an oracle that breaks that
    rule is caught on the first call that returns a non-unitary matrix.
    """

    dim: int
    stack: Callable[[list[tuple[str, str]]], np.ndarray]


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
    if not (np.abs(stack - stack.conj().transpose(0, 2, 1)).max() <= PROJECTOR_TOL):
        raise InvariantError("projector is not Hermitian within tolerance")
    if not (np.abs(stack @ stack - stack).max() <= PROJECTOR_TOL):
        raise InvariantError("projector is not idempotent within tolerance")
    stack.flags.writeable = False
    return stack


@lru_cache(maxsize=PROJECTOR_MEMO)
def _checked_projector(u: bytes, dim: int, b: int) -> bytes | None:
    """The bytes of the accept projector U_b^dag U_b of one oracle matrix U,
    given as the bytes of its complex (dim, dim) array, once `check_projectors`
    has passed it; None when U is not unitary within UNITARY_TOL."""
    mat = np.frombuffer(u, dtype=complex).reshape(dim, dim)
    if not (np.abs(mat @ mat.conj().T - np.eye(dim)).max() <= UNITARY_TOL):
        return None
    rows = mat[b * (dim // 2) : (b + 1) * (dim // 2)]
    return check_projectors((rows.conj().T @ rows)[None]).tobytes()


def program_projectors(prog: QuantumProgram, triples) -> np.ndarray:
    """Read-only (s, d, d) stack of the accept projectors of (b, x, y) triples.

    P = U^dag Pi_b U where Pi_b keeps the half of the index space whose first
    qubit reads b, computed as U_b^dag U_b from the b-half rows of U.  The
    oracle's `stack` runs once; each member, in order, is checked for
    unitarity and then as a projector, or found checked in the memo.
    """
    if not triples:
        raise DimensionError("a projector stack needs at least one triple")
    bits = [b for b, _, _ in triples]
    bad = [b for b in bits if b not in (0, 1)]
    if bad:
        raise InvariantError(f"answer bit must be 0 or 1, got {bad[0]!r}")
    d = prog.dim
    pairs = [(x, y) for _, x, y in triples]
    mats = np.asarray(prog.unitaries.stack(pairs), dtype=complex)
    if mats.shape != (len(pairs), d, d):
        raise DimensionError(f"oracle returned shape {mats.shape}, expected {(len(pairs), d, d)}")
    raw, size = mats.tobytes(), mats.itemsize * d * d
    checked = _checked_projector if d <= MEMO_DIM else _checked_projector.__wrapped__
    members = [checked(raw[r * size : (r + 1) * size], d, b) for r, b in enumerate(bits)]
    if None in members:
        x, y = pairs[members.index(None)]
        raise InvariantError(f"oracle matrix for ({x!r}, {y!r}) is not unitary")
    return np.frombuffer(b"".join(members), dtype=complex).reshape(len(pairs), d, d)
