"""State vectors, oracle unitarity checks, and acceptance projectors."""

from __future__ import annotations

import numpy as np
import pytest

from qwmark import qcore
from qwmark.errors import (
    DegenerateStateError,
    DimensionCapError,
    DimensionError,
    InvariantError,
)

from conftest import accept_probability, expectation, haar_unitary, per_pair, random_program, rng_for


def test_state_vector_validation():
    with pytest.raises(DegenerateStateError):
        qcore.StateVector(np.array([1.0, 1.0]))
    with pytest.raises(DimensionError):
        qcore.StateVector(np.array([1.0]))
    psi = qcore.StateVector(np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.5


def test_state_vector_rejects_nan():
    with pytest.raises(DegenerateStateError):
        qcore.StateVector(np.array([np.nan, 0j]))
    with pytest.raises(DegenerateStateError):
        qcore.StateVector.from_unnormalized(np.array([np.nan, 1.0]))


def test_state_vector_helpers():
    psi = qcore.StateVector.basis(8, 3)
    assert np.array_equal(psi.amplitudes, np.eye(8)[3])

    raw = np.array([3.0, 4.0])
    fixed = qcore.StateVector.from_unnormalized(raw)
    assert abs(np.linalg.norm(fixed.amplitudes) - 1.0) < 1e-12
    with pytest.raises(DegenerateStateError):
        qcore.StateVector.from_unnormalized(np.zeros(4))


def test_from_unnormalized_owns_a_locked_unit_array_and_refuses_overflow():
    raw = np.array([3.0 + 1j, 4.0, 0.0, -2j])
    state = qcore.StateVector.from_unnormalized(raw)
    assert state.amplitudes.tobytes() == (raw / np.linalg.norm(raw)).tobytes()
    assert not np.shares_memory(state.amplitudes, raw)
    assert not state.amplitudes.flags.writeable
    qcore.StateVector(state.amplitudes)  # passes the constructor's own unit-norm check
    # the squares overflow, so the norm is inf and the quotient would be zeros
    for bad in (np.array([1e200, 1e200]), np.array([np.inf, 1.0])):
        with np.errstate(over="ignore"), pytest.raises(DegenerateStateError):
            qcore.StateVector.from_unnormalized(bad)
    with pytest.raises(DimensionError):
        qcore.StateVector.from_unnormalized(np.array([2.0]))


def test_dimension_cap():
    assert qcore.check_dimension(qcore.DIMENSION_CAP) == qcore.DIMENSION_CAP
    with pytest.raises(DimensionCapError):
        qcore.check_dimension(2 * qcore.DIMENSION_CAP)


def test_check_dimension_power_of_two():
    with pytest.raises(DimensionError):
        qcore.check_dimension(6, require_power_of_two=True)
    qcore.check_dimension(6)


def test_check_projectors_rejects_non_projectors():
    # a Hermitian non-idempotent member and an idempotent non-Hermitian one,
    # each caught at every position of the stack
    for member, message in ((np.diag([0.5, 0.0]), "idempotent"), (np.array([[1.0, 1.0], [0.0, 0.0]]), "Hermitian")):
        for position in range(3):
            stack = np.stack([np.diag([1.0, 0.0])] * 3).astype(complex)
            stack[position] = member
            with pytest.raises(InvariantError, match=message):
                qcore.check_projectors(stack)
    stack = np.stack([np.diag([1.0, 0.0]), np.eye(2)]).astype(complex)
    assert qcore.check_projectors(stack) is stack and not stack.flags.writeable


def test_check_projectors_rejects_nan():
    stack = np.stack([np.diag([1.0, 0.0]), np.full((2, 2), np.nan)]).astype(complex)
    with pytest.raises(InvariantError):
        qcore.check_projectors(stack)


def test_projector_expectation():
    p = np.diag([1.0, 0.0, 1.0, 0.0])
    psi = qcore.StateVector(np.array([0.6, 0.8, 0.0, 0.0]))
    assert abs(expectation(p, psi) - 0.36) < 1e-12


def test_unitary_oracle_rejects_non_unitary():
    bad = qcore.UnitaryOracle(2, per_pair(lambda x, y: np.array([[1.0, 0.0], [0.0, 2.0]])))
    with pytest.raises(InvariantError):
        bad.matrices([("0", "0")])


def test_unitary_oracle_rechecks_only_new_points():
    calls = []

    def stack(pairs):
        calls.append(pairs)
        return np.eye(2, dtype=complex)[None].repeat(len(pairs), 0)

    oracle = qcore.UnitaryOracle(2, stack)
    oracle.matrices([("0", "1")])
    oracle.matrices([("0", "1")])
    # the stack runs on every call (no matrix cache) but both calls succeed
    assert calls == [[("0", "1")], [("0", "1")]]


@pytest.mark.parametrize("position", range(4))
def test_oracle_batch_rejects_non_unitary_at_any_position(position):
    pairs = [("0", format(i, "02b")) for i in range(4)]
    bad_y = pairs[position][1]

    def build(x, y):
        return np.diag([1.0, 2.0]) if y == bad_y else np.eye(2)

    oracle = qcore.UnitaryOracle(2, per_pair(build))
    with pytest.raises(InvariantError, match=repr(bad_y)):
        oracle.matrices(pairs)


def test_oracle_batch_rejects_nan_matrices():
    def build(x, y):
        return np.full((2, 2), np.nan) if y == "1" else np.eye(2)

    oracle = qcore.UnitaryOracle(2, per_pair(build))
    with pytest.raises(InvariantError, match=repr("1")):
        oracle.matrices([("0", "0"), ("0", "1")])


def test_oracle_batch_checks_every_pair_on_every_call():
    # the stack runs on every call (there is no cache), and an oracle that turns
    # non-unitary on its second evaluation of a pair is caught on that call
    calls = []

    def build(x, y):
        scale = 2.0 if (x, y) in calls else 1.0
        calls.append((x, y))
        return scale * np.eye(2)

    oracle = qcore.UnitaryOracle(2, per_pair(build))
    assert np.array_equal(oracle.matrices([("0", "0"), ("0", "1")]), np.stack([np.eye(2)] * 2))
    with pytest.raises(InvariantError, match=r"\('0', '1'\)"):
        oracle.matrices([("1", "1"), ("0", "1")])
    assert calls == [("0", "0"), ("0", "1"), ("1", "1"), ("0", "1")]


def test_oracle_batch_checks_each_pair_once():
    # one call hands the stack every listed pair once, in order, repeats
    # included, and returns the matrices it checked rather than asking again
    calls = []

    def stack(pairs):
        calls.append(pairs)
        return np.stack([(-1.0) ** (r + len(calls)) * np.eye(2) for r in range(len(pairs))])

    pairs = [("0", "0"), ("0", "1"), ("0", "0")]
    mats = qcore.UnitaryOracle(2, stack).matrices(pairs)
    assert calls == [pairs]
    assert np.array_equal(mats, np.stack([-np.eye(2), np.eye(2), -np.eye(2)]))


def test_oracle_batch_rejects_wrong_shapes():
    stacks = (
        lambda pairs: np.eye(4)[None].repeat(len(pairs), 0),  # members of the wrong dimension
        lambda pairs: np.eye(2)[None].repeat(len(pairs) + 1, 0),  # one member too many
        lambda pairs: np.eye(2),  # no batch axis
    )
    for stack in stacks:
        with pytest.raises(DimensionError):
            qcore.UnitaryOracle(2, stack).matrices([("0", "0"), ("1", "0")])


def test_program_projector_is_a_slice_of_the_stack():
    prog = random_program(8, "qc-stack")
    triples = [(b, format(i, "03b"), "10") for i, b in enumerate((0, 1, 1, 0, 1, 0))]
    stack = qcore.program_projectors(prog, triples)
    assert stack.shape == (6, 8, 8) and not stack.flags.writeable
    for r, (b, x, y) in enumerate(triples):
        assert np.array_equal(qcore.program_projectors(prog, [(b, x, y)])[0], stack[r])
        # the per-triple product that preceded the batched one
        rows = prog.unitaries.stack([(x, y)])[0, b * 4 : (b + 1) * 4, :]
        assert np.array_equal(rows.conj().T @ rows, stack[r])
    with pytest.raises(InvariantError):
        qcore.program_projectors(prog, [(1, "0", "1"), (2, "0", "1")])
    with pytest.raises(DimensionError):
        qcore.program_projectors(prog, [])


def test_program_projector_shape_and_idempotence():
    prog = random_program(8, "qc-proj")
    for b in (0, 1):
        m = qcore.program_projectors(prog, [(b, "0110", "101")])[0]
        assert m.shape == (8, 8)
        assert np.allclose(m, m.conj().T)
        assert np.allclose(m @ m, m, atol=1e-10)


def test_program_projector_completeness():
    # accepting b and accepting 1-b partition the space for fixed (x, y)
    prog = random_program(4, "qc-complete")
    p0, p1 = qcore.program_projectors(prog, [(0, "00", "1"), (1, "00", "1")])
    assert np.allclose(p0 + p1, np.eye(4), atol=1e-10)


def test_program_projector_output_register_is_first_qubit():
    # oracle X on the first qubit of dim 4: |00>,|01> map to |10>,|11>,
    # so measuring the output register after U always yields 1 from |0b>
    x_first = np.zeros((4, 4))
    x_first[0, 2] = x_first[1, 3] = x_first[2, 0] = x_first[3, 1] = 1.0
    prog = qcore.QuantumProgram(
        qcore.StateVector.basis(4, 0),
        qcore.UnitaryOracle(4, per_pair(lambda x, y: x_first)),
    )
    assert abs(accept_probability(prog, 1, "0", "0") - 1.0) < 1e-12
    assert abs(accept_probability(prog, 0, "0", "0")) < 1e-12


def test_classical_answer_program_expectation():
    # U = X^{a(x,y)} on a one-qubit program: expectation of the accept
    # projector equals the classical indicator exactly
    def build(x, y):
        a = (int(x, 2) + int(y, 2)) % 2
        u = np.eye(2) if a == 0 else np.array([[0.0, 1.0], [1.0, 0.0]])
        return u.astype(complex)

    prog = qcore.QuantumProgram(qcore.StateVector.basis(2, 0), qcore.UnitaryOracle(2, per_pair(build)))
    for xv in range(4):
        for yv in range(2):
            x, y = format(xv, "02b"), format(yv, "01b")
            a = (xv + yv) % 2
            got = accept_probability(prog, 1, x, y)
            assert abs(got - a) < 1e-12


def test_with_state_preserves_oracle():
    prog = random_program(4, "qc-withstate")
    fresh = prog.with_state(qcore.StateVector.basis(4, 2))
    assert fresh.unitaries is prog.unitaries
    assert np.allclose(fresh.state.amplitudes, qcore.StateVector.basis(4, 2).amplitudes)


def test_haar_unitary_fixture_is_unitary():
    u = haar_unitary(6, rng_for("qc-haar"))
    assert np.allclose(u @ u.conj().T, np.eye(6), atol=1e-10)
