"""State vectors, oracle unitarity checks, acceptance projectors, and the
memo of checked members."""

from __future__ import annotations

import re

import numpy as np
import pytest

from qwmark import qcore
from qwmark.errors import (
    DegenerateStateError,
    DimensionCapError,
    DimensionError,
    InvariantError,
)

from conftest import (
    accept_probability,
    expectation,
    haar_unitary,
    oracle_matrices,
    per_pair,
    random_program,
    random_triples,
    rng_for,
)


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
        oracle_matrices(bad, [("0", "0")])


def test_unitary_oracle_rechecks_only_new_points():
    calls = []

    def stack(pairs):
        calls.append(pairs)
        return np.eye(2, dtype=complex)[None].repeat(len(pairs), 0)

    oracle = qcore.UnitaryOracle(2, stack)
    oracle_matrices(oracle, [("0", "1")])
    oracle_matrices(oracle, [("0", "1")])
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
        oracle_matrices(oracle, pairs)


def test_oracle_batch_rejects_nan_matrices():
    def build(x, y):
        return np.full((2, 2), np.nan) if y == "1" else np.eye(2)

    oracle = qcore.UnitaryOracle(2, per_pair(build))
    with pytest.raises(InvariantError, match=repr("1")):
        oracle_matrices(oracle, [("0", "0"), ("0", "1")])


def test_oracle_batch_checks_every_pair_on_every_call():
    # the stack runs on every call (there is no cache), and an oracle that turns
    # non-unitary on its second evaluation of a pair is caught on that call
    calls = []

    def build(x, y):
        scale = 2.0 if (x, y) in calls else 1.0
        calls.append((x, y))
        return scale * np.eye(2)

    oracle = qcore.UnitaryOracle(2, per_pair(build))
    assert np.array_equal(oracle_matrices(oracle, [("0", "0"), ("0", "1")]), np.stack([np.eye(2)] * 2))
    with pytest.raises(InvariantError, match=r"\('0', '1'\)"):
        oracle_matrices(oracle, [("1", "1"), ("0", "1")])
    assert calls == [("0", "0"), ("0", "1"), ("1", "1"), ("0", "1")]


def test_oracle_batch_checks_each_pair_once():
    # one call hands the stack every listed pair once, in order, repeats
    # included, and returns the matrices it checked rather than asking again
    calls = []

    def stack(pairs):
        calls.append(pairs)
        return np.stack([(-1.0) ** (r + len(calls)) * np.eye(2) for r in range(len(pairs))])

    pairs = [("0", "0"), ("0", "1"), ("0", "0")]
    mats = oracle_matrices(qcore.UnitaryOracle(2, stack), pairs)
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
            oracle_matrices(qcore.UnitaryOracle(2, stack), [("0", "0"), ("1", "0")])


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


# ---------------------------------------------------------------------------
# the memo of checked members
# ---------------------------------------------------------------------------


def memo_counts() -> tuple[int, int, int]:
    info = qcore._checked_projector.cache_info()
    return info.hits, info.misses, info.currsize


@pytest.mark.parametrize("d", [2, 4, 8])
def test_program_projectors_are_the_same_bytes_with_the_member_memo_cold_and_warm(d):
    # each distribution repeats a pair under both bits, so a warm memo serves
    # members the same call has just computed
    for i in range(6):
        prog = random_program(d, f"qc-memo-{d}-{i}")
        triples = list(random_triples(4, f"qc-memo-{d}-{i}")) * 2
        triples += [(1 - b, x, y) for b, x, y in triples[:2]]
        cold = []
        for _ in range(2):
            qcore._checked_projector.cache_clear()
            cold.append(qcore.program_projectors(prog, triples).tobytes())
        warm = qcore.program_projectors(prog, triples)
        assert cold[0] == cold[1] == warm.tobytes()
        assert not warm.flags.writeable
        assert memo_counts() == (4 + 10, 6, 6)  # 6 distinct members: 4 hits on the cold call, 10 on the warm one


def pair_oracle(bad_pair, bad_matrix, d: int = 2):
    """An identity oracle on every pair but one."""
    return qcore.UnitaryOracle(d, per_pair(lambda x, y: bad_matrix if (x, y) == bad_pair else np.eye(d)))


@pytest.mark.parametrize("bad_matrix", [np.diag([1.0, 2.0]), np.full((2, 2), np.nan)], ids=["non-unitary", "nan"])
def test_a_bad_member_is_refused_on_every_call_naming_its_pair(bad_matrix):
    prog = qcore.QuantumProgram(qcore.StateVector.basis(2, 0), pair_oracle(("01", "1"), bad_matrix))
    triples = [(0, "00", "0"), (1, "01", "1"), (0, "01", "1")]
    for _ in range(3):
        with pytest.raises(InvariantError, match=re.escape("('01', '1') is not unitary")):
            qcore.program_projectors(prog, triples)
    assert memo_counts() == (6, 3, 3)  # the verdict of each distinct member is kept, the projector of none raised


def nearly_unitary_non_projector() -> np.ndarray:
    """A d = 4 matrix U with |U U^dag - I| <= 0.9e-9 entrywise whose b = 0 projector
    U_0^dag U_0 misses idempotence by about 1.8e-9: (I + gJ) H on the first two
    indices, J the all-ones 2x2 and H the Hadamard."""
    g = 0.45e-9
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    u = np.eye(4, dtype=complex)
    u[:2, :2] = (np.eye(2) + g * np.ones((2, 2))) @ hadamard
    return u


def test_a_unitary_member_that_is_no_projector_raises_on_every_call():
    u = nearly_unitary_non_projector()
    assert np.abs(u @ u.conj().T - np.eye(4)).max() <= qcore.UNITARY_TOL
    prog = qcore.QuantumProgram(qcore.StateVector.basis(4, 0), pair_oracle(("1", "0"), u, 4))
    assert qcore.program_projectors(prog, [(1, "1", "0")]).shape == (1, 4, 4)  # its b = 1 half is a projector
    for _ in range(2):
        with pytest.raises(InvariantError, match="idempotent"):
            qcore.program_projectors(prog, [(0, "0", "0"), (0, "1", "0")])
    assert memo_counts() == (1, 4, 2)  # the identity's member was kept, the raised one missed both times


def test_the_oracle_stack_runs_once_per_call_with_a_warm_memo():
    calls = []

    def stack(pairs):
        calls.append(list(pairs))
        return np.eye(2, dtype=complex)[None].repeat(len(pairs), 0)

    prog = qcore.QuantumProgram(qcore.StateVector.basis(2, 0), qcore.UnitaryOracle(2, stack))
    triples = [(0, "0", "1"), (1, "1", "1"), (0, "0", "1")]
    for _ in range(3):
        qcore.program_projectors(prog, triples)
    assert calls == [[("0", "1"), ("1", "1"), ("0", "1")]] * 3
    assert memo_counts() == (7, 2, 2)


def test_member_memo_is_bounded_least_recently_used_out():
    prog = qcore.QuantumProgram(
        qcore.StateVector.basis(2, 0),
        qcore.UnitaryOracle(2, per_pair(lambda x, y: np.diag([1.0, np.exp(1j * int(x, 2) / 1024)]))),
    )
    first = qcore.program_projectors(prog, [(0, "0", "0")])
    for i in range(1, qcore.PROJECTOR_MEMO + 1):
        qcore.program_projectors(prog, [(0, format(i, "b"), "0")])
    assert memo_counts() == (0, qcore.PROJECTOR_MEMO + 1, qcore.PROJECTOR_MEMO)
    again = qcore.program_projectors(prog, [(0, "0", "0")])  # the least recently used, so gone
    assert memo_counts()[1] == qcore.PROJECTOR_MEMO + 2
    assert again.tobytes() == first.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        again[0, 0, 0] = 0
