"""Shared fixtures: deterministic rngs, a small watermarking stack, a
reusable random-program builder for measurement tests, and the dense
operators of the API walk on H_R (x) H."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from scipy.linalg import block_diag

from qwmark import elwm, wmprf
from qwmark.crypto import keyed_rand
from qwmark.qcore import BinaryProjector, QuantumProgram, StateVector, UnitaryOracle

settings.register_profile("repo", derandomize=True, max_examples=25)
settings.load_profile("repo")


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def rng_for(label: str) -> np.random.Generator:
    return np.random.default_rng(int(keyed_rand(b"test-streams", label.encode(), 64), 2))


def random_state(dim: int, rng) -> StateVector:
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector.from_unnormalized(amps)


def haar_unitary(dim: int, rng) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_program(dim: int, seed: str) -> QuantumProgram:
    """Program with Haar-ish unitaries, deterministic per (x, y) query."""
    base = rng_for(f"prog-state-{seed}")
    state = random_state(dim, base)

    def evaluate(x: str, y: str) -> np.ndarray:
        local = rng_for(f"prog-u-{seed}-{x}-{y}")
        return haar_unitary(dim, local)

    return QuantumProgram(state, UnitaryOracle(dim, evaluate))


def random_triples(s: int, seed: str, x_bits: int = 6, y_bits: int = 4):
    """Abstract triple list; the labels only key the unitary oracle."""
    local = rng_for(f"triples-{seed}")
    triples = []
    for _ in range(s):
        gamma = int(local.integers(0, 2))
        x = "".join(str(b) for b in local.integers(0, 2, size=x_bits))
        y = "".join(str(b) for b in local.integers(0, 2, size=y_bits))
        triples.append((gamma, x, y))
    return tuple(triples)


class FakeDistribution:
    """Duck-typed stand-in for TripleDistribution in measurement-only tests."""

    def __init__(self, triples):
        self.triples = tuple(triples)
        self.s = len(self.triples)
        self.kind = "fake"


def dense_cproj(stack: np.ndarray) -> BinaryProjector:
    """CProj^1 of an (s, d, d) projector stack as a block-diagonal projector on H_R (x) H."""
    return BinaryProjector(block_diag(*stack))


def apply_accept(stack: np.ndarray, mat: np.ndarray, reverse: bool) -> np.ndarray:
    """CProj^1 (CProj^0 when reverse) applied to an (s, d) state on H_R (x) H.

    Row r of the state is its H-component under coin r, and stack[r] is the
    accept projector of coin r.
    """
    branch = np.matmul(stack, mat[:, :, None])[:, :, 0]
    return mat - branch if reverse else branch


def dense_isu(s: int, d: int) -> BinaryProjector:
    """IsU = |1_R><1_R| (x) I on H_R (x) H."""
    return BinaryProjector(np.kron(np.full((s, s), 1.0 / s, dtype=complex), np.eye(d)))


@pytest.fixture(scope="session")
def small_stack():
    """A tiny but complete watermarking instance shared by read-only tests."""
    gen_rng = rng_for("small-stack")
    k = 3
    params = wmprf.ExtractParams(k=k, eps=0.25, delta_prime=0.05, s=8, engine="fast")
    ep = elwm.ElwmParams(k + 1, seed_bits=6, range_bits=12)
    prfk, tag = wmprf.wm_gen(params, ep, gen_rng)
    coin_key = elwm.new_coin_key(gen_rng)
    message = "101"
    circuit = wmprf.wm_mark(prfk, message)
    return {
        "params": params,
        "elwm_params": ep,
        "prfk": prfk,
        "tag": tag,
        "coin_key": coin_key,
        "message": message,
        "circuit": circuit,
    }
