"""Shared fixtures: deterministic rngs, the string forms of the PRG, the
keyed coins and Sim, a small watermarking stack, a reusable random-program
builder for measurement tests, an oracle's checked matrices, the dense
operators of the API walk on H_R (x) H, a measurement oracle, and empty
measurement memos before every test."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from scipy.linalg import block_diag

from qwmark import crypto, elwm, pe, qcore, spectral, wmprf
from qwmark.crypto import _keyed_coins, _prg, _stream, check_bits, int_to_bits
from qwmark.errors import IndexRangeError, InvariantError, LengthError
from qwmark.qcore import QuantumProgram, StateVector, UnitaryOracle, check_projectors, program_projectors
from spectral_oracles import spectral_measurement

settings.register_profile("repo", derandomize=True, max_examples=25)
settings.load_profile("repo")

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(cache: Path, path: Path | None = None) -> dict:
    """Environment of a child Python that imports this checkout and caches the native walk under `cache`.

    `path`, if given, replaces PATH, so that no compiler need be on it.
    """
    env = dict(os.environ, XDG_CACHE_HOME=str(cache))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    if path is not None:
        env["PATH"] = str(path)
    return env


@pytest.fixture(autouse=True)
def cold_spectral_memo():
    """Every test starts with empty projector, spectral and PRG memos, so no
    result or count depends on test order."""
    crypto._prg.cache_clear()
    qcore._checked_projector.cache_clear()
    spectral._spectrum.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def rng_for(label: str) -> np.random.Generator:
    return np.random.default_rng(_keyed_coins(b"test-streams", label.encode(), 64))


def bytes_to_bits(data: bytes, length: int) -> str:
    """The first `length` bits of `data`, as a bit string."""
    assert len(data) * 8 >= length
    return int_to_bits(int.from_bytes(data, "big") >> (len(data) * 8 - length), length)


def prg_expand(seed: bytes, out_bits: int, *, domain: bytes = b"prg") -> str:
    """Expand a byte seed to `out_bits` pseudorandom bits: SHA256(domain || seed || ctr) blocks, truncated."""
    if out_bits < 0:
        raise LengthError("out_bits must be nonnegative")
    return int_to_bits(_stream(seed, out_bits, domain), out_bits)


def keyed_rand(key: bytes, label: bytes, out_bits: int) -> str:
    """Deterministic keyed coin derivation: one key, disjoint labels, fresh-looking coins."""
    return prg_expand(key + b"#" + label, out_bits, domain=b"coin")


def sim(params: elwm.ElwmParams, tag: elwm.TagIo, i: int, coins: str) -> tuple[int, str, str]:
    """Simulate one marker-revealing triple for message position i (1-based).

    coins supply gamma, the PRG seed s, and the encryption seed; the output
    is (gamma, Enc(ek, s || i || gamma), PRG(s)).
    """
    if not (1 <= i <= params.msg_bits):
        raise IndexRangeError(f"index {i} outside 1..{params.msg_bits}")
    check_bits(coins, elwm.sim_coin_bits(params), what="sim coins")
    return elwm._sim(params, tag.pe_ek.circuit, i, int(coins, 2))


def marked_run(circuit: elwm.MarkedEvalCircuit, x: str) -> str:
    """D(x) of the marked circuit one query at a time, as ``run`` answered before it answered whole batches: the
    oracle the batch is checked against.  It checks x, reads the plaintext memo or decrypts, tests the tail, and
    answers PRG(s) where the mark bites, else F(x) from the leaf memo or a walk."""
    n, keys, tail, tail_mask, bites, seed_bits, range_bits, root, out = circuit._constants
    value = int(check_bits(x, n, what="PRF input"), 2)
    (d,) = pe._decrypt(circuit.pe_dk, (value,), keys)  # d = s || idx || gamma
    if d is not None and d & tail_mask in bites:
        return format(_prg(d >> tail, seed_bits, range_bits), out)
    return format(crypto._ggm_leaf(root, value, n, range_bits), out)


def prg_bits(seed: str, out_bits: int) -> str:
    """The bit-level PRG of `crypto._prg` on a bit string, as a bit string."""
    return int_to_bits(_prg(int(seed or "0", 2), len(seed), out_bits), out_bits)


def random_state(dim: int, rng) -> StateVector:
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector.from_unnormalized(amps)


def haar_unitary(dim: int, rng) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def per_pair(evaluate):
    """An oracle `stack` built one pair at a time from the rule evaluate(x, y)."""
    return lambda pairs: np.array([evaluate(x, y) for x, y in pairs], dtype=complex)


def oracle_matrices(oracle: UnitaryOracle, pairs) -> np.ndarray:
    """The (n, d, d) stack one call of the oracle's `stack` returns over the
    query pairs, once `program_projectors` has checked every member of it."""
    pairs, returned = list(pairs), []

    def stack(batch):
        returned.append(oracle.stack(batch))
        return returned[-1]

    prog = QuantumProgram(StateVector.basis(oracle.dim, 0), UnitaryOracle(oracle.dim, stack))
    program_projectors(prog, [(0, x, y) for x, y in pairs])
    return np.asarray(returned[0], dtype=complex)


def random_program(dim: int, seed: str) -> QuantumProgram:
    """Program with Haar-ish unitaries, deterministic per (x, y) query."""
    base = rng_for(f"prog-state-{seed}")
    state = random_state(dim, base)

    def evaluate(x: str, y: str) -> np.ndarray:
        local = rng_for(f"prog-u-{seed}-{x}-{y}")
        return haar_unitary(dim, local)

    return QuantumProgram(state, UnitaryOracle(dim, per_pair(evaluate)))


def malformed_bits(n: int) -> tuple[str, ...]:
    """Inputs that are not n bits of '0'/'1', though int(x, 2) takes the first three."""
    return ("1_" + "0" * (n - 2), " " + "0" * (n - 1), "+" + "0" * (n - 1), "2" + "0" * (n - 1))


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


def FakeDistribution(triples) -> tuple:
    """A distribution for measurement-only tests: the tuple of its (b, x, y)
    triples, the same value `elwm.build_distribution` returns."""
    return tuple(triples)


def dense_cproj(stack: np.ndarray) -> np.ndarray:
    """CProj^1 of an (s, d, d) projector stack as a block-diagonal projector on H_R (x) H."""
    return check_projectors(block_diag(*stack)[None])[0]


def apply_accept(stack: np.ndarray, mat: np.ndarray, reverse: bool) -> np.ndarray:
    """CProj^1 (CProj^0 when reverse) applied to an (s, d) state on H_R (x) H.

    Row r of the state is its H-component under coin r, and stack[r] is the
    accept projector of coin r.
    """
    branch = np.matmul(stack, mat[:, :, None])[:, :, 0]
    return mat - branch if reverse else branch


def dense_isu(s: int, d: int) -> np.ndarray:
    """IsU = |1_R><1_R| (x) I on H_R (x) H."""
    return check_projectors(np.kron(np.full((s, s), 1.0 / s, dtype=complex), np.eye(d))[None])[0]


def expectation(proj: np.ndarray, state: StateVector) -> float:
    """<psi|P|psi> of a projector, clamped to [0, 1] against float dust."""
    val = float(np.real(np.vdot(state.amplitudes, proj @ state.amplitudes)))
    return min(1.0, max(0.0, val))


def accept_probability(prog: QuantumProgram, b: int, x: str, y: str) -> float:
    """Probability that the program answers b on query (x, y)."""
    return expectation(program_projectors(prog, [(b, x, y)])[0], prog.state)


def projimp_bernoulli_check(accept: np.ndarray, state: StateVector) -> float:
    """Acceptance probability of projimp-then-Bernoulli(p); must equal <psi|P_D|psi>.

    Raises InvariantError if the spectral average and the quadratic form
    disagree beyond 1e-8; returns the common value.
    """
    spec = spectral_measurement(accept)
    probs = spec.probabilities(state)
    via_spectrum = float(np.dot(probs, spec.eigenvalues))
    direct = float(np.real(np.vdot(state.amplitudes, accept @ state.amplitudes)))
    if abs(via_spectrum - direct) > 1e-8:
        raise InvariantError(
            f"Bernoulli-equivalence probe failed: spectrum gives {via_spectrum!r}, "
            f"quadratic form gives {direct!r}"
        )
    return direct


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
