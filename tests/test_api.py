"""Alternating-measurement estimator: round-count formula, transcript
bookkeeping, the Jordan-block exact walk against the literal per-block walk,
engine agreement on the post state, and the binomial outcome law."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

from qwmark import api, elwm, pirates, qcore, spectral, wmprf
from qwmark.errors import (
    DegenerateStateError,
    DimensionCapError,
    FlushLimitError,
    InvariantError,
    RoundLimitError,
)
from qwmark.qcore import QuantumProgram, UnitaryOracle, program_projectors

from conftest import (
    FakeDistribution,
    apply_accept,
    dense_cproj,
    dense_isu,
    per_pair,
    random_program,
    random_state,
    random_triples,
    rng_for,
)
from spectral_oracles import spectral_measurement
from qwmark.api import distribution_povm
from qwmark.pirates import classical_pirate, coin_pirate, honest_pirate, superposed_pirate


# ---------------------------------------------------------------------------
# parameters and transcripts
# ---------------------------------------------------------------------------


def test_round_count_formula():
    assert api.ApiParams(0.1, 0.05).T == 439
    assert api.ApiParams(0.7, 0.9).T == 4
    assert api.ApiParams(0.05, 0.01).T == 2397
    with pytest.raises(InvariantError):
        api.ApiParams(0.0, 0.5)
    with pytest.raises(InvariantError):
        api.ApiParams(0.5, 1.5)


@pytest.mark.parametrize(
    "eps, delta",
    [
        (1e-9 / 16, 0.01),  # 2T beyond int64: extract --eps 1e-9 at k = 3
        (1e-200 / 16, 0.01),  # eps^2 underflows to 0
        (0.25 / 16, 5e-324),  # 4 / delta overflows to inf
    ],
)
def test_round_count_must_be_finite_and_fit_one_binomial_draw(eps, delta):
    with pytest.raises(RoundLimitError):
        api.ApiParams(eps, delta)


def test_largest_round_count_runs_the_fast_engine():
    # the smallest eps accepted at delta = 0.5, one ulp above one refused
    eps = math.sqrt(math.log(8.0) / api.MAX_ROUNDS)
    while True:
        try:
            params = api.ApiParams(eps, 0.5)
            break
        except RoundLimitError:
            eps = math.nextafter(eps, 1.0)
    with pytest.raises(RoundLimitError):
        api.ApiParams(math.nextafter(eps, 0.0), 0.5)
    assert api.MAX_ROUNDS - 4096 < params.T <= api.MAX_ROUNDS == (2**63 - 1) // 2
    prog = coin_pirate()
    dist = FakeDistribution(random_triples(4, "api-largest-T"))
    estimate, _, _ = api.api_fast(dist, prog, params, rng_for("api-largest-T"))
    assert 0.0 <= estimate <= 1.0


def test_round_count_not_settable():
    with pytest.raises(TypeError):
        api.ApiParams(0.1, 0.05, T=10)


def test_flush_cap_default_scales_with_rounds():
    params = api.ApiParams(0.5, 0.5)
    assert params.max_flush_rounds == api.FLUSH_ROUNDS_PER_T * params.T


def test_flush_cap_raises_exactly_when_the_walk_needs_more_rounds(monkeypatch):
    # Uncapped runs give the flush rounds each seed needs; at a cap of 0 the
    # seeds that need any are those whose last main-loop IsU outcome is 0.
    prog = random_program(4, "api-flush-cap")
    dist = FakeDistribution(random_triples(3, "api-flush-cap"))
    params = api.ApiParams(0.7, 0.9)  # T = 4
    needed = []
    for i in range(40):
        _, _, tr = api.api_exact(dist, prog, params, rng_for(f"api-flush-cap-{i}"))
        assert (tr.flush_rounds > 0) == (tr.bits[-1] == 0)
        needed.append(tr.flush_rounds)
    for per_t in (0, 1):
        monkeypatch.setattr(api, "FLUSH_ROUNDS_PER_T", per_t)
        hit = 0
        for i, rounds in enumerate(needed):
            if rounds > per_t * params.T:
                with pytest.raises(FlushLimitError):
                    api.api_exact(dist, prog, params, rng_for(f"api-flush-cap-{i}"))
                hit += 1
            else:
                api.api_exact(dist, prog, params, rng_for(f"api-flush-cap-{i}"))
        assert 0 < hit < len(needed)


def test_round_cap_is_checked_before_any_draw():
    # eps = 0.001 needs about 2.1e6 rounds; the largest T in use, 10 097, is
    # that of an extraction at k = 2, eps = 0.25 and delta' = 0.05
    params = api.ApiParams(0.001, 0.5)
    assert params.T > api.MAX_EXACT_ROUNDS > api.ApiParams(0.25 / 12, 0.05).T == 10097
    prog = random_program(2, "api-round-cap")
    dist = FakeDistribution(random_triples(2, "api-round-cap"))
    local = rng_for("api-round-cap-run")
    with pytest.raises(RoundLimitError):
        api.api_exact(dist, prog, params, local)
    assert local.random() == rng_for("api-round-cap-run").random()


class OracleCalled(Exception):
    pass


def test_dimension_cap_is_checked_before_any_circuit_runs():
    # s * d = 65 * 4 exceeds the cap of 256: the refusal must come before the
    # projector stack, so the oracle is never called; at s * d = 256 it is
    def refuse(x, y):
        raise OracleCalled(x, y)

    prog = QuantumProgram(random_state(4, rng_for("api-dimension-cap")), UnitaryOracle(4, per_pair(refuse)))
    params = api.ApiParams(0.5, 0.5)
    for s, error in ((65, DimensionCapError), (64, OracleCalled)):
        with pytest.raises(error):
            api.api_exact(FakeDistribution(random_triples(s, "api-dimension-cap")), prog, params, rng_for("api-cap"))


def agreement_count(bits) -> int:
    """The engine's packed agreement count of (1, b_1, ..., b_2T)."""
    return api._agreements(api._led(bits), len(bits))


def test_agreement_count_examples():
    # leading 1 is implicit: (1, 1,1,1,1) has 4 agreements
    assert agreement_count((1, 1, 1, 1)) == 4
    assert agreement_count((0, 0, 0, 0)) == 3
    assert agreement_count((0, 1, 0, 1)) == 0
    assert agreement_count((1, 0, 1, 0)) == 1
    assert agreement_count(()) == 0


def literal_agreement_count(bits) -> int:
    """The agreement count as a loop over (1, b_1, ..., b_2T)."""
    prev, count = 1, 0
    for b in bits:
        if b == prev:
            count += 1
        prev = b
    return count


@given(st.lists(st.integers(0, 1), max_size=200).map(tuple))
@example(())
@example((0,))
@example((1,))
def test_agreement_count_matches_literal_loop(bits):
    assert agreement_count(bits) == literal_agreement_count(bits)


def test_transcript_validation():
    with pytest.raises(InvariantError):
        api.ApiTranscript((1, 1, 1), (), 3, 0.5)
    with pytest.raises(InvariantError):
        api.ApiTranscript((1, 0), (1, 0), 1, 0.25)
    tr = api.ApiTranscript((1, 1, 0, 0), (0, 1), 2, 0.5)
    assert tr.flush_rounds == 1


# ---------------------------------------------------------------------------
# controlled projection structure
# ---------------------------------------------------------------------------


def test_dense_operators_are_projectors():
    prog = random_program(4, "api-dense")
    stack = program_projectors(prog, random_triples(3, "api-dense"))
    assert stack.shape == (3, 4, 4)
    for m in (dense_cproj(stack), dense_isu(3, 4)):
        assert np.allclose(m @ m, m, atol=1e-10)


def test_apply_accept_matches_dense():
    prog = random_program(4, "api-accept")
    stack = program_projectors(prog, random_triples(3, "api-accept"))
    local = rng_for("api-accept-vec")
    vec = local.normal(size=12) + 1j * local.normal(size=12)
    dense = dense_cproj(stack)
    mat = vec.reshape(3, 4)
    assert np.allclose(apply_accept(stack, mat, reverse=False).reshape(-1), dense @ vec)
    assert np.allclose(apply_accept(stack, mat, reverse=True).reshape(-1), vec - dense @ vec)


def test_compression_identity():
    # projecting CProj^1 into range(IsU) reproduces P_D on the small space
    prog = random_program(4, "api-compress")
    dist = FakeDistribution(random_triples(5, "api-compress"))
    stack = program_projectors(prog, dist)
    s, d = stack.shape[:2]
    cproj = dense_cproj(stack)
    # embed: |1_R> (x) e_i for the standard basis of H
    embed = np.kron(np.full((s, 1), 1.0 / np.sqrt(s)), np.eye(d))
    assert np.allclose(embed @ embed.conj().T, dense_isu(s, d), atol=1e-12)
    compressed = embed.conj().T @ cproj @ embed
    assert np.allclose(compressed, distribution_povm(prog, dist), atol=1e-12)


# ---------------------------------------------------------------------------
# exact engine behavior
# ---------------------------------------------------------------------------


def test_exact_on_exact_eigenstate_gives_all_ones():
    # program answers every triple correctly: p = 1, so every bit is 1 and the
    # estimate is exactly 1.0 with no flush rounds
    prog = classical_pirate(lambda x, y: True)
    triples = tuple((1, x, y) for _, x, y in random_triples(4, "api-ones"))
    params = api.ApiParams(0.5, 0.5)
    est, post, tr = api.api_exact(FakeDistribution(triples), prog, params, rng_for("api-ones-run"))
    assert est == 1.0
    assert tr.t == 2 * params.T
    assert all(b == 1 for b in tr.bits)
    assert tr.flush_bits == b""
    assert np.allclose(post.amplitudes, prog.state.amplitudes)


def test_exact_on_rejecting_state_estimates_zero():
    # program never answers correctly: CProj always rejects, IsU stays 1;
    # bits alternate (0,1), giving t=T agreements... compute explicitly
    prog = classical_pirate(lambda x, y: True)
    triples = tuple((0, x, y) for _, x, y in random_triples(4, "api-zeros"))
    params = api.ApiParams(0.5, 0.5)
    est, post, tr = api.api_exact(FakeDistribution(triples), prog, params, rng_for("api-zeros-run"))
    # p = 0 on this program: the estimate law is Binomial(2T, 0)/2T = 0
    assert est == 0.0
    assert np.allclose(post.amplitudes, prog.state.amplitudes)


def test_exact_double_run_is_almost_projective():
    prog = random_program(4, "api-proj")
    dist = FakeDistribution(random_triples(4, "api-proj"))
    params = api.ApiParams(0.25, 0.1)
    local = rng_for("api-proj-run")
    est1, post1, _ = api.api_exact(dist, prog, params, local)
    est2, _, _ = api.api_exact(dist, prog.with_state(post1), params, local)
    assert abs(est1 - est2) <= params.eps  # seeded: holds for this stream


def test_exact_forward_reverse_sum_near_one():
    prog = random_program(4, "api-rev")
    dist = FakeDistribution(random_triples(4, "api-rev"))
    params = api.ApiParams(0.25, 0.1)
    local = rng_for("api-rev-run")
    est1, post1, _ = api.api_exact(dist, prog, params, local)
    est2, _, _ = api.api_exact(dist, prog.with_state(post1), params, local, reverse=True)
    assert abs(est1 + est2 - 1.0) <= params.eps


def test_exact_collapses_on_binary_spectrum():
    # with spectrum {0, 1} the record determines the block: agreements happen
    # always in a p=1 block and never in a p=0 block, so the post state lands
    # exactly in the eigenspace matching the estimate
    prog = superposed_pirate(
        np.pi / 4, classical_pirate(lambda x, y: True), classical_pirate(lambda x, y: False)
    )
    triples = tuple((1, x, y) for _, x, y in random_triples(4, "api-collapse"))
    dist = FakeDistribution(triples)
    params = api.ApiParams(0.5, 0.5)
    spec = spectral_measurement(distribution_povm(prog, dist))
    assert [round(v, 12) for v in spec.eigenvalues] == [0.0, 1.0]
    local = rng_for("api-collapse-run")
    seen = set()
    for _ in range(8):
        est, post, _ = api.api_exact(dist, prog, params, local)
        assert est in (0.0, 1.0)
        seen.add(est)
        proj = spec.eigenprojectors[spec.eigenvalues.index(est)]
        overlap = float(np.real(np.vdot(post.amplitudes, proj @ post.amplitudes)))
        assert overlap > 1.0 - 1e-8
    assert seen == {0.0, 1.0}  # both branches show up across seeded repeats


def reference_exact(dist, prog, params, rng, reverse=False):
    """The literal walk on H_R (x) H, one coin block at a time: (bits, flush bits, post state)."""
    blocks = program_projectors(prog, dist)
    s, d = len(blocks), prog.dim
    vec = (np.full(s, 1.0 / np.sqrt(s), dtype=complex)[:, None] * prog.state.amplitudes[None, :]).reshape(-1)

    def cproj_accept(v):
        mat = v.reshape(s, d)
        out = np.empty_like(mat)
        for r, block in enumerate(blocks):
            branch = block @ mat[r]
            out[r] = (mat[r] - branch) if reverse else branch
        return out.reshape(-1)

    def isu_accept(v):
        return np.broadcast_to(v.reshape(s, d).mean(axis=0), (s, d)).reshape(-1).copy()

    def measure_round(v, out):
        for accept_of in (cproj_accept, isu_accept):
            accept = accept_of(v)
            p1 = min(1.0, max(0.0, float(np.real(np.vdot(v, accept)))))
            branch = accept if rng.random() < p1 else v - accept
            out.append(1 if branch is accept else 0)
            v = branch / np.linalg.norm(branch)
        return v

    bits: list[int] = []
    for _ in range(params.T):
        vec = measure_round(vec, bits)
    flush: list[int] = []
    while (flush[-1] if flush else bits[-1]) != 1:
        vec = measure_round(vec, flush)
    phi = vec.reshape(s, d).sum(axis=0)
    return bytes(bits), bytes(flush), phi / np.linalg.norm(phi)


def assert_matches_oracle(dist, prog, params, label, reverse) -> int:
    """Run the oracle and api_exact on one seed; both must give the same bits,
    flush bits, post state (phase included) and next draw.  Returns the
    flush rounds."""
    oracle_rng, exact_rng = rng_for(label), rng_for(label)
    bits, flush, post = reference_exact(dist, prog, params, oracle_rng, reverse)
    _, state, tr = api.api_exact(dist, prog, params, exact_rng, reverse=reverse)
    assert (tr.bits, tr.flush_bits) == (bits, flush)
    assert np.max(np.abs(state.amplitudes - post)) < 1e-10
    assert exact_rng.random() == oracle_rng.random()
    return tr.flush_rounds


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("s", [1, 3, 8])
@pytest.mark.parametrize("d", [2, 4])
def test_exact_matches_per_block_oracle(d, s, reverse):
    prog = random_program(d, f"api-oracle-{d}")
    dist = FakeDistribution(random_triples(s, f"api-oracle-{d}-{s}"))
    params = api.ApiParams(0.25, 0.1)
    flushed = 0
    for run in range(6):
        label = f"api-oracle-run-{d}-{s}-{int(reverse)}-{run}"
        flushed += assert_matches_oracle(dist, prog, params, label, reverse) > 0
    # IsU is the identity at s = 1; above it the seeds exercise the flush
    assert (flushed > 0) == (s > 1)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("case", ["superposed-0", "superposed-pi/4", "binary-spectrum", "long-walk"])
def test_exact_matches_per_block_oracle_on_more_programs(small_stack, case, reverse):
    # The honest/coin superposition on a SimTau(1) sample of s = 64 coins, at
    # the angle whose state lies in the honest branch and at an even mix; a
    # program whose spectrum is {0, 1}, so every Jordan block is
    # 1-dimensional; and a walk of T = 1753 rounds, long enough that the
    # block weights are rescaled many times on the way.
    params = api.ApiParams(0.25, 0.1)
    if case == "long-walk":
        params = api.ApiParams(0.05, 0.05)
        prog = random_program(4, "api-oracle-long")
        dist = FakeDistribution(random_triples(3, "api-oracle-long"))
    elif case == "binary-spectrum":
        prog = superposed_pirate(
            np.pi / 4, classical_pirate(lambda x, y: True), classical_pirate(lambda x, y: False)
        )
        dist = FakeDistribution(tuple((1, x, y) for _, x, y in random_triples(4, "api-oracle-binary")))
    else:
        theta = 0.0 if case == "superposed-0" else np.pi / 4
        prog = superposed_pirate(theta, honest_pirate(small_stack["circuit"]), coin_pirate())
        dist = elwm.build_distribution(
            1,
            params=small_stack["elwm_params"],
            s=64,
            master_seed=b"api-oracle-sim-1",
            coin_key=small_stack["coin_key"],
            tag=small_stack["tag"],
        )
    assert prog.dim == 4
    spec = spectral_measurement(distribution_povm(prog, dist))
    binary = all(min(v, 1.0 - v) < 1e-12 for v in spec.eigenvalues)
    assert binary == (case == "binary-spectrum")
    for run in range(2 if case == "long-walk" else 6):
        assert_matches_oracle(dist, prog, params, f"api-oracle-run-{case}-{int(reverse)}-{run}", reverse)


# ---------------------------------------------------------------------------
# one-block scan
# ---------------------------------------------------------------------------


def one_block_program(accepted: int, s: int):
    """A classical pirate on s triples, `accepted` of which it answers: its
    state is the eigenvector of P_D with p = accepted / s, so one Jordan block
    holds all the weight."""
    triples = random_triples(s, f"api-one-block-{accepted}-{s}")
    dist = FakeDistribution(tuple((int(i < accepted), x, y) for i, (_, x, y) in enumerate(triples)))
    return dist, classical_pirate(lambda x, y: True)


ONE_BLOCK_CASES = {"q=0": (0, 4), "q=1": (4, 4), "q=0.3": (3, 10), "q=0.5": (1, 2), "q=0.9": (9, 10)}


@pytest.fixture
def walks(monkeypatch):
    """The walks each api_exact call took, in order: 'scan' when the one-block
    scan decided the bits, 'fallback:k' when it left them to the block walk
    after drawing k flush uniforms, and 'block' for each block walk."""
    taken: list[str] = []
    scan, block = api._one_block_walk, api._block_walk

    def spy_scan(main, agree, flip, rng, params, drawn):
        bits = scan(main, agree, flip, rng, params, drawn)
        taken.append("scan" if bits is not None else f"fallback:{len(drawn)}")
        return bits

    def spy_block(*args):
        taken.append("block")
        return block(*args)

    monkeypatch.setattr(api, "_one_block_walk", spy_scan)
    monkeypatch.setattr(api, "_block_walk", spy_block)
    return taken


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("case", ONE_BLOCK_CASES)
def test_one_block_scan_matches_oracle(case, reverse, walks):
    dist, prog = one_block_program(*ONE_BLOCK_CASES[case])
    params = api.ApiParams(0.25, 0.1)
    flushes = [
        assert_matches_oracle(dist, prog, params, f"api-one-block-run-{case}-{int(reverse)}-{run}", reverse)
        for run in range(6)
    ]
    assert walks == ["scan"] * 6
    # q = 0.9 keeps a 0 with probability 0.9, so a walk ending in 0 takes
    # several flush rounds to re-anchor
    if case == "q=0.9":
        assert max(flushes) >= 3


def test_one_block_scan_matches_oracle_past_the_rescale(walks):
    # 2T = 878 factors of 1/2 take the block weight below RESCALE_BELOW, so
    # the block walk and the literal walk both rescale on the way
    dist, prog = one_block_program(*ONE_BLOCK_CASES["q=0.5"])
    params = api.ApiParams(0.1, 0.05)
    assert 0.5 ** (2 * params.T) < api.RESCALE_BELOW
    for reverse in (False, True):
        assert_matches_oracle(dist, prog, params, f"api-one-block-rescale-{int(reverse)}", reverse)
    assert walks == ["scan"] * 2


def left_fold(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def left_fold_block_walk(born, agree, flip, uniforms):
    """`api._block_walk` with each weight sum an explicit left-to-right loop: (bits, final weights)."""
    weights, total, prev, bits = list(born), float(born.sum()), 1, []
    for u in uniforms:
        num = left_fold(w * a for w, a in zip(weights, agree))
        bit = int(u < (num / total if prev else 1.0 - num / total))
        if bit == prev:
            weights, kept = [w * a for w, a in zip(weights, agree)], num
        else:
            weights = [w * f for w, f in zip(weights, flip)]
            kept = left_fold(weights)
        total = kept
        if total < api.RESCALE_BELOW:
            weights = [w / total for w in weights]
            total = left_fold(weights)
        bits.append(bit)
        prev = bit
    return bits, np.array(weights) / total


@pytest.mark.parametrize(
    "agree, uniforms",
    [
        ([1.0, 1.0, 1.0], [0.5] * 4),  # every step repeats: the agree sum
        ([0.25, 0.5, 0.5], [0.9]),  # a flip: the sum of the flipped weights
        ([1e-20, 1e-20, 1e-20], [0.0] * 9),  # the weights fall below RESCALE_BELOW
    ],
    ids=["repeats", "flip", "rescale"],
)
def test_block_walk_sums_left_to_right(agree, uniforms):
    # From Python 3.12 on the builtin sum compensates: sum([1.0, 1e-16, 1e-16])
    # is 1.0000000000000002 there and 1.0 before.  The walk's weights must
    # come out as the left fold makes them on every version.
    assert left_fold([1.0, 1e-16, 1e-16]) == 1.0
    born = np.array([1.0, 1e-16, 1e-16])
    flip = [1.0 - a for a in agree]
    bits = bytearray()
    ratio = api._block_walk(born, agree, flip, iter(uniforms), bits)
    expected_bits, expected = left_fold_block_walk(born, agree, flip, uniforms)
    assert list(bits) == expected_bits
    assert ratio.tobytes() == expected.tobytes()


def forward_fill_walk(main, agree, flip, rng, params, drawn):
    """`api._one_block_walk` as a forward fill and a parity scan over bool
    arrays: a bit is the value of the last constant step up to it (the
    leading 1 counts as one), flipped by the parity of the negations since.
    The oracle of the carry chain."""

    def near(u):
        return (np.abs(u - agree) < api.SCAN_MARGIN) | (np.abs(u - (1.0 - agree)) < api.SCAN_MARGIN)

    if np.any(near(main)):
        return None
    after_one = np.empty(len(main) + 1, dtype=bool)
    after_zero = np.empty(len(main) + 1, dtype=bool)
    after_one[0] = after_zero[0] = True
    np.less(main, agree, out=after_one[1:])
    np.less(main, 1.0 - agree, out=after_zero[1:])
    steps = np.arange(len(after_one), dtype=np.int32)
    last_constant = np.maximum.accumulate(np.where(after_one == after_zero, steps, 0))
    odd = np.logical_xor.accumulate(after_zero & ~after_one)  # parity of the negations so far
    scan = after_one[last_constant] ^ odd ^ odd[last_constant]
    repeats = scan[1:] == scan[:-1]
    if (agree <= api.VANISHED_BELOW and repeats.any()) or (flip <= api.VANISHED_BELOW and not repeats.all()):
        return None
    bits = bytearray(scan[1:].view(np.uint8))
    for u in api._flush_uniforms(rng, params, bits):
        drawn.append(u)
        prev = bits[-1]
        bit = int(u < (agree if prev else 1.0 - agree))
        if near(u) or (agree if bit == prev else flip) <= api.VANISHED_BELOW:
            return None
        bits.append(bit)
    return bits


@given(
    q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    n=st.one_of(st.sampled_from([1, 2, 7, 8, 9, 63, 64, 65]), st.integers(1, 5000)),
    vanish=st.sampled_from([api.VANISHED_BELOW, 0.25, 0.5, 0.75]),
    margin=st.sampled_from([api.SCAN_MARGIN, 1e-4]),
    seed=st.integers(0, 2**32 - 1),
)
@example(q=0.0, n=5000, vanish=api.VANISHED_BELOW, margin=api.SCAN_MARGIN, seed=1)
@example(q=1.0, n=5000, vanish=api.VANISHED_BELOW, margin=api.SCAN_MARGIN, seed=2)
@example(q=0.5, n=5000, vanish=api.VANISHED_BELOW, margin=api.SCAN_MARGIN, seed=3)
@example(q=1e-300, n=9, vanish=api.VANISHED_BELOW, margin=api.SCAN_MARGIN, seed=4)
@example(q=1.0 - 2.0**-53, n=64, vanish=api.VANISHED_BELOW, margin=api.SCAN_MARGIN, seed=5)
@example(q=math.nextafter(0.5, 0.0), n=65, vanish=api.VANISHED_BELOW, margin=api.SCAN_MARGIN, seed=6)
@example(q=math.nextafter(0.5, 1.0), n=8, vanish=api.VANISHED_BELOW, margin=api.SCAN_MARGIN, seed=7)
@example(q=0.3, n=7, vanish=0.75, margin=api.SCAN_MARGIN, seed=8)
@example(q=0.3, n=7, vanish=0.5, margin=api.SCAN_MARGIN, seed=17)  # one repeat
@example(q=0.1, n=2, vanish=0.5, margin=api.SCAN_MARGIN, seed=9)
@example(q=0.9, n=1, vanish=0.5, margin=api.SCAN_MARGIN, seed=10)
def test_carry_chain_matches_forward_fill(q, n, vanish, margin, seed):
    # Same bits or the same None, the same flush draws and the same stream
    # position; raising the limit makes steps vanish, so the walks must also
    # leave the same runs to the block walk.
    main = np.random.default_rng(seed).random(n)
    params = api.ApiParams(0.7, 0.9)  # T = 4: a flush may run into its cap
    outcomes = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(api, "VANISHED_BELOW", vanish)
        patch.setattr(api, "SCAN_MARGIN", margin)
        for walk in (forward_fill_walk, api._one_block_walk):
            local, drawn = np.random.default_rng([seed, 1]), []
            try:
                bits = walk(main, q, 1.0 - q, local, params, drawn)
            except FlushLimitError:
                bits = "flush limit"
            outcomes.append((bits, drawn, local.random()))
    assert outcomes[0] == outcomes[1]


def exact_outcome(dist, prog, params, label):
    """Bits, flush bits, post amplitudes and next draw of one seeded exact run."""
    local = rng_for(label)
    _, post, tr = api.api_exact(dist, prog, params, local)
    return tr.bits, tr.flush_bits, post.amplitudes, local.random()


def test_one_block_fallback_leaves_results_unchanged(monkeypatch, walks):
    # A margin of 2 sends every run to the block walk before any flush draw;
    # at T = 4 a margin of 0.02 lets some scans decide and sends others back
    # after flush uniforms were drawn, which the block walk must replay.
    params = api.ApiParams(0.7, 0.9)
    labels = [(case, f"api-one-block-fallback-{case}-{run}") for case in ONE_BLOCK_CASES for run in range(8)]
    scanned = [exact_outcome(*one_block_program(*ONE_BLOCK_CASES[case]), params, label) for case, label in labels]
    assert walks == ["scan"] * len(labels)
    for margin in (2.0, 0.02):
        walks.clear()
        monkeypatch.setattr(api, "SCAN_MARGIN", margin)
        for (case, label), want in zip(labels, scanned):
            got = exact_outcome(*one_block_program(*ONE_BLOCK_CASES[case]), params, label)
            assert got[:2] == want[:2] and np.array_equal(got[2], want[2]) and got[3] == want[3]
        fell_back = [int(w.split(":")[1]) for w in walks if w.startswith("fallback")]
        assert walks.count("block") == len(fell_back)
        if margin == 2.0:
            assert fell_back == [0] * len(labels)
        else:
            assert "scan" in walks and 0 in fell_back and max(fell_back) > 0
    dist, prog = one_block_program(*ONE_BLOCK_CASES["q=0.9"])
    for run in range(8):
        assert_matches_oracle(dist, prog, params, f"api-one-block-fallback-q=0.9-{run}", False)


def test_one_block_degenerate_step_raises_as_the_block_walk_does(monkeypatch, walks):
    # With the limit above both factors, 0.3 and 0.7, the first step of any
    # walk vanishes: the scan must leave it to the block walk, which raises.
    monkeypatch.setattr(api, "VANISHED_BELOW", 0.75)
    dist, prog = one_block_program(*ONE_BLOCK_CASES["q=0.3"])
    for reverse in (False, True):
        with pytest.raises(DegenerateStateError):
            api.api_exact(dist, prog, api.ApiParams(0.7, 0.9), rng_for("api-one-block-vanish"), reverse=reverse)
    assert walks == ["fallback:0", "block"] * 2


def test_release_gate_programs_take_the_one_block_scan(small_stack, walks):
    # The honest pirate, and the honest/coin superposition at theta = 0 that
    # the exact benchmark runs, are eigenvectors of P_D with exact zeros
    # elsewhere, so the scan must decide their walks.
    dist = elwm.build_distribution(
        1,
        params=small_stack["elwm_params"],
        s=8,
        master_seed=b"api-one-block-sim-1",
        coin_key=small_stack["coin_key"],
        tag=small_stack["tag"],
    )
    honest = honest_pirate(small_stack["circuit"])
    params = api.ApiParams(0.25, 0.1)
    for i, prog in enumerate((honest, superposed_pirate(0.0, honest, coin_pirate()))):
        for reverse in (False, True):
            api.api_exact(dist, prog, params, rng_for(f"api-one-block-gate-{i}-{int(reverse)}"), reverse=reverse)
    assert walks == ["scan"] * 4


def test_exact_post_state_lies_in_one_eigencluster():
    # The outcome record of an invariant block with eigenvalue p is an agreement
    # sequence of rate p, so a wrong cluster at distance g keeps a relative
    # weight near exp(-2T * KL(p || p + g)) <= exp(-4T g^2) (Pinsker).  At
    # T = 1753 a gap of 0.06 puts that near 1e-11, so every program drawn
    # here keeps its gaps that wide.
    params = api.ApiParams(0.05, 0.05)
    for d, s in ((2, 3), (4, 3), (4, 8)):
        for i in range(6):
            prog = random_program(d, f"api-post-{d}-{i}")
            dist = FakeDistribution(random_triples(s, f"api-post-{d}-{s}-{i}"))
            spec = spectral_measurement(distribution_povm(prog, dist))
            assert min(np.diff(spec.eigenvalues)) >= 0.06
            for reverse in (False, True):
                label = f"api-post-run-{d}-{s}-{i}-{int(reverse)}"
                est, post, _ = api.api_exact(dist, prog, params, rng_for(label), reverse=reverse)
                amps = post.amplitudes
                weights = [float(np.real(np.vdot(amps, proj @ amps))) for proj in spec.eigenprojectors]
                j = int(np.argmax(weights))
                assert weights[j] > 1.0 - 1e-8
                p = spec.eigenvalues[j]
                assert abs(est - (1.0 - p if reverse else p)) <= params.eps  # seeded


# ---------------------------------------------------------------------------
# fast engine: law equivalence with the exact engine
# ---------------------------------------------------------------------------


def test_fast_on_eigenstate_matches_exact():
    prog = classical_pirate(lambda x, y: True)
    triples = tuple((1, x, y) for _, x, y in random_triples(4, "api-fast-one"))
    params = api.ApiParams(0.5, 0.5)
    est, post, idx = api.api_fast(FakeDistribution(triples), prog, params, rng_for("api-fast-run"))
    assert est == 1.0
    assert np.allclose(post.amplitudes, prog.state.amplitudes)


def test_fast_reverse_estimates_complement():
    prog = classical_pirate(lambda x, y: True)
    triples = tuple((1, x, y) for _, x, y in random_triples(4, "api-fast-rev"))
    params = api.ApiParams(0.5, 0.5)
    est, _, _ = api.api_fast(
        FakeDistribution(triples), prog, params, rng_for("api-fast-rev-run"), reverse=True
    )
    assert est == 0.0


def test_fast_estimate_is_t_over_2T_grid():
    prog = random_program(4, "api-grid")
    dist = FakeDistribution(random_triples(4, "api-grid"))
    params = api.ApiParams(0.3, 0.3)
    local = rng_for("api-grid-run")
    for _ in range(32):
        est, _, _ = api.api_fast(dist, prog, params, local)
        t = est * 2 * params.T
        assert abs(t - round(t)) < 1e-9


def test_engines_share_estimate_law_chi_square():
    # superposition of a perfect branch (p = 1) and a partially correct
    # classical branch (p = f, the fraction of triples it answers): both
    # engines must draw t from cos^2 Binom(2T, 1) + sin^2 Binom(2T, f)
    theta = np.pi / 3
    triples = tuple((1, x, y) for _, x, y in random_triples(8, "api-law"))
    partial = classical_pirate(lambda x, y: x[0] == "1")
    f = sum(1 for _, x, _ in triples if x[0] == "1") / len(triples)
    assert 0.0 < f < 1.0  # seed gives a genuinely intermediate fraction
    prog = superposed_pirate(theta, classical_pirate(lambda x, y: True), partial)
    dist = FakeDistribution(triples)
    params = api.ApiParams(0.7, 0.9)  # T = 4, small enough for exact runs
    n = 600
    local = rng_for("api-law-samples")
    exact_ts = []
    fast_ts = []
    for _ in range(n):
        est_e, _, tr = api.api_exact(dist, prog, params, local)
        exact_ts.append(tr.t)
        est_f, _, _ = api.api_fast(dist, prog, params, local)
        fast_ts.append(int(round(est_f * 2 * params.T)))
    tmax = 2 * params.T
    weights = np.array([np.cos(theta) ** 2, np.sin(theta) ** 2])
    law = np.zeros(tmax + 1)
    for wgt, p in zip(weights, (1.0, f)):
        law += wgt * stats.binom.pmf(np.arange(tmax + 1), tmax, p)
    for ts in (exact_ts, fast_ts):
        counts = np.bincount(ts, minlength=tmax + 1)
        # merge bins with tiny expectation to keep the chi-square valid
        keep = law * n >= 5
        merged_obs = np.append(counts[keep], counts[~keep].sum())
        merged_exp = np.append(law[keep] * n, law[~keep].sum() * n)
        stat, pval = stats.chisquare(merged_obs, merged_exp)
        assert pval > 0.01


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("kind", ["random", "classical"])
def test_exact_is_the_same_on_a_cold_and_a_warm_memo(kind, reverse):
    # the random program's state spreads over several blocks (the block walk),
    # the classical one's lies in one (the carry chain)
    prog = random_program(4, "api-memo") if kind == "random" else classical_pirate(lambda x, y: x[0] == "1")
    dist = FakeDistribution(random_triples(6, "api-memo"))
    params = api.ApiParams(0.4, 0.4)
    runs = []
    for _ in range(2):  # the first run fills the memo, the second hits it
        local = rng_for(f"api-memo-{kind}-{int(reverse)}")
        est, post, transcript = api.api_exact(dist, prog, params, local, reverse=reverse)
        runs.append((est, post.amplitudes.tobytes(), transcript, local.random()))
    assert runs[1] == runs[0]
    info = spectral._spectrum.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_spectral_memo_counts_of_one_honest_trial():
    # the live probe and the k+1 measurements of one game: an honest pirate's
    # state stays a basis vector, and its five measurements see two distinct (P_D, state)
    params = wmprf.ExtractParams(k=3, eps=0.25, delta_prime=0.05, s=8)
    ep = elwm.ElwmParams(4, seed_bits=6, range_bits=12)
    result = wmprf.run_event_trial(params, honest_pirate, "101", rng_for("api-memo-honest"), elwm_params=ep)
    assert result.live and result.report.decoded == "101"
    info = spectral._spectrum.cache_info()
    assert (info.hits, info.misses) == (3, 2)


MEMO_PIRATES = (
    {"kind": "honest"},
    {"kind": "anti"},
    {"kind": "noisy", "eta": 0.3},
    {"kind": "coin"},
    {"kind": "superposed", "theta": 0.7},
)


@pytest.mark.parametrize("spec", MEMO_PIRATES, ids=lambda spec: spec["kind"])
def test_accept_operators_are_the_same_bytes_with_the_member_memo_cold_and_warm(spec, small_stack):
    # a game's RealD and Sim distributions, each P_D built from an empty member
    # memo, then twice from a full one
    prog = pirates.build_pirate(pirates.PirateSpec.from_dict(spec), small_stack["circuit"])
    ep, s, coin_key = small_stack["elwm_params"], small_stack["params"].s, small_stack["coin_key"]
    dists = [elwm.build_distribution(None, params=ep, s=s, master_seed=b"memo", coin_key=coin_key, prfk=small_stack["prfk"])]
    for i in range(1, ep.msg_bits + 1):
        dists.append(elwm.build_distribution(i, params=ep, s=s, master_seed=b"memo", coin_key=coin_key, tag=small_stack["tag"]))
    cold = []
    for dist in dists:
        qcore._checked_projector.cache_clear()
        cold.append(distribution_povm(prog, dist).tobytes())
    assert [distribution_povm(prog, dist).tobytes() for dist in dists] == cold
    misses = qcore._checked_projector.cache_info().misses
    assert [distribution_povm(prog, dist).tobytes() for dist in dists] == cold
    info = qcore._checked_projector.cache_info()
    # every CLI pirate's members are I and X, or their interleavings, under b = 0 and 1
    assert info.misses == misses and info.currsize <= 4


def test_memo_counts_of_twenty_honest_trials():
    # the live probe and the k+1 measurements of twenty games: an honest
    # pirate's members are I and X under b = 0 and 1
    params = wmprf.ExtractParams(k=3, eps=0.25, delta_prime=0.05, s=8)
    ep = elwm.ElwmParams(4, seed_bits=6, range_bits=12)
    rng = rng_for("api-memo-honest-20")
    for _ in range(20):
        assert wmprf.run_event_trial(params, honest_pirate, "101", rng, elwm_params=ep).report.decoded == "101"
    members = qcore._checked_projector.cache_info()
    assert (members.hits, members.misses) == (20 * 5 * 8 - 4, 4)


def test_no_memo_keeps_a_program_above_memo_dim():
    # a d = 64 program's members and spectrum are computed and checked on
    # every call, by the same functions, and kept by neither memo
    prog = random_program(64, "api-memo-d64")
    dist = FakeDistribution(random_triples(3, "api-memo-d64"))
    draws = [spectral.projimp_cluster(distribution_povm(prog, dist), prog.state, rng_for("api-memo-d64-draw")) for _ in range(2)]
    assert draws[0][:2] == draws[1][:2] and draws[0][2].amplitudes.tobytes() == draws[1][2].amplitudes.tobytes()
    for memo in (qcore._checked_projector, spectral._spectrum):
        assert memo.cache_info().misses == memo.cache_info().currsize == 0


def test_run_api_dispatch():
    prog = random_program(4, "api-dispatch")
    dist = FakeDistribution(random_triples(3, "api-dispatch"))
    params = api.ApiParams(0.4, 0.4)
    est, post, info = api.run_api(dist, prog, params, rng_for("api-disp-f"), engine="fast")
    assert info["engine"] == "fast" and "subspace" in info
    est, post, info = api.run_api(dist, prog, params, rng_for("api-disp-e"), engine="exact")
    assert info["engine"] == "exact" and "t" in info and "flush_rounds" in info
    with pytest.raises(InvariantError):
        api.run_api(dist, prog, params, rng_for("api-disp-x"), engine="magic")
