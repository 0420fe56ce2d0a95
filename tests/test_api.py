"""Alternating-measurement estimator: round-count formula, transcript
bookkeeping, the batched exact walk against its per-block oracle, engine
agreement on the post state, and the binomial outcome law."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from qwmark import api
from qwmark.errors import FlushLimitError, InvariantError
from qwmark.qcore import StateVector
from qwmark.spectral import spectral_measurement

from conftest import (
    FakeDistribution,
    dense_cproj,
    dense_isu,
    random_program,
    random_triples,
    rng_for,
)
from qwmark.api import distribution_povm
from qwmark.pirates import classical_pirate, coin_pirate, superposed_pirate


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


def test_agreement_count_examples():
    # leading 1 is implicit: (1, 1,1,1,1) has 4 agreements
    assert api.agreement_count((1, 1, 1, 1)) == 4
    assert api.agreement_count((0, 0, 0, 0)) == 3
    assert api.agreement_count((0, 1, 0, 1)) == 0
    assert api.agreement_count((1, 0, 1, 0)) == 1
    assert api.agreement_count(()) == 0


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


def controlled_projection(prog, dist) -> api.ControlledProjection:
    return api.ControlledProjection(distribution_povm(prog, dist).stack)


def test_dense_operators_are_projectors():
    prog = random_program(4, "api-dense")
    cp = controlled_projection(prog, FakeDistribution(random_triples(3, "api-dense")))
    assert cp.s == 3 and cp.block_dim == 4
    for op in (dense_cproj(cp), dense_isu(cp.s, cp.block_dim)):
        m = op.matrix
        assert np.allclose(m @ m, m, atol=1e-10)


def test_apply_accept_matches_dense():
    prog = random_program(4, "api-accept")
    cp = controlled_projection(prog, FakeDistribution(random_triples(3, "api-accept")))
    local = rng_for("api-accept-vec")
    vec = local.normal(size=12) + 1j * local.normal(size=12)
    dense = dense_cproj(cp).matrix
    mat = vec.reshape(cp.s, cp.block_dim)
    assert np.allclose(cp.apply_accept(mat, reverse=False).reshape(-1), dense @ vec)
    assert np.allclose(cp.apply_accept(mat, reverse=True).reshape(-1), vec - dense @ vec)


def test_compression_identity():
    # projecting CProj^1 into range(IsU) reproduces P_D on the small space
    prog = random_program(4, "api-compress")
    dist = FakeDistribution(random_triples(5, "api-compress"))
    cp = controlled_projection(prog, dist)
    s, d = cp.s, cp.block_dim
    cproj = dense_cproj(cp).matrix
    # embed: |1_R> (x) e_i for the standard basis of H
    embed = np.kron(np.full((s, 1), 1.0 / np.sqrt(s)), np.eye(d))
    assert np.allclose(embed @ embed.conj().T, dense_isu(s, d).matrix, atol=1e-12)
    compressed = embed.conj().T @ cproj @ embed
    assert np.allclose(compressed, distribution_povm(prog, dist).average(), atol=1e-12)


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
    assert tr.flush_bits == ()
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
    spec = spectral_measurement(distribution_povm(prog, dist).average())
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
    """The per-block walk that preceded the batched one: (bits, flush bits, post state)."""
    blocks = distribution_povm(prog, dist).stack
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
    return tuple(bits), tuple(flush), phi / np.linalg.norm(phi)


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
        bits, flush, post = reference_exact(dist, prog, params, rng_for(label), reverse)
        _, state, tr = api.api_exact(dist, prog, params, rng_for(label), reverse=reverse)
        assert (tr.bits, tr.flush_bits) == (bits, flush)
        assert np.max(np.abs(state.amplitudes - post)) < 1e-10
        flushed += tr.flush_rounds > 0
    # IsU is the identity at s = 1; above it the seeds exercise the flush
    assert (flushed > 0) == (s > 1)


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
            spec = spectral_measurement(distribution_povm(prog, dist).average())
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
