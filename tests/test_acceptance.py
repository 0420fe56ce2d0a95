"""Release-gate suite: every end-to-end guarantee the package advertises.

Each test exercises one headline property at full scale and asserts a single
explicit tolerance, so a verbose run reads as a ten-line go/no-go checklist.
The checks overlap the per-module suites on purpose; these are the slow,
integrated versions.  Budget for the whole file is a few minutes, dominated
by the superposed-pirate frequency sweep.
"""

from __future__ import annotations

import json
import time

import numpy as np
from scipy import stats

from conftest import FakeDistribution, projimp_bernoulli_check, random_program, random_triples, rng_for
from qwmark import cli, elwm, pirates
from qwmark.api import ApiParams, api_exact, api_fast, distribution_povm
from qwmark.crypto import (
    ggm_eval,
    ggm_eval_punctured,
    ggm_gen,
    ggm_puncture,
    injective_pprf_eval,
    injective_pprf_eval_punctured,
    injective_pprf_gen,
    injective_pprf_puncture,
)
from qwmark.elwm import ElwmParams, build_distribution
from qwmark.pe import pe_dec, pe_enc, pe_gen, pe_puncture
from qwmark.spectral import (
    OutcomeDistribution,
    projimp,
    shift_distance,
    spectral_measurement,
)
from qwmark.wmprf import ExtractParams, classify_events, run_event_trial

ATOL = 1e-8


class MemoCircuit:
    """Caches circuit outputs; POVM builders query each input many times."""

    def __init__(self, circuit):
        self._circuit = circuit
        self._seen: dict[str, str] = {}

    def run(self, x: str) -> str:
        out = self._seen.get(x)
        if out is None:
            out = self._seen[x] = self._circuit.run(x)
        return out


def random_message(bits: int, rng) -> str:
    return "".join(str(int(b)) for b in rng.integers(0, 2, size=bits))


def pool_bins(observed: np.ndarray, expected: np.ndarray, floor: float = 5.0):
    """Greedily merge adjacent bins until every pooled expectation >= floor."""
    obs, exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= floor:
            obs.append(acc_o)
            exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 and exp:
        obs[-1] += acc_o
        exp[-1] += acc_e
    elif acc_e > 0:
        obs.append(acc_o)
        exp.append(acc_e)
    return np.array(obs), np.array(exp)


def test_a01_projective_implementation_validity():
    """200 random instances: the measurement is projective, its outcomes are
    eigenvalues, post states live in the matching eigenspace, repeats agree,
    and the two-outcome statistics equal the original mixture's, all to 1e-8."""
    local = rng_for("accept-projimp")
    worst = 0.0
    for n in range(200):
        dim = int(local.choice([2, 4, 8, 16]))
        s = int(local.integers(1, 17))
        prog = random_program(dim, f"a01-{n}")
        povm = distribution_povm(prog, FakeDistribution(random_triples(s, f"a01-{n}")))
        spec = spectral_measurement(povm.average())

        resolution = np.sum(spec.eigenprojectors, axis=0)
        worst = max(worst, float(np.max(np.abs(resolution - np.eye(dim)))))
        for proj in spec.eigenprojectors:
            worst = max(worst, float(np.max(np.abs(proj @ proj - proj))))
            worst = max(worst, float(np.max(np.abs(proj - proj.conj().T))))
        eigs = np.asarray(spec.eigenvalues)
        assert np.all(np.diff(eigs) > 0)
        assert np.all(eigs >= -ATOL) and np.all(eigs <= 1 + ATOL)

        p1, post1 = projimp(povm, prog.state, local)
        j = int(np.argmin(np.abs(eigs - p1)))
        assert abs(eigs[j] - p1) < 1e-12
        residual = spec.eigenprojectors[j] @ post1.amplitudes - post1.amplitudes
        worst = max(worst, float(np.linalg.norm(residual)))
        p2, _ = projimp(povm, post1, local)
        worst = max(worst, abs(p2 - p1))

        # raises if outcome-weighted eigenvalues drift from <psi|P_D|psi>
        projimp_bernoulli_check(povm, prog.state)
    assert worst <= ATOL
    print(f"PASS projective implementation: worst deviation {worst:.2e} <= {ATOL}")


def test_a02_estimation_is_almost_projective():
    """Two consecutive estimates at accuracy (0.05, 0.05) differ by more than
    0.05 on at most a 0.05 + 0.03 fraction of 200 random instances."""
    eps_p = delta_p = 0.05
    params = ApiParams(eps_p, delta_p)
    assert params.T == 1753
    local = rng_for("accept-almost-projective")
    violations = 0
    largest = 0.0
    for n in range(200):
        prog = random_program(4, f"a02-{n}")
        dist = FakeDistribution(random_triples(8, f"a02-{n}"))
        est1, post1, _ = api_fast(dist, prog, params, local)
        est2, _, _ = api_fast(dist, prog.with_state(post1), params, local)
        largest = max(largest, abs(est1 - est2))
        violations += abs(est1 - est2) > eps_p
    freq = violations / 200
    assert freq <= delta_p + 0.03
    print(f"PASS almost projective: violation rate {freq:.3f} <= {delta_p + 0.03}, max gap {largest:.4f}")


def test_a03_reverse_run_complements_forward_run():
    """A reversed second run estimates one minus the first estimate, with the
    same (0.05, 0.05) accuracy and the same failure budget."""
    eps_p = delta_p = 0.05
    params = ApiParams(eps_p, delta_p)
    local = rng_for("accept-reverse")
    violations = 0
    largest = 0.0
    for n in range(200):
        prog = random_program(4, f"a03-{n}")
        dist = FakeDistribution(random_triples(8, f"a03-{n}"))
        est1, post1, _ = api_fast(dist, prog, params, local)
        est2, _, _ = api_fast(dist, prog.with_state(post1), params, local, reverse=True)
        gap = abs(est1 + est2 - 1.0)
        largest = max(largest, gap)
        violations += gap > eps_p
    freq = violations / 200
    assert freq <= delta_p + 0.03
    print(f"PASS reverse complement: violation rate {freq:.3f} <= {delta_p + 0.03}, max gap {largest:.4f}")


def test_a04_exact_and_compressed_engines_share_one_law():
    """At T = 4 the literal alternating-measurement engine and the compressed
    engine produce agreement counts with total variation <= 0.05 over 2000
    samples each, and both match the spectral mixture of binomials law at
    chi-square p >= 0.01, for three qualitatively different pirates."""
    params = ApiParams(0.7, 0.9)
    assert params.T == 4
    rounds = 2 * params.T

    ep = ElwmParams(4, seed_bits=6, range_bits=12)
    prfk, tag = elwm.gen(ep, rng_for("accept-engines-gen"))
    memo = MemoCircuit(elwm.mark(prfk, "1010"))
    dist = build_distribution(
        "SimTau(2)",
        params=ep,
        s=6,
        master_seed=b"accept-engines-0",
        coin_key=b"accept-engines-1",
        tag=tag,
    )
    zoo = [
        ("honest", pirates.honest_pirate(memo)),
        ("noisy-0.4", pirates.noisy_pirate(memo, 0.4)),
        ("superposed-pi/3", pirates.superposed_pirate(np.pi / 3, pirates.honest_pirate(memo), pirates.coin_pirate())),
    ]
    n = 2000
    for name, prog in zoo:
        spec = spectral_measurement(distribution_povm(prog, dist).average())
        weights = np.clip(spec.probabilities(prog.state), 0.0, None)
        law = np.zeros(rounds + 1)
        for w, p in zip(weights, spec.eigenvalues):
            law += w * stats.binom.pmf(np.arange(rounds + 1), rounds, min(1.0, max(0.0, p)))

        local = rng_for(f"accept-engines-{name}")
        counts = {}
        for engine, runner in (("exact", api_exact), ("fast", api_fast)):
            ts = np.array([int(round(runner(dist, prog, params, local)[0] * rounds)) for _ in range(n)])
            counts[engine] = np.bincount(ts, minlength=rounds + 1)

        tv = 0.5 * float(np.abs(counts["exact"] / n - counts["fast"] / n).sum())
        assert tv <= 0.05, f"{name}: engine TV {tv}"

        if np.max(law) >= 1.0 - 1e-9:
            atom = int(np.argmax(law))
            for engine in ("exact", "fast"):
                assert counts[engine][atom] == n, f"{name}/{engine}: mass escaped a point-mass law"
            print(f"PASS engine law [{name}]: point mass at t={atom}, TV {tv:.4f}")
            continue
        for engine in ("exact", "fast"):
            obs, exp = pool_bins(counts[engine].astype(float), n * law)
            assert len(obs) >= 2, f"{name}/{engine}: law too concentrated to pool"
            pval = float(stats.chisquare(obs, exp).pvalue)
            assert pval >= 0.01, f"{name}/{engine}: chi-square p {pval}"
        print(f"PASS engine law [{name}]: TV {tv:.4f} <= 0.05, both engines fit the mixture law")


def test_a05_estimates_track_projective_outcomes_in_shift_distance():
    """For a zoo of seven pirates, 2000 compressed-engine estimates at
    accuracy (0.1, 0.1) sit within shift distance 0.1 + 0.05 of the exact
    projective outcome distribution, measured at shift eps = 0.1."""
    params = ApiParams(0.1, 0.1)
    assert params.T == 369

    ep = ElwmParams(4, seed_bits=6, range_bits=12)
    prfk, tag = elwm.gen(ep, rng_for("accept-shift-gen"))
    memo = MemoCircuit(elwm.mark(prfk, "0110"))
    dist = build_distribution(
        "SimTau(1)",
        params=ep,
        s=8,
        master_seed=b"accept-shift-ms0",
        coin_key=b"accept-shift-ck0",
        tag=tag,
    )
    honest = pirates.honest_pirate(memo)
    anti = pirates.anti_pirate(memo)
    zoo = [
        ("honest", honest),
        ("anti", anti),
        ("coin", pirates.coin_pirate()),
        ("noisy-0.25", pirates.noisy_pirate(memo, 0.25)),
        ("noisy-0.4", pirates.noisy_pirate(memo, 0.4)),
        ("superposed-pi/6", pirates.superposed_pirate(np.pi / 6, honest, pirates.coin_pirate())),
        ("superposed-pi/3", pirates.superposed_pirate(np.pi / 3, honest, anti)),
    ]
    n = 2000
    worst = 0.0
    for name, prog in zoo:
        spec = spectral_measurement(distribution_povm(prog, dist).average())
        weights = np.clip(spec.probabilities(prog.state), 0.0, None)
        weights /= weights.sum()
        ideal = OutcomeDistribution(tuple(spec.eigenvalues), tuple(weights))

        local = rng_for(f"accept-shift-{name}")
        ests = [api_fast(dist, prog, params, local)[0] for _ in range(n)]
        empirical = OutcomeDistribution.from_samples(ests, bin_resolution=1.0 / (2 * params.T))

        d = shift_distance(ideal, empirical, 0.1)
        worst = max(worst, d)
        assert d <= 0.1 + 0.05, f"{name}: shift distance {d}"
    print(f"PASS shift distance: worst over zoo {worst:.4f} <= 0.15")


def test_a06_honest_pirate_extraction_recovers_messages():
    """Extraction against the honest pirate at k = 4, eps = 0.25 recovers at
    least 48 of 50 random messages exactly, never outputs a wrong mark, and
    finishes inside ten minutes."""
    t0 = time.monotonic()
    params = ExtractParams(k=4, eps=0.25, delta_prime=0.01, s=8, engine="fast")
    assert params.api_params().T == 38346
    ep = ElwmParams(5, seed_bits=6, range_bits=12)
    local = rng_for("accept-honest-extract")
    exact = 0
    wrong = 0
    for _ in range(50):
        message = random_message(4, local)
        result = run_event_trial(params, pirates.honest_pirate, message, local, elwm_params=ep)
        assert result.live, "honest pirate failed the liveness gate"
        if result.report.decoded == message:
            exact += 1
        elif not result.report.unmarked:
            wrong += 1
    elapsed = time.monotonic() - t0
    assert wrong == 0
    assert exact >= 48
    assert elapsed < 600
    print(f"PASS honest extraction: {exact}/50 exact, 0 wrong marks, {elapsed:.1f}s < 600s")


def test_a07_superposed_pirates_live_and_extract_at_branch_weights():
    """Sweeping the honest/coin superposition angle, over 200 fresh trials per
    angle at s = 64: liveness frequency tracks cos^2(theta) within 0.10, good
    extractions track liveness within 0.10, and wrong marks stay under 0.02."""
    params = ExtractParams(k=4, eps=0.25, delta_prime=0.01, s=64, engine="fast")
    ep = ElwmParams(5, seed_bits=6, range_bits=12)
    trials = 200
    lines = []
    for label, theta in (("0", 0.0), ("pi/6", np.pi / 6), ("pi/4", np.pi / 4), ("pi/3", np.pi / 3), ("pi/2", np.pi / 2)):
        def builder(circuit, _theta=theta):
            return pirates.superposed_pirate(_theta, pirates.honest_pirate(circuit), pirates.coin_pirate())

        local = rng_for(f"accept-superposed-{label}")
        results = [
            run_event_trial(params, builder, random_message(4, local), local, elwm_params=ep)
            for _ in range(trials)
        ]
        tally = classify_events(results)
        live = tally.live / trials
        good = tally.good_ext / trials
        bad = tally.bad_ext / trials
        target = float(np.cos(theta) ** 2)
        assert abs(live - target) <= 0.10, f"theta={label}: live {live} vs cos^2 {target}"
        assert good >= live - 0.10, f"theta={label}: good {good} vs live {live}"
        assert bad <= 0.02, f"theta={label}: bad {bad}"
        lines.append(f"theta={label}: live {live:.3f} (target {target:.3f}), good {good:.3f}, bad {bad:.3f}")
    print("PASS superposed sweep: " + "; ".join(lines))


def test_a08_crypto_layer_batch():
    """Correctness sweep of the tree PRF, the injective puncturable PRF, and
    the puncturable encryption scheme, all inside a two-minute budget."""
    t0 = time.monotonic()
    local = rng_for("accept-crypto")

    key = ggm_gen(8, 16, local)
    table = {format(i, "08b"): ggm_eval(key, format(i, "08b")) for i in range(256)}
    points = {format(int(local.integers(0, 256)), "08b") for _ in range(3)}
    punctured = ggm_puncture(key, points)
    for x, out in table.items():
        got = ggm_eval_punctured(punctured, x)
        assert got is None if x in points else got == out

    ik = injective_pprf_gen(9, 27, local)
    images = {injective_pprf_eval(ik, format(i, "09b")) for i in range(512)}
    assert len(images) == 512
    hole = format(int(local.integers(0, 512)), "09b")
    pik = injective_pprf_puncture(ik, {hole})
    for i in range(512):
        x = format(i, "09b")
        got = injective_pprf_eval_punctured(pik, x)
        assert got is None if x == hole else got == injective_pprf_eval(ik, x)

    keys = pe_gen(8, local)
    cts = []
    for _ in range(100):
        m = random_message(8, local)
        c = pe_enc(keys.ek, m, local)
        assert pe_dec(keys.dk, c) == m
        cts.append((m, c))
    hits = sum(pe_dec(keys.dk, random_message(96, local)) is not None for _ in range(2000))
    assert hits == 0
    _, c_star = cts[0]
    pdk = pe_puncture(keys.dk, c_star)
    assert pdk.run(c_star) is None
    for m, c in cts[1:]:
        assert pdk.run(c) == m

    elapsed = time.monotonic() - t0
    assert elapsed < 120
    print(f"PASS crypto batch: tree PRF, injective PRF, encryption all correct in {elapsed:.1f}s < 120s")


def test_a09_marked_circuit_disagrees_exactly_on_planted_queries():
    """Across 20 fresh keys, every simulated triple at every position has the
    marked circuit agree with the offered output exactly when the planted bit
    differs from the embedded one (at most 2 range collisions allowed), and
    the circuit matches the bare PRF everywhere off the planted set."""
    local = rng_for("accept-disagreement")
    ep = ElwmParams(4, seed_bits=6, range_bits=12)
    exceptions = 0
    checked = 0
    for trial in range(20):
        prfk, tag = elwm.gen(ep, local)
        message = random_message(4, local)
        circuit = elwm.mark(prfk, message)
        coin_key = elwm.new_coin_key(local)
        master = local.bytes(16)
        for i in range(1, 5):
            dist = build_distribution(
                f"SimTau({i})",
                params=ep,
                s=32,
                master_seed=master,
                coin_key=coin_key,
                tag=tag,
            )
            for gamma, x, y in dist.triples:
                agrees = circuit.run(x) == y
                planted_differs = gamma != int(message[i - 1])
                exceptions += agrees != planted_differs
                checked += 1
        for _ in range(50):
            x = random_message(ep.domain_bits, local)
            assert circuit.run(x) == elwm.eval_prf(prfk, x)
    assert exceptions <= 2
    print(f"PASS planted disagreement: {exceptions}/{checked} exceptions <= 2, off-set identical on 1000 points")


def test_a10_experiment_runs_reproduce_byte_identically(tmp_path, capsys):
    """The same experiment config run twice produces byte-identical result
    rows and summaries, and the verifier accepts them."""
    config = {
        "k": 2,
        "eps": 0.25,
        "trials": 3,
        "seed": 424242,
        "seed_bits": 6,
        "range_bits": 12,
        "delta_prime": 0.05,
        "s": 8,
        "engine": "fast",
        "message": "random",
        "pirates": [{"kind": "honest"}, {"kind": "coin"}],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert cli.main(["experiment", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["experiment", "--config", str(cfg), "--out", str(out2)]) == 0
    rows1 = (out1 / "rows.csv").read_bytes()
    assert rows1 == (out2 / "rows.csv").read_bytes()
    summary1 = (out1 / "summary.json").read_bytes()
    assert summary1 == (out2 / "summary.json").read_bytes()
    assert cli.main(["verify", "--rows", str(out1 / "rows.csv"), "--summary", str(out1 / "summary.json")]) == 0
    capsys.readouterr()
    print(f"PASS reproducibility: rows.csv ({len(rows1)} bytes) and summary.json byte-identical across reruns")
