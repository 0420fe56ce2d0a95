"""Extraction thresholds, end-to-end decoding, the liveness probe, and event
tallies."""

from __future__ import annotations

import pytest

from qwmark import elwm, pirates, wmprf
from qwmark.errors import IndexRangeError, InvariantError, LengthError

from conftest import rng_for


# ---------------------------------------------------------------------------
# threshold arithmetic
# ---------------------------------------------------------------------------


def test_eps_prime_and_gate():
    params = wmprf.ExtractParams(k=4, eps=0.25)
    assert abs(params.eps_prime - 0.0125) < 1e-15
    assert abs(params.gate_threshold() - 0.70) < 1e-12
    assert params.api_params().eps == params.eps_prime


def test_bit_threshold_ladder():
    params = wmprf.ExtractParams(k=4, eps=0.25)
    # width grows by 4 eps' = 0.05 per position: 0.75 - 0.05 (i+1)
    expected = {1: (0.65, 0.35), 2: (0.60, 0.40), 3: (0.55, 0.45), 4: (0.50, 0.50)}
    for i, (zero_above, one_below) in expected.items():
        za, ob = params.bit_thresholds(i)
        assert abs(za - zero_above) < 1e-12
        assert abs(ob - one_below) < 1e-12
    # strictly ordered bands for i < k; the final band is empty (both at 1/2)
    for i in range(1, 4):
        za, ob = params.bit_thresholds(i)
        assert ob < 0.5 < za
    za, ob = params.bit_thresholds(4)
    assert za == ob == 0.5
    with pytest.raises(IndexRangeError):
        params.bit_thresholds(0)
    with pytest.raises(IndexRangeError):
        params.bit_thresholds(5)


def test_extract_params_validation():
    with pytest.raises(InvariantError):
        wmprf.ExtractParams(k=3, eps=0.75)
    with pytest.raises(IndexRangeError):
        wmprf.ExtractParams(k=0, eps=0.2)
    with pytest.raises(InvariantError):
        wmprf.ExtractParams(k=3, eps=0.2, engine="warp")


def test_wm_gen_checks_carrier_width():
    params = wmprf.ExtractParams(k=3, eps=0.25)
    with pytest.raises(LengthError):
        wmprf.wm_gen(params, elwm.ElwmParams(3, seed_bits=6, range_bits=12), rng_for("wm-width"))
    prfk, tag = wmprf.wm_gen(params, elwm.ElwmParams(4, seed_bits=6, range_bits=12), rng_for("wm-width2"))
    assert prfk.params.msg_bits == 4


def test_wm_mark_appends_reserved_zero():
    params = wmprf.ExtractParams(k=3, eps=0.25)
    prfk, _ = wmprf.wm_gen(params, elwm.ElwmParams(4, seed_bits=6, range_bits=12), rng_for("wm-zero"))
    circuit = wmprf.wm_mark(prfk, "110")
    assert circuit.circuit.message == "1100"
    with pytest.raises(LengthError):
        wmprf.wm_mark(prfk, "1101")


# ---------------------------------------------------------------------------
# end-to-end extraction
# ---------------------------------------------------------------------------


def test_honest_pirate_decodes_exactly(small_stack):
    params = small_stack["params"]
    prog = pirates.honest_pirate(small_stack["circuit"])
    report = wmprf.extract(
        small_stack["coin_key"], small_stack["tag"], prog, params, rng_for("wm-honest")
    )
    assert report.decoded == small_stack["message"]
    assert not report.fallback
    assert report.gate_estimate >= params.gate_threshold()
    assert len(report.bit_estimates) == params.k
    assert len(report.calls) == params.k + 1


@pytest.mark.parametrize(
    "estimates, decoded, fallback",
    [
        ((0.5,), "unmarked", False),  # below the gate threshold 0.6875
        ((1.0, 0.9, 0.1, 0.9), "010", False),
        ((1.0, 0.9, 0.5), "000", True),  # 0.5 lies inside position 2's band (0.4375, 0.5625)
    ],
)
def test_extraction_report_of_each_outcome(small_stack, monkeypatch, estimates, decoded, fallback):
    # the estimates come in order: the gate (position k + 1), then positions 1..k
    scripted = iter(estimates)

    def run_api(dist, prog, params, rng, *, engine):
        est = next(scripted)
        return est, prog.state, {"engine": engine, "estimate": est}

    monkeypatch.setattr(wmprf, "run_api", run_api)
    prog = pirates.honest_pirate(small_stack["circuit"])
    report = wmprf.extract(
        small_stack["coin_key"], small_stack["tag"], prog, small_stack["params"], rng_for("wm-outcomes")
    )
    assert (report.decoded, report.fallback) == (decoded, fallback)
    assert (report.gate_estimate, report.bit_estimates) == (estimates[0], estimates[1:])
    assert [call["index"] for call in report.calls] == [4, 1, 2, 3][: len(estimates)]


def test_honest_pirate_decodes_with_exact_engine(small_stack):
    params = wmprf.ExtractParams(
        k=small_stack["params"].k,
        eps=small_stack["params"].eps,
        delta_prime=0.2,
        s=4,
        engine="exact",
    )
    prog = pirates.honest_pirate(small_stack["circuit"])
    report = wmprf.extract(
        small_stack["coin_key"], small_stack["tag"], prog, params, rng_for("wm-honest-exact")
    )
    assert report.decoded == small_stack["message"]
    assert report.engine == "exact"


def test_coin_pirate_reports_unmarked(small_stack):
    prog = pirates.coin_pirate()
    report = wmprf.extract(
        small_stack["coin_key"], small_stack["tag"], prog, small_stack["params"], rng_for("wm-coin")
    )
    assert report.unmarked
    assert report.decoded == wmprf.UNMARKED
    assert report.bit_estimates == ()
    assert len(report.calls) == 1  # the gate run only


def test_anti_pirate_gate_behavior(small_stack):
    # the anti pirate disagrees with the circuit everywhere: on the gate
    # distribution its estimate sits near 1 - (honest value), far below the
    # gate threshold, so it reads as unmarked
    prog = pirates.anti_pirate(small_stack["circuit"])
    report = wmprf.extract(
        small_stack["coin_key"], small_stack["tag"], prog, small_stack["params"], rng_for("wm-anti")
    )
    assert report.unmarked


def test_extraction_report_json_round_trip(small_stack):
    import json

    prog = pirates.honest_pirate(small_stack["circuit"])
    report = wmprf.extract(
        small_stack["coin_key"], small_stack["tag"], prog, small_stack["params"], rng_for("wm-json")
    )
    blob = json.dumps(report.to_json_dict(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["decoded"] == report.decoded
    assert parsed["k"] == report.k
    assert len(parsed["calls"]) == len(report.calls)
    assert all("index" in c and "engine" in c for c in parsed["calls"])


def test_extract_rejects_mismatched_tag(small_stack):
    params = wmprf.ExtractParams(k=5, eps=0.25)
    with pytest.raises(LengthError):
        wmprf.extract(
            small_stack["coin_key"],
            small_stack["tag"],
            pirates.coin_pirate(),
            params,
            rng_for("wm-mismatch"),
        )


# ---------------------------------------------------------------------------
# liveness probe
# ---------------------------------------------------------------------------


def test_live_probe_honest_and_coin(small_stack):
    params = small_stack["params"]
    prfk = small_stack["prfk"]
    honest = pirates.honest_pirate(small_stack["circuit"])
    live, p = wmprf.live_probe(
        honest, prfk, params, small_stack["coin_key"], b"live-seed-000000", rng_for("wm-live-h")
    )
    assert live and p == 1.0
    coin = pirates.coin_pirate()
    live, p = wmprf.live_probe(
        coin, prfk, params, small_stack["coin_key"], b"live-seed-000000", rng_for("wm-live-c")
    )
    assert not live
    assert p <= 0.75 + 1e-9  # a two-point spectrum around 1/2


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------


def test_run_event_trial_and_classify():
    params = wmprf.ExtractParams(k=3, eps=0.25, delta_prime=0.05, s=8)
    ep = elwm.ElwmParams(4, seed_bits=6, range_bits=12)
    local = rng_for("wm-events")
    results = []
    for kind in ("honest", "honest", "coin"):
        builder = pirates.honest_pirate if kind == "honest" else (lambda c: pirates.coin_pirate())
        results.append(
            wmprf.run_event_trial(params, builder, "101", local, elwm_params=ep)
        )
    tally = wmprf.classify_events(results)
    assert tally.trials == 3
    # honest copies are always live (they answer every real query correctly);
    # the coin copy may or may not be, depending on the coin-count balance
    assert results[0].live and results[1].live
    assert tally.live >= 2
    assert tally.good_ext == 2
    assert tally.bad_ext == 0
    assert tally.unmarked == 1
    assert results[0].report.decoded == "101"
    assert results[1].report.decoded == "101"
    assert results[2].report.unmarked


def test_event_tally_validation():
    with pytest.raises(InvariantError):
        wmprf.EventTally(trials=2, live=3, good_ext=0, bad_ext=0, unmarked=0, fallback=0)
    wmprf.EventTally(trials=2, live=1, good_ext=1, bad_ext=0, unmarked=1, fallback=0)
