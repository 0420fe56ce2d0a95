"""Checks of the benchmark itself.  Run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import qwbench

COUNTS = (
    "elwm.circuit_run.calls",
    "elwm.build_distribution.calls",
    "api.distribution_povm.calls",
    "wmprf.measure_calls",
    "api.exact_rounds",
)
UNSEEN_SEED = 424242  # not used while the benchmark or its reference was built


@pytest.fixture(autouse=True)
def work_root():
    qwbench.WORK_ROOT.mkdir(exist_ok=True)
    yield
    shutil.rmtree(qwbench.WORK_ROOT, ignore_errors=True)


def _small(name: str) -> qwbench.Workload:
    workload = qwbench.WORKLOADS[name]
    return dataclasses.replace(workload, trace_trials=1 if not workload.closed_loop else len(workload.pirates))


@pytest.mark.parametrize("name", sorted(qwbench.WORKLOADS))
def test_counts_repeat_exactly_and_traced_rows_match(name):
    workload = _small(name)
    reference = qwbench.load_reference()
    runs = [qwbench.run_traced(workload, UNSEEN_SEED, reference) for _ in range(2)]
    for metrics, tally, _ in runs:
        assert tally.failed == 0, "traced rows differ from untraced rows, or an invariant broke"
        assert metrics["trace.coverage"]["value"] >= 0.95
    first, second = (metrics for metrics, _, _ in runs)
    assert {c: first[c]["value"] for c in COUNTS} == {c: second[c]["value"] for c in COUNTS}
    assert first["elwm.circuit_run.calls"]["value"] > 0


@pytest.mark.parametrize("name", sorted(qwbench.WORKLOADS))
def test_pinned_digests_match_and_a_changed_digest_fails(name):
    workload = qwbench.WORKLOADS[name]
    reference = qwbench.load_reference()[name]
    tally = qwbench.Tally()
    if workload.closed_loop:
        qwbench.run_closed_loop(workload, qwbench.DEFAULT_SEED, tally, reference, count=1)
        broken = {"rows": ["0" * 16]}
    else:
        qwbench.experiment_round(workload, qwbench.DEFAULT_SEED, 0, 1, qwbench.WORK_ROOT, tally, reference)
        broken = {"rows": {"0/0": "0" * 16}}
    assert tally.attempted > 0 and tally.failed == 0
    tally = qwbench.Tally()
    if workload.closed_loop:
        qwbench.run_closed_loop(workload, qwbench.DEFAULT_SEED, tally, broken, count=1)
    else:
        qwbench.experiment_round(workload, qwbench.DEFAULT_SEED, 0, 1, qwbench.WORK_ROOT, tally, broken)
    assert tally.failed == (1 if workload.closed_loop else 2)  # experiment: the --jobs 1 and --jobs nproc rows


def test_invariants():
    honest = {"pirate": "honest", "live": "1", "bad_ext": "0"}
    assert qwbench._invariants_hold(honest)
    assert not qwbench._invariants_hold(dict(honest, live="0"))
    assert not qwbench._invariants_hold(dict(honest, bad_ext="1"))
    assert not qwbench._invariants_hold({"pirate": "anti", "live": "0", "bad_ext": "1"})
    assert qwbench._invariants_hold({"pirate": "coin", "live": "0", "bad_ext": "1"})


def test_tail_is_the_eleventh_largest_sample():
    p50, tail, note = qwbench.latency_summary([i / 1000 for i in range(1, 101)])
    assert p50 == pytest.approx(50.5)
    assert tail == pytest.approx(90.0)
    assert note.startswith("p90.0 of 100")
    p50, tail, _ = qwbench.latency_summary([i / 1000 for i in range(1, 13)])
    assert tail == p50


def test_refuses_to_run_without_the_program(tmp_path):
    here = Path(qwbench.__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    argv = [sys.executable, *command[1:], "--workload", "honest_s8", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_timeline_scales_each_piece_by_the_samples_around_it(monkeypatch):
    samples = iter([0.02, 0.01, 0.005])
    monkeypatch.setattr(hostspeed, "calibrate", lambda: next(samples))
    timeline = hostspeed.Timeline()
    timeline.add(0.3)
    timeline.tick(force=True)
    timeline.add(0.1)
    scaled = timeline.scaled()  # takes the closing sample
    ref = hostspeed.CAL_REF_S
    assert scaled == pytest.approx([0.3 * ref / 0.015, 0.1 * ref / 0.0075])
    assert timeline.raw() == [0.3, 0.1]
