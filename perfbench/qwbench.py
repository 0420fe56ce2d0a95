"""Workloads, correctness checks and metrics of the qwmark benchmark.

Every workload is one experiment configuration: the extraction parameters
plus a list of pirate specs.  Three workloads drive `wmprf.run_event_trial`
in a closed loop, one trial at a time, cycling through their pirate list;
`experiment_jobs` drives `qwmark experiment` and `qwmark verify` through
`cli.main`.  All workloads use seed_bits=6, range_bits=12 and eps=0.25.

A trial's rng comes from (seed, trial index), so a seed fixes every input.
Each trial's row carries the `rows.csv` columns.  A trial fails if it
raises, if its row differs from the digest pinned in `reference.json` for
the default seed, or if it breaks a game invariant: BadExt from a classical
(honest or anti) pirate, or an honest pirate that is not live.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from hostspeed import CAL_REF_S, Timeline
from qwmark import cli, elwm, pirates, wmprf
from tracing import CLASSICAL_SPANS, Tracer, patched, replay_primitives

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORK_ROOT = ROOT / ".perfbench_tmp"
DEFAULT_SEED = 1
NPROC = len(os.sched_getaffinity(0))
SETUP_PROBES = 7  # fresh processes timed in every untraced run, spread over it
# Trials per pirate in each untraced experiment round: 80 rows, ten of the
# runner's 8-trial chunks, so that the two pool workers end close together.
ROUND_TRIALS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    delta_prime: float
    s: int
    engine: str
    pirates: tuple[dict, ...]
    trace_trials: int  # closed loop: trials per traced pass; experiment: trials per batch
    pinned_trials: int  # trials of the default seed replayed against the digests in every run

    @property
    def closed_loop(self) -> bool:
        return self.name != "experiment_jobs"

    def config(self, seed: int, trials: int) -> dict:
        return {
            "k": self.k,
            "eps": 0.25,
            "trials": trials,
            "seed": seed,
            "seed_bits": 6,
            "range_bits": 12,
            "delta_prime": self.delta_prime,
            "s": self.s,
            "engine": self.engine,
            "message": "random",
            "pirates": list(self.pirates),
        }


def _superposed(theta: float) -> dict:
    return {"kind": "superposed", "theta": theta, "branch_a": "honest", "branch_b": "coin"}


# Trial length is bimodal under a superposed pirate: a trial that stops at
# the gate makes one measurement, one that passes makes k+1.  Under a real
# superposition the gate outcome is a coin flip, so the share of long trials,
# and with it a run's throughput and median, would vary from seed to seed by
# more than the bounds allow.  The closed-loop workloads therefore use angles
# whose gate outcome is fixed: theta=0 (the honest branch) always passes and
# theta=pi/2 (the coin branch) stops at the gate, bar a rare lucky coin
# sample.  Both keep the 4-dimensional program, its 4x4 projectors and the
# coin space of a genuine superposition.  In experiment_jobs, theta=pi/4 would
# also put the median of the mixed rows on the edge between the cheap trials
# (anti, coin, gate stops) and the full extractions, so it uses pi/2 as well.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("honest_s8", 4, 0.01, 8, "fast", ({"kind": "honest"},), 200, 8),
        Workload(
            "superposed_s64",
            4,
            0.01,
            64,
            "fast",
            tuple(_superposed(t) for t in (0.0, 0.0, math.pi / 2)),
            30,
            3,
        ),
        Workload("exact_s8", 2, 0.05, 8, "exact", (_superposed(0.0),), 4, 1),
        Workload(
            "experiment_jobs",
            3,
            0.01,
            16,
            "fast",
            (
                {"kind": "honest"},
                {"kind": "anti"},
                {"kind": "coin"},
                {"kind": "noisy", "eta": 0.1},
                _superposed(math.pi / 2),
            ),
            4,
            2,
        ),
    )
}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool):
        self.attempted += 1
        self.failed += not ok


# ---------------------------------------------------------------------------
# rows and their checks
# ---------------------------------------------------------------------------


def _row_line(row: dict) -> str:
    out = io.StringIO()
    csv.DictWriter(out, fieldnames=cli.ROW_FIELDS, lineterminator="\n").writerow(row)
    return out.getvalue()


def _digest(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()[:16]


def _pirate_label(spec: dict) -> str:
    if spec["kind"] == "superposed":
        return f"superposed(theta={spec['theta']!r},{spec['branch_a']},{spec['branch_b']})"
    if spec["kind"] == "noisy":
        return f"noisy(eta={spec['eta']!r})"
    return spec["kind"]


def _invariants_hold(row: dict) -> bool:
    """Honest pirates are live and both classical pirates never give BadExt.

    Randomized pirates (coin, noisy, superposed) may pass the gate on a
    lucky coin sample and exit a band with the all-zero fallback, which
    the rows count as BadExt; that is a measured frequency, not a failure.
    """
    if row["pirate"] in ("honest", "anti") and int(row["bad_ext"]) != 0:
        return False
    return row["pirate"] != "honest" or int(row["live"]) == 1


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _pinned(reference: dict, workload: Workload, seed: int) -> dict:
    return reference[workload.name] if seed == DEFAULT_SEED else {}


# ---------------------------------------------------------------------------
# closed loop over wmprf.run_event_trial
# ---------------------------------------------------------------------------


def closed_loop_trial(workload: Workload, seed: int, index: int) -> tuple[dict, float]:
    """Run trial `index` of the seed; returns its row and run_event_trial latency."""
    batch = index % len(workload.pirates)
    spec = pirates.PirateSpec.from_dict(workload.pirates[batch])
    rng = np.random.default_rng([seed, index])
    message = "".join(str(b) for b in rng.integers(0, 2, size=workload.k))
    params = wmprf.ExtractParams(
        k=workload.k, eps=0.25, delta_prime=workload.delta_prime, s=workload.s, engine=workload.engine
    )
    elwm_params = elwm.ElwmParams(workload.k + 1, 6, 12)
    start = perf_counter()
    result = wmprf.run_event_trial(
        params, lambda circuit: pirates.build_pirate(spec, circuit), message, rng, elwm_params=elwm_params
    )
    latency = perf_counter() - start
    report = result.report
    row = {
        "batch": batch,
        "pirate": _pirate_label(workload.pirates[batch]),
        "trial": index,
        "message": message,
        "live": int(result.live),
        "live_p": repr(result.live_p),
        "gate_estimate": repr(report.gate_estimate),
        "decoded": report.decoded,
        "fallback": int(report.fallback),
        "good_ext": int(not report.unmarked),
        "bad_ext": int((not report.unmarked) and report.decoded != message),
        "bit_estimates": ";".join(repr(e) for e in report.bit_estimates),
    }
    return row, latency


def run_closed_loop(workload, seed, tally: Tally, pinned: dict, *, seconds=None, count=None, first=0, timeline=None):
    """Closed loop, one trial at a time from index `first`, for `seconds` (at
    least one trial) or for `count` trials.

    Returns (row lines, rows, wall seconds).  A failed trial leaves an empty
    line, so that two passes over the same trials stay aligned.  The latency
    of every passing trial goes to `timeline`, if one is given.
    """
    digests = pinned.get("rows", [])
    lines, rows = [], []
    start = perf_counter()
    index = first
    while (index == first or perf_counter() - start < seconds) if count is None else (index < first + count):
        if timeline is not None:
            timeline.tick()
        try:
            row, latency = closed_loop_trial(workload, seed, index)
        except Exception as exc:  # a raising trial is a failed trial, not a crash
            print(f"# trial {index} raised {exc!r}", file=sys.stderr)
            line, ok = "", False
        else:
            line = _row_line(row)
            ok = _invariants_hold(row) and (index >= len(digests) or _digest(line) == digests[index])
            rows.append(row)
            if ok and timeline is not None:
                timeline.add(latency)
        tally.add(ok)
        lines.append(line)
        index += 1
    return lines, rows, perf_counter() - start


# ---------------------------------------------------------------------------
# qwmark experiment through cli.main
# ---------------------------------------------------------------------------


def _round_seed(seed: int, round_index: int) -> int:
    return int(np.random.SeedSequence([seed, round_index]).generate_state(1)[0])


def _cli(argv: list[str]) -> tuple[int, float]:
    sink = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    return code, perf_counter() - start


@contextlib.contextmanager
def _timed_trials(timeline: Timeline):
    """Add the latency of each run_event_trial call made in this process to `timeline`."""
    original = wmprf.run_event_trial

    def timed(*args, **kwargs):
        timeline.tick()
        start = perf_counter()
        result = original(*args, **kwargs)
        timeline.add(perf_counter() - start)
        return result

    with patched(wmprf, "run_event_trial", timed):
        yield


@dataclass
class ExperimentPass:
    jobs: int
    wall_s: float
    verify_s: float
    rows: bytes
    summary: bytes
    ok: bool


def experiment_pass(
    config_path: Path, out: Path, jobs: int, tracer: Tracer | None = None, timeline: Timeline | None = None
) -> ExperimentPass:
    """`qwmark experiment` then `qwmark verify`, each timed as one command.

    With a timeline (at --jobs 1, where the trials run in this process), the
    latency of every trial goes to it.
    """
    argv = ["experiment", "--config", str(config_path), "--out", str(out), "--jobs", str(jobs)]
    verify_argv = ["verify", "--rows", str(out / "rows.csv"), "--summary", str(out / "summary.json")]
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
            run = tracer.span("cli.experiment", _cli)
            verify = tracer.span("cli.verify", _cli)
        else:
            if timeline is not None:
                stack.enter_context(_timed_trials(timeline))
            run = verify = _cli
        code, wall = run(argv)
        verify_code, verify_wall = verify(verify_argv) if code == 0 else (1, 0.0)
    ok = code == 0 and verify_code == 0
    rows = (out / "rows.csv").read_bytes() if ok else b""
    summary = (out / "summary.json").read_bytes() if ok else b""
    return ExperimentPass(jobs, wall, verify_wall, rows, summary, ok)


def check_experiment(passes: list[ExperimentPass], tally: Tally, pinned: dict, trials: int, workload: Workload):
    """Tally every trial of every pass: all passes must agree byte for byte."""
    expected = len(workload.pirates) * trials
    base = passes[0]
    digests = pinned.get("rows", {})
    for p in passes:
        agree = p.ok and p.rows == base.rows and p.summary == base.summary
        rows = list(csv.DictReader(io.StringIO(p.rows.decode()))) if agree else []
        if len(rows) != expected:
            tally.attempted += expected
            tally.failed += expected
            continue
        for row in rows:
            digest = _digest(_row_line(row))
            tally.add(_invariants_hold(row) and digests.get(f"{row['batch']}/{row['trial']}", digest) == digest)


@dataclass
class Round:
    jobs1: ExperimentPass
    jobsn: ExperimentPass
    traced: ExperimentPass | None


def experiment_round(
    workload, seed, round_index, trials, work: Path, tally, pinned, *, tracer=None, timeline=None, overhead=None
):
    """One config at --jobs 1 and at --jobs nproc, plus a traced --jobs 1 pass when tracing.

    `timeline` gets the latency of every --jobs 1 trial.  `overhead` gets the
    runner's own time at --jobs 1: the experiment's wall time less its trials
    and the kernel samples taken among them.
    """
    config = workload.config(_round_seed(seed, round_index), trials)
    directory = work / f"round{round_index}"
    directory.mkdir(parents=True)
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(config))
    if overhead is not None:
        overhead.tick(force=True)
        sampled, timed = sum(timeline.samples), sum(timeline.raw())
    jobs1 = experiment_pass(config_path, directory / "jobs1", 1, timeline=timeline)
    if overhead is not None:
        overhead.add(jobs1.wall_s - (sum(timeline.samples) - sampled) - (sum(timeline.raw()) - timed))
    jobsn = experiment_pass(config_path, directory / "jobsn", NPROC)
    traced = experiment_pass(config_path, directory / "traced", 1, tracer) if tracer is not None else None
    result = Round(jobs1, jobsn, traced)
    passes = [jobs1, jobsn] + ([traced] if traced else [])
    check_experiment(passes, tally, pinned if round_index == 0 else {}, trials, workload)
    shutil.rmtree(directory)
    return result


# ---------------------------------------------------------------------------
# set-up time, memory, environment
# ---------------------------------------------------------------------------


def _noop(i: int) -> int:
    return i


def probe_setup(workload: Workload):
    """Do what a run does before its first trial can begin, then report ready."""
    if not workload.closed_loop:
        with tempfile.TemporaryDirectory(dir=WORK_ROOT) as work:
            (Path(work) / "config.json").write_text(json.dumps(workload.config(DEFAULT_SEED, 1)))
            with ProcessPoolExecutor(max_workers=NPROC) as pool:
                list(pool.map(_noop, range(NPROC)))
                print("ready", flush=True)
        return
    print("ready", flush=True)


def setup_probe_s(workload: Workload) -> float:
    """Time from starting a fresh benchmark process until its first trial could begin."""
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload.name, "--probe-setup"],
        stdout=subprocess.PIPE,
        cwd=ROOT,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe exited {proc.returncode} after {line!r}")
    return elapsed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: value for var, value in sorted(os.environ.items()) if var.endswith("_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def latency_summary(latencies: list[float]) -> tuple[float, float, str]:
    """Median and tail latency in ms, with a note on how the tail was taken.

    The tail is the highest percentile with at least ten samples beyond it,
    the 11th-largest latency.  Below 20 samples that percentile lies under
    the median, so the median stands in for it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    p50 = statistics.median(ordered) * 1e3
    if n < 20:
        return p50, p50, f"median of {n} trials (fewer than 20, so no percentile above it has ten beyond)"
    return p50, ordered[n - 11] * 1e3, f"p{100.0 * (n - 10) / n:.1f} of {n} trials (10 beyond)"


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(workload: Workload, seed: int, seconds: float, reference: dict) -> tuple[dict, Tally, list[str]]:
    """Measure for `seconds`, set-up probes included, with trial times scaled to the reference host speed.

    See `hostspeed` for the scaling.  Set-up time goes to process start,
    imports and file reads, which the kernel samples next to one probe were
    seen not to track; so the median of the SETUP_PROBES probes, spread over
    the run, is scaled by the median kernel time of the whole run.
    """
    tally = Tally()
    pinned = _pinned(reference, workload, seed)
    trials_tl, setup = Timeline(), []
    start = perf_counter()
    deadline = start + seconds

    if workload.closed_loop:
        index = 0
        for left in range(SETUP_PROBES, 0, -1):
            setup.append(setup_probe_s(workload))
            share = max(deadline - perf_counter(), 0.0) / left
            lines, _, _ = run_closed_loop(workload, seed, tally, pinned, seconds=share, first=index, timeline=trials_tl)
            if index == 0:
                first_lines = lines
            index += len(lines)
        # a trial's row may not depend on when it runs: run the first ones again
        repeat = min(len(first_lines), workload.pinned_trials)
        again, _, _ = run_closed_loop(workload, seed, tally, pinned, count=repeat)
        tally.failed += sum(a != b for a, b in zip(first_lines, again))
        latencies = trials_tl.scaled()
        throughput = len(latencies) / sum(latencies)
        how = f"trials_per_s over {len(latencies)} trials of a closed loop"
    else:
        overhead = Timeline()
        trials = round_index = 0
        with tempfile.TemporaryDirectory(dir=WORK_ROOT) as work:
            while round_index == 0 or perf_counter() < deadline:
                # probes fall due evenly over the run, several before a round if need be
                while len(setup) < SETUP_PROBES and perf_counter() >= start + len(setup) * seconds / SETUP_PROBES:
                    setup.append(setup_probe_s(workload))
                experiment_round(
                    workload, seed, round_index, ROUND_TRIALS, Path(work), tally, pinned,
                    timeline=trials_tl, overhead=overhead,
                )
                trials += len(workload.pirates) * ROUND_TRIALS
                round_index += 1
        setup += [setup_probe_s(workload) for _ in range(SETUP_PROBES - len(setup))]
        latencies = trials_tl.scaled()
        throughput = trials / (sum(latencies) + sum(overhead.scaled()))
        how = f"trials_per_s and latencies at --jobs 1 over {round_index} rounds; --jobs {NPROC} checked, not timed"
    p50, tail, tail_note = latency_summary(latencies)
    raw_p50 = statistics.median(trials_tl.raw()) * 1e3
    kernel = statistics.median(trials_tl.samples)
    setup_s = statistics.median(setup) * CAL_REF_S / kernel
    notes = [
        how,
        f"trial_tail_ms is the {tail_note}",
        f"setup_s is the median of {len(setup)} fresh processes, unscaled {statistics.median(setup):.4f} s",
        f"times are scaled to a kernel time of {CAL_REF_S * 1e3:g} ms; unscaled trial p50 {raw_p50:.3f} ms, "
        f"median kernel time {kernel * 1e3:.3f} ms over {len(trials_tl.samples)} samples",
    ]
    metrics = {
        "trials_per_s": _metric(throughput, "1/s"),
        "trial_p50_ms": _metric(p50, "ms"),
        "trial_tail_ms": _metric(tail, "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }
    return metrics, tally, notes


def _row_ratios(rows: list[dict]) -> dict:
    n = max(len(rows), 1)
    return {
        "wmprf.gate_pass_ratio": _metric(sum(int(r["good_ext"]) for r in rows) / n, "ratio"),
        "wmprf.live_ratio": _metric(sum(int(r["live"]) for r in rows) / n, "ratio"),
        "wmprf.fallback_count": _metric(sum(int(r["fallback"]) for r in rows), "count"),
        "wmprf.bad_ext_count": _metric(sum(int(r["bad_ext"]) for r in rows), "count"),
    }


def run_traced(workload: Workload, seed: int, reference: dict) -> tuple[dict, Tally, list[str]]:
    """Untraced and traced passes over one fixed trial set; rows must match."""
    tally = Tally()
    pinned = _pinned(reference, workload, seed)
    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as work:
        if workload.closed_loop:
            n = workload.trace_trials
            lines, _, untraced_wall = run_closed_loop(workload, seed, tally, pinned, count=n)
            with tracer.installed():
                traced_lines, rows, traced_wall = run_closed_loop(workload, seed, tally, pinned, count=n)
            tally.failed += sum(a != b for a, b in zip(lines, traced_lines))
            # the cli runner on this workload's config, at least one trial per worker
            trials = math.ceil(NPROC / len(workload.pirates))
            rounds = [experiment_round(workload, seed, 0, trials, Path(work), tally, {})]
        else:
            rounds = [
                experiment_round(workload, seed, r, workload.trace_trials, Path(work), tally, pinned, tracer=tracer)
                for r in range(2)
            ]
            untraced_wall = sum(r.jobs1.wall_s + r.jobs1.verify_s for r in rounds)
            traced_wall = sum(r.traced.wall_s + r.traced.verify_s for r in rounds)
            rows = [row for r in rounds for row in csv.DictReader(io.StringIO(r.traced.rows.decode()))]
    replay = replay_primitives(tracer.sample)
    s, c = tracer.self_s, tracer.calls
    run_api_s = s["api.run_api"]
    metrics = {
        "elwm.circuit_run.calls": _metric(c["elwm.circuit_run"], "count"),
        "elwm.circuit_run.self_s": _metric(s["elwm.circuit_run"], "s"),
        "elwm.circuit_run.us_per_call": _metric(s["elwm.circuit_run"] / max(c["elwm.circuit_run"], 1) * 1e6, "us"),
        "elwm.build_distribution.calls": _metric(c["elwm.build_distribution"], "count"),
        "elwm.build_distribution.self_s": _metric(s["elwm.build_distribution"], "s"),
        "elwm.gen.self_s": _metric(s["elwm.gen"], "s"),
        "elwm.mark.self_s": _metric(s["elwm.mark"], "s"),
        "crypto.ggm_eval.us_per_call": _metric(replay["crypto.ggm_eval"], "us"),
        "pe.pe_enc.us_per_call": _metric(replay["pe.pe_enc"], "us"),
        "pe.pe_dec.us_per_call": _metric(replay["pe.pe_dec"], "us"),
        "api.distribution_povm.calls": _metric(c["api.distribution_povm"], "count"),
        "api.distribution_povm.self_s": _metric(s["api.distribution_povm"], "s"),
        "spectral.projimp.self_s": _metric(s["spectral.projimp"], "s"),
        "api.run_api.self_s": _metric(run_api_s, "s"),
        "api.exact_rounds": _metric(tracer.exact_rounds, "count"),
        "api.exact_rounds_per_s": _metric(tracer.exact_rounds / run_api_s if tracer.exact_rounds else 0.0, "1/s"),
        "wmprf.measure_calls": _metric(c["api.run_api"], "count"),
        **_row_ratios(rows),
        "cli.experiment.wall_s": _metric(statistics.median(r.jobsn.wall_s for r in rounds), "s"),
        "cli.verify.wall_s": _metric(statistics.median(p.verify_s for r in rounds for p in (r.jobs1, r.jobsn)), "s"),
        "cli.parallel_eff": _metric(
            sum(r.jobs1.wall_s for r in rounds) / sum(r.jobsn.wall_s for r in rounds) / NPROC, "ratio"
        ),
        "trace.coverage": _metric(tracer.total_self_s() / traced_wall, "ratio"),
        "trace.overhead": _metric(traced_wall / untraced_wall, "ratio"),
        "trace.classical_share": _metric(sum(s[name] for name in CLASSICAL_SPANS) / traced_wall, "ratio"),
        "trace.run_api_share": _metric(run_api_s / traced_wall, "ratio"),
    }
    spans = json.dumps({name: round(value, 4) for name, value in sorted(s.items())})
    return metrics, tally, [f"traced {len(rows)} trials; span self seconds: {spans}"]


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    reference = load_reference()
    WORK_ROOT.mkdir(exist_ok=True)
    if trace:
        metrics, tally, notes = run_traced(workload, seed, reference)
    else:
        metrics, tally, notes = run_untraced(workload, seed, seconds, reference)
    # replay the first trials of the default seed against the pinned digests
    pinned = reference[workload.name]
    if workload.closed_loop:
        run_closed_loop(workload, DEFAULT_SEED, tally, pinned, count=workload.pinned_trials)
    else:
        with tempfile.TemporaryDirectory(dir=WORK_ROOT) as work:
            experiment_round(workload, DEFAULT_SEED, 0, workload.pinned_trials, Path(work), tally, pinned)
    with contextlib.suppress(OSError):
        WORK_ROOT.rmdir()
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, notes


def write_reference():
    """Pin the row digests of the default seed for every workload."""
    reference = {}
    WORK_ROOT.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        tally = Tally()
        if workload.closed_loop:
            lines, _, _ = run_closed_loop(workload, DEFAULT_SEED, tally, {}, count=workload.trace_trials)
            reference[workload.name] = {"seed": DEFAULT_SEED, "rows": [_digest(line) for line in lines]}
        else:
            with tempfile.TemporaryDirectory(dir=WORK_ROOT) as work:
                result = experiment_round(workload, DEFAULT_SEED, 0, workload.trace_trials, Path(work), tally, {})
            rows = csv.DictReader(io.StringIO(result.jobs1.rows.decode()))
            reference[workload.name] = {
                "seed": DEFAULT_SEED,
                "rows": {f"{r['batch']}/{r['trial']}": _digest(_row_line(r)) for r in rows},
            }
        if tally.failed:
            raise RuntimeError(f"{workload.name}: {tally.failed} trials failed while pinning")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
