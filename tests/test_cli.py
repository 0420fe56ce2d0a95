"""Command-line surface: determinism, format compatibility with the library,
experiment artifacts, and exit codes."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwmark import api, cli, elwm, native, wmprf
from qwmark.pirates import honest_pirate

from conftest import child_env, keyed_rand, malformed_bits, sim


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture
def keys(tmp_path):
    """keygen output reused across CLI tests."""
    out = tmp_path / "keys" / "demo"
    assert run_cli("keygen", "--k", 3, "--seed-bits", 6, "--range-bits", 12, "--seed", 7, "--out", out) == 0
    return {
        "prfk": out.with_suffix(".prfk"),
        "tag": out.with_suffix(".tag"),
        "xk": out.with_suffix(".xk"),
        "dir": tmp_path,
    }


# ---------------------------------------------------------------------------
# keygen / mark / eval
# ---------------------------------------------------------------------------


def test_keygen_writes_loadable_deterministic_keys(tmp_path, keys):
    prfk = elwm.PrfKeyIo.from_bytes(keys["prfk"].read_bytes())
    tag = elwm.TagIo.from_bytes(keys["tag"].read_bytes())
    assert prfk.gen_id == tag.gen_id
    assert prfk.params.msg_bits == 4  # k + 1 carrier positions
    assert len(keys["xk"].read_bytes()) == 16
    # same seed, fresh prefix: byte-identical artifacts
    again = tmp_path / "again" / "demo"
    assert run_cli("keygen", "--k", 3, "--seed-bits", 6, "--range-bits", 12, "--seed", 7, "--out", again) == 0
    assert again.with_suffix(".prfk").read_bytes() == keys["prfk"].read_bytes()
    assert again.with_suffix(".tag").read_bytes() == keys["tag"].read_bytes()
    assert again.with_suffix(".xk").read_bytes() == keys["xk"].read_bytes()
    # different seed: different keys
    other = tmp_path / "other" / "demo"
    assert run_cli("keygen", "--k", 3, "--seed-bits", 6, "--range-bits", 12, "--seed", 8, "--out", other) == 0
    assert other.with_suffix(".prfk").read_bytes() != keys["prfk"].read_bytes()


def test_mark_and_eval_match_library(tmp_path, keys, capsys):
    circ_path = tmp_path / "marked.circ"
    assert run_cli("mark", "--key", keys["prfk"], "--message", "101", "--out", circ_path) == 0
    capsys.readouterr()

    prfk = elwm.PrfKeyIo.from_bytes(keys["prfk"].read_bytes())
    circuit = wmprf.wm_mark(prfk, "101")
    assert elwm.marked_circuit_from_bytes(circ_path.read_bytes()) == circuit

    x = "01" * (prfk.params.domain_bits // 2)
    assert run_cli("eval", "--key", keys["prfk"], "--input", x) == 0
    out_key = capsys.readouterr().out.strip()
    assert out_key == elwm.eval_prf(prfk, x)

    assert run_cli("eval", "--circuit", circ_path, "--input", x) == 0
    out_circ = capsys.readouterr().out.strip()
    assert out_circ == circuit.run(x)


def test_eval_circuit_refuses_malformed_inputs(tmp_path, keys, capsys):
    circ_path = tmp_path / "marked.circ"
    assert run_cli("mark", "--key", keys["prfk"], "--message", "101", "--out", circ_path) == 0
    n = elwm.PrfKeyIo.from_bytes(keys["prfk"].read_bytes()).params.domain_bits
    capsys.readouterr()
    for x in malformed_bits(n):
        assert run_cli("eval", "--circuit", circ_path, "--input", x) == cli.EXIT_LENGTH
        err = capsys.readouterr().err
        assert "input" in err and "Traceback" not in err


def test_eval_requires_exactly_one_source(keys, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("eval", "--input", "0101")
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# sim
# ---------------------------------------------------------------------------


def test_sim_matches_library_coins(tmp_path, keys, capsys):
    out = tmp_path / "triples.json"
    assert run_cli("sim", "--tag", keys["tag"], "--xk", keys["xk"], "--index", 2, "--count", 3, "--seed", 11, "--out", out) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["index"] == 2 and payload["count"] == 3
    tag = elwm.TagIo.from_bytes(keys["tag"].read_bytes())
    coin_key = keys["xk"].read_bytes()
    for r, triple in enumerate(payload["triples"]):
        coins = keyed_rand(
            coin_key,
            (11).to_bytes(8, "big") + b"S" + (2).to_bytes(2, "big") + r.to_bytes(4, "big"),
            elwm.sim_coin_bits(tag.params),
        )
        gamma, x, y = sim(tag.params, tag, 2, coins)
        assert triple == {"gamma": gamma, "x": x, "y": y}


def test_sim_rejects_bad_index(keys, capsys):
    assert run_cli("sim", "--tag", keys["tag"], "--xk", keys["xk"], "--index", 9, "--seed", 1) == cli.EXIT_LENGTH
    capsys.readouterr()


@pytest.mark.parametrize(
    "index, count, code",
    [
        (1, 0, cli.EXIT_LENGTH),
        (1, -2, cli.EXIT_LENGTH),
        (70000, 1, cli.EXIT_LENGTH),
        (-1, 1, cli.EXIT_LENGTH),
        (1, elwm.MAX_TRIPLES + 1, cli.EXIT_LENGTH),
    ],
)
def test_sim_rejects_empty_counts_and_out_of_range_indices(tmp_path, keys, capsys, index, count, code):
    out = tmp_path / "triples.json"
    argv = ["sim", "--tag", keys["tag"], "--xk", keys["xk"], "--index", index, "--count", count, "--seed", 11]
    assert run_cli(*argv, "--out", out) == code
    assert not out.exists()
    capsys.readouterr()


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------


def test_extract_honest_decodes(tmp_path, keys, capsys):
    circ_path = tmp_path / "marked.circ"
    run_cli("mark", "--key", keys["prfk"], "--message", "110", "--out", circ_path)
    out = tmp_path / "report.json"
    assert (
        run_cli(
            "extract",
            "--tag", keys["tag"],
            "--xk", keys["xk"],
            "--circuit", circ_path,
            "--pirate", "honest",
            "--eps", 0.25,
            "--delta-prime", 0.05,
            "--s", 8,
            "--seed", 5,
            "--out", out,
        )
        == 0
    )
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["decoded"] == "110"
    assert report["k"] == 3
    assert not report["fallback"]
    # library run with the same derived rng reproduces the report exactly
    tag = elwm.TagIo.from_bytes(keys["tag"].read_bytes())
    circuit = elwm.marked_circuit_from_bytes(circ_path.read_bytes())
    params = wmprf.ExtractParams(k=3, eps=0.25, delta_prime=0.05, s=8, engine="fast")
    lib_report = wmprf.extract(
        keys["xk"].read_bytes(), tag, honest_pirate(circuit), params, cli._rng_from_seed(5, b"extract")
    )
    assert lib_report.to_json_dict() == report


def test_extract_coin_is_unmarked(tmp_path, keys, capsys):
    circ_path = tmp_path / "marked.circ"
    run_cli("mark", "--key", keys["prfk"], "--message", "011", "--out", circ_path)
    out = tmp_path / "coin.json"
    assert (
        run_cli(
            "extract",
            "--tag", keys["tag"],
            "--xk", keys["xk"],
            "--circuit", circ_path,
            "--pirate", "coin",
            "--eps", 0.25,
            "--s", 8,
            "--seed", 5,
            "--out", out,
        )
        == 0
    )
    capsys.readouterr()
    assert json.loads(out.read_text())["decoded"] == "unmarked"


# ---------------------------------------------------------------------------
# experiment / verify
# ---------------------------------------------------------------------------


def experiment_config(tmp_path, **overrides) -> Path:
    config = {
        "k": 2,
        "eps": 0.25,
        "trials": 3,
        "seed": 99,
        "seed_bits": 6,
        "range_bits": 12,
        "delta_prime": 0.05,
        "s": 8,
        "engine": "fast",
        "message": "random",
        "pirates": [{"kind": "honest"}, {"kind": "coin"}],
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_experiment_artifacts_and_reproducibility(tmp_path, capsys):
    config = experiment_config(tmp_path)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert run_cli("experiment", "--config", config, "--out", out1) == 0
    assert run_cli("experiment", "--config", config, "--out", out2) == 0
    capsys.readouterr()

    rows1 = (out1 / "rows.csv").read_bytes()
    rows2 = (out2 / "rows.csv").read_bytes()
    assert rows1 == rows2  # wall-clock data lives in timings.csv, not here
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    assert (out1 / "timings.csv").exists()

    with (out1 / "rows.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6  # 2 batches x 3 trials
    assert [r["batch"] for r in rows] == ["0", "0", "0", "1", "1", "1"]
    honest_rows = [r for r in rows if r["batch"] == "0"]
    assert all(r["decoded"] == r["message"] for r in honest_rows)
    assert all(r["bad_ext"] == "0" for r in honest_rows)
    coin_rows = [r for r in rows if r["batch"] == "1"]
    # a coin pirate usually reads unmarked but can pass the gate on a lucky
    # coin imbalance at small s, so only the row structure is pinned here
    assert all(r["decoded"] == "unmarked" or len(r["decoded"]) == 2 for r in coin_rows)
    assert all(r["good_ext"] in ("0", "1") for r in coin_rows)

    summary = json.loads((out1 / "summary.json").read_text())
    assert [b["batch"] for b in summary["batches"]] == [0, 1]
    honest_batch = summary["batches"][0]
    assert honest_batch["decode_exact"]["count"] == 3
    assert honest_batch["bad_ext"]["count"] == 0
    assert 0.0 <= honest_batch["live"]["wilson_low"] <= honest_batch["live"]["wilson_high"] <= 1.0


def test_experiment_parallel_rows_match_serial(tmp_path, capsys):
    config = experiment_config(tmp_path, trials=2)
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert run_cli("experiment", "--config", config, "--out", serial) == 0
    assert run_cli("experiment", "--config", config, "--out", parallel, "--jobs", 2) == 0
    capsys.readouterr()
    assert (serial / "rows.csv").read_bytes() == (parallel / "rows.csv").read_bytes()


def test_experiment_overrides(tmp_path, capsys):
    config = experiment_config(tmp_path)
    out = tmp_path / "override"
    assert run_cli("experiment", "--config", config, "--out", out, "--trials", 1, "--seed", 5) == 0
    capsys.readouterr()
    with (out / "rows.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["seed"] == 5 and summary["config"]["trials"] == 1


def test_verify_accepts_and_detects_tampering(tmp_path, capsys):
    config = experiment_config(tmp_path, trials=2)
    out = tmp_path / "run"
    assert run_cli("experiment", "--config", config, "--out", out) == 0
    assert run_cli("verify", "--rows", out / "rows.csv", "--summary", out / "summary.json") == 0
    capsys.readouterr()

    rows_text = (out / "rows.csv").read_text()
    # flip one live flag: ,1, -> ,0, on the first honest row
    lines = rows_text.splitlines()
    fields = lines[1].split(",")
    fields[4] = "0" if fields[4] == "1" else "1"
    lines[1] = ",".join(fields)
    (out / "rows.csv").write_text("\n".join(lines) + "\n")
    assert run_cli("verify", "--rows", out / "rows.csv", "--summary", out / "summary.json") == 1
    capsys.readouterr()


def test_experiment_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"k": 2}))
    assert run_cli("experiment", "--config", bad, "--out", tmp_path / "x") == cli.EXIT_FORMAT
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{nope")
    assert run_cli("experiment", "--config", notjson, "--out", tmp_path / "y") == cli.EXIT_FORMAT
    for i, blob in enumerate((b"\xff\xfe{", b"5", b'"k"', b"[" * 200_000, b"1" * 5_000)):  # too deep, too many digits
        other = tmp_path / f"other{i}.json"
        other.write_bytes(blob)
        assert run_cli("experiment", "--config", other, "--out", tmp_path / "z") == cli.EXIT_FORMAT
        assert "Traceback" not in capsys.readouterr().err
    capsys.readouterr()


# ---------------------------------------------------------------------------
# exit codes and seams
# ---------------------------------------------------------------------------


def test_exit_codes_for_library_errors(tmp_path, keys, capsys):
    # eval with a wrong-length input: LengthError -> EXIT_LENGTH
    assert run_cli("eval", "--key", keys["prfk"], "--input", "01") == cli.EXIT_LENGTH
    # mark with a non-bit message
    assert run_cli("mark", "--key", keys["prfk"], "--message", "abc", "--out", tmp_path / "m") == cli.EXIT_LENGTH
    # eval with a corrupt key file: FormatError -> EXIT_FORMAT
    broken = tmp_path / "broken.prfk"
    broken.write_bytes(b"XXXXX" + keys["prfk"].read_bytes()[5:])
    assert run_cli("eval", "--key", broken, "--input", "01") == cli.EXIT_FORMAT
    # missing file: OSError is treated as an input-format problem
    assert run_cli("eval", "--key", tmp_path / "missing.prfk", "--input", "01") == cli.EXIT_FORMAT
    capsys.readouterr()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seeds_outside_64_bits_are_rejected(tmp_path, keys, capsys, seed):
    out = tmp_path / "bad" / "demo"
    assert run_cli("keygen", "--k", 3, "--seed", seed, "--out", out) == cli.EXIT_LENGTH
    assert not out.with_suffix(".prfk").exists()
    assert run_cli("sim", "--tag", keys["tag"], "--xk", keys["xk"], "--index", 1, "--seed", seed) == cli.EXIT_LENGTH
    circ_path = tmp_path / "marked.circ"
    assert run_cli("mark", "--key", keys["prfk"], "--message", "101", "--out", circ_path) == 0
    argv = ["extract", "--tag", keys["tag"], "--xk", keys["xk"], "--circuit", circ_path, "--eps", 0.25]
    assert run_cli(*argv, "--seed", seed) == cli.EXIT_LENGTH
    config = experiment_config(tmp_path, trials=1)
    assert run_cli("experiment", "--config", config, "--out", tmp_path / "x", "--seed", seed) == cli.EXIT_LENGTH
    assert run_cli("experiment", "--config", experiment_config(tmp_path, seed=seed), "--out", tmp_path / "y") == cli.EXIT_LENGTH
    assert not (tmp_path / "y" / "rows.csv").exists()
    capsys.readouterr()


def test_largest_seed_is_accepted(tmp_path, capsys):
    assert run_cli("keygen", "--k", 3, "--seed", 2**64 - 1, "--out", tmp_path / "max") == 0
    capsys.readouterr()


def test_experiment_rejects_non_integer_seed(tmp_path, capsys):
    config = experiment_config(tmp_path, seed="seven")
    assert run_cli("experiment", "--config", config, "--out", tmp_path / "x") == cli.EXIT_FORMAT
    capsys.readouterr()


@pytest.mark.parametrize(
    "field, value",
    [
        ("k", "two"),
        ("k", 2.0),
        ("eps", "0.25"),
        ("delta_prime", None),
        ("s", [8]),
        ("seed_bits", True),
        ("range_bits", "12"),
        ("trials", "three"),
    ],
)
def test_experiment_rejects_non_numeric_fields(tmp_path, capsys, field, value):
    config = experiment_config(tmp_path, **{field: value})
    out = tmp_path / "x"
    assert run_cli("experiment", "--config", config, "--out", out, "--jobs", "2") == cli.EXIT_FORMAT
    assert repr(field) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, argv, code",
    [
        ({"trials": 0}, [], cli.EXIT_LENGTH),
        ({"trials": -1}, [], cli.EXIT_LENGTH),
        ({}, ["--trials", "0"], cli.EXIT_LENGTH),
        ({"pirates": []}, [], cli.EXIT_FORMAT),
        ({"pirates": {"kind": "honest"}}, [], cli.EXIT_FORMAT),
    ],
)
def test_experiment_rejects_runs_without_trials(tmp_path, capsys, overrides, argv, code):
    out = tmp_path / "x"
    config = experiment_config(tmp_path, **overrides)
    assert run_cli("experiment", "--config", config, "--out", out, "--jobs", "2", *argv) == code
    assert not out.exists()
    capsys.readouterr()


@pytest.mark.parametrize(
    "overrides, code",
    [
        ({"pirates": [{"kind": "plunder"}]}, cli.EXIT_FORMAT),
        ({"pirates": [5]}, cli.EXIT_FORMAT),
        ({"pirates": [{"eta": 0.1}]}, cli.EXIT_FORMAT),
        ({"pirates": [{"kind": "noisy", "eta": "x"}]}, cli.EXIT_FORMAT),
        ({"pirates": [{"kind": "noisy", "eta": 2.0}]}, cli.EXIT_FORMAT),
        ({"pirates": [{"kind": "superposed", "theta": "x"}]}, cli.EXIT_FORMAT),
        ({"pirates": [{"kind": "superposed", "branch_a": "noisy"}]}, cli.EXIT_FORMAT),
        ({"engine": "fastest"}, cli.EXIT_NUMERIC),
        ({"eps": 0.9}, cli.EXIT_NUMERIC),
        ({"message": "abc"}, cli.EXIT_LENGTH),
        ({"seed": 2.5}, cli.EXIT_FORMAT),
        ({"seed": True}, cli.EXIT_FORMAT),
        ({"seed": "7"}, cli.EXIT_FORMAT),
        ({"engine": "exact", "eps": 0.001}, cli.EXIT_NUMERIC),
        ({"pirates": [{"kind": "superposed", "theta": float("nan")}]}, cli.EXIT_FORMAT),
        ({"eps": 1e-9}, cli.EXIT_NUMERIC),
        ({"eps": 1e-200}, cli.EXIT_NUMERIC),
        ({"delta_prime": 5e-324}, cli.EXIT_NUMERIC),
        ({"delta_prim": 0.05}, cli.EXIT_FORMAT),
        ({"eps": 10**400}, cli.EXIT_FORMAT),  # an int too large for a float
        ({"delta_prime": 10**400}, cli.EXIT_FORMAT),
        ({"k": 10**400}, cli.EXIT_LENGTH),  # beyond the carrier's 16-bit field, as keygen --k
        ({"pirates": [{"kind": "superposed", "theta": 10**400}]}, cli.EXIT_FORMAT),
        ({"pirates": [{"kind": "noisy", "eta": -(10**400)}]}, cli.EXIT_FORMAT),
    ],
)
def test_experiment_checks_the_whole_config_before_any_output(tmp_path, capsys, overrides, code):
    out = tmp_path / "x"
    config = experiment_config(tmp_path, **overrides)
    assert run_cli("experiment", "--config", config, "--out", out, "--jobs", "2") == code
    assert not out.exists()
    assert "Traceback" not in capsys.readouterr().err


def test_experiment_refuses_more_pirates_than_a_batch_index_holds(tmp_path, capsys):
    # a trial's rng label packs its batch index into two bytes; one trial per pirate stays within MAX_TRIALS
    cli._trial_rng(1, cli.MAX_PIRATES - 1, 0)
    with pytest.raises(OverflowError):
        cli._trial_rng(1, cli.MAX_PIRATES, 0)
    out = tmp_path / "x"
    config = experiment_config(tmp_path, trials=1, pirates=[{"kind": "honest"}] * (cli.MAX_PIRATES + 1))
    assert run_cli("experiment", "--config", config, "--out", out) == cli.EXIT_LENGTH
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err and f"at most {cli.MAX_PIRATES}" in err


@pytest.mark.parametrize("jobs", [0, -1])
def test_experiment_refuses_fewer_than_one_job(tmp_path, capsys, jobs):
    out = tmp_path / "run"
    assert run_cli("experiment", "--config", experiment_config(tmp_path), "--out", out, "--jobs", jobs) == cli.EXIT_LENGTH
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "jobs, mask, host, started",
    [
        (100_000, 8, 64, [4]),
        (100_000, 3, 64, [3]),
        (2, 8, 64, [2]),
        (100_000, None, None, []),
        (1, 8, 64, []),
        (100_000, None, 3, [3]),
    ],
    ids=["tasks", "cpus", "jobs", "unknown-cpus", "one-job", "no-affinity"],
)
def test_experiment_starts_at_most_one_worker_per_task_and_cpu(
    tmp_path, capsys, monkeypatch, jobs, mask, host, started
):
    # mask is the size of the affinity mask, None where the platform has no
    # affinity call; host is the host's CPU count, None where it is unknown
    if mask is None:
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(mask)), raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: host)
    workers = []

    class InProcessPool:
        """Stands in for ProcessPoolExecutor: records its size and maps in this process."""

        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    config = experiment_config(tmp_path, trials=2, s=4)  # 2 pirates x 2 trials = 4 tasks
    assert run_cli("experiment", "--config", config, "--out", tmp_path / "serial") == 0
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    assert run_cli("experiment", "--config", config, "--out", tmp_path / "pooled", "--jobs", jobs) == 0
    capsys.readouterr()
    assert workers == started
    assert (tmp_path / "pooled" / "rows.csv").read_bytes() == (tmp_path / "serial" / "rows.csv").read_bytes()
    # timings.csv records the workers that ran the trials, not the --jobs asked for
    with (tmp_path / "pooled" / "timings.csv").open(newline="") as fh:
        (timing,) = csv.DictReader(fh)
    assert int(timing["jobs"]) == (started[0] if started else 1)
    assert int(timing["trials"]) == 4
    kernels = native.kernels()
    assert timing["ggm_walk"] == kernels["ggm_walk"] and timing["ggm_walk"] in ("native", "hashlib")
    assert timing["sim_kernel"] == kernels["sim_kernel"] and timing["sim_kernel"] in ("native", "python")
    assert timing["c_walk"] == (kernels["c_walk"] or "")


def test_experiment_without_a_compiler_falls_back_to_the_same_bytes(tmp_path, capsys):
    # an empty cache and a PATH with no compiler on it: the child cannot build
    # the native walk, runs the hashlib walk, and writes the same artifacts
    config = experiment_config(tmp_path, trials=2)
    assert run_cli("experiment", "--config", config, "--out", tmp_path / "here") == 0
    capsys.readouterr()
    (tmp_path / "empty-bin").mkdir()
    done = subprocess.run(
        [sys.executable, "-m", "qwmark", "experiment", "--config", str(config), "--out", str(tmp_path / "child")],
        env=child_env(tmp_path / "empty-cache", tmp_path / "empty-bin"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stdout + done.stderr
    for name in ("rows.csv", "summary.json"):
        assert (tmp_path / "child" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()
    kernels = []
    for run in ("here", "child"):
        with (tmp_path / run / "timings.csv").open(newline="") as fh:
            (timing,) = csv.DictReader(fh)
        kernels.append((timing["ggm_walk"], timing["sim_kernel"], timing["c_walk"]))
    here = native.kernels()
    assert kernels == [(here["ggm_walk"], here["sim_kernel"], here["c_walk"] or ""), ("hashlib", "python", "")]


def test_extract_maps_flush_limit_to_numeric_exit(tmp_path, keys, capsys, monkeypatch):
    circ_path = tmp_path / "marked.circ"
    assert run_cli("mark", "--key", keys["prfk"], "--message", "101", "--out", circ_path) == 0
    argv = ["extract", "--tag", keys["tag"], "--xk", keys["xk"], "--circuit", circ_path, "--pirate", "coin"]
    argv += ["--eps", 0.5, "--delta-prime", 0.9, "--s", 4, "--engine", "exact", "--seed", 2]
    assert run_cli(*argv) == 0
    # at seed 2 the gate walk ends on an IsU outcome of 0, so a cap of zero
    # flush rounds is hit
    monkeypatch.setattr(api, "FLUSH_ROUNDS_PER_T", 0)
    assert run_cli(*argv) == cli.EXIT_NUMERIC
    assert "flush rounds" in capsys.readouterr().err


def test_keygen_rejects_empty_messages_and_overwide_fields(tmp_path, capsys):
    out = tmp_path / "bad" / "demo"
    # k = 3 gives pt_bits = seed_bits + 3, so --seed-bits 5460 needs a 65 556-bit PRF domain
    bad = (["--k", 0], ["--k", -1], ["--k", 70000], ["--k", 3, "--range-bits", 100000], ["--k", 3, "--seed-bits", 5460])
    for argv in bad:
        assert run_cli("keygen", *argv, "--seed", 1, "--out", out) == cli.EXIT_LENGTH
        assert "Traceback" not in capsys.readouterr().err
        assert not out.parent.exists()


def test_coin_key_must_be_seed_sized(tmp_path, keys, capsys):
    circ_path = tmp_path / "marked.circ"
    assert run_cli("mark", "--key", keys["prfk"], "--message", "101", "--out", circ_path) == 0
    short = tmp_path / "short.xk"
    short.write_bytes(keys["xk"].read_bytes()[:-1])
    for xk in (keys["tag"], short):
        assert run_cli("sim", "--tag", keys["tag"], "--xk", xk, "--index", 1, "--seed", 1) == cli.EXIT_LENGTH
        argv = ["extract", "--tag", keys["tag"], "--xk", xk, "--circuit", circ_path, "--eps", 0.25, "--seed", 1]
        assert run_cli(*argv) == cli.EXIT_LENGTH
        assert "coin key" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--theta", "nan"], ["--theta", "inf"], ["--eta", "nan"]])
def test_extract_rejects_non_finite_pirate_parameters(tmp_path, keys, capsys, argv):
    circ_path = tmp_path / "marked.circ"
    assert run_cli("mark", "--key", keys["prfk"], "--message", "101", "--out", circ_path) == 0
    base = ["extract", "--tag", keys["tag"], "--xk", keys["xk"], "--circuit", circ_path, "--eps", 0.25, "--seed", 1]
    assert run_cli(*base, "--pirate", "superposed", *argv) == cli.EXIT_FORMAT
    assert "finite" in capsys.readouterr().err


def test_exact_extract_beyond_the_round_cap_exits_at_once(tmp_path, keys, capsys):
    # eps = 0.001 at k = 3 asks for T of about 1.5e9 rounds per measurement
    circ_path = tmp_path / "marked.circ"
    assert run_cli("mark", "--key", keys["prfk"], "--message", "101", "--out", circ_path) == 0
    argv = ["extract", "--tag", keys["tag"], "--xk", keys["xk"], "--circuit", circ_path]
    start = time.monotonic()
    assert run_cli(*argv, "--eps", 0.001, "--engine", "exact", "--seed", 1) == cli.EXIT_NUMERIC
    assert time.monotonic() - start < 2.0
    err = capsys.readouterr().err
    assert "rounds" in err and "Traceback" not in err


def test_exact_extract_beyond_the_dimension_cap_exits_at_once(tmp_path, keys, capsys):
    # s * d > DIMENSION_CAP for every program: refused before any Sim triple is built
    circ_path = tmp_path / "marked.circ"
    assert run_cli("mark", "--key", keys["prfk"], "--message", "101", "--out", circ_path) == 0
    argv = ["extract", "--tag", keys["tag"], "--xk", keys["xk"], "--circuit", circ_path, "--eps", 0.25]
    start = time.monotonic()
    assert run_cli(*argv, "--s", 1_000_000_000, "--engine", "exact", "--seed", 1) == cli.EXIT_DIMENSION
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert "exceeds" in err and "Traceback" not in err


@pytest.mark.parametrize("eps, delta_prime", [(1e-9, 0.01), (1e-200, 0.01), (0.25, 5e-324)])
def test_round_counts_beyond_one_binomial_draw_exit_numeric(tmp_path, keys, capsys, eps, delta_prime):
    # 2T overflows int64, eps'^2 underflows to 0, or 4 / delta' overflows to inf
    circ_path = tmp_path / "marked.circ"
    assert run_cli("mark", "--key", keys["prfk"], "--message", "101", "--out", circ_path) == 0
    argv = ["extract", "--tag", keys["tag"], "--xk", keys["xk"], "--circuit", circ_path, "--s", 4, "--seed", 1]
    assert run_cli(*argv, "--eps", eps, "--delta-prime", delta_prime) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "rounds" in err and "Traceback" not in err


def test_verify_rejects_undecodable_and_malformed_files(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("experiment", "--config", experiment_config(tmp_path, trials=1), "--out", out) == 0
    rows, summary = out / "rows.csv", out / "summary.json"
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe\x00batch\x80")
    not_json = tmp_path / "not.json"
    not_json.write_text("{nope")
    foreign = tmp_path / "foreign.csv"
    foreign.write_text("a,b\n1,2\n")
    bad_batch = tmp_path / "bad_batch.csv"
    header, first = rows.read_text().splitlines()[:2]
    bad_batch.write_text(f"{header}\nx{first[1:]}\n")
    short_row, long_row = tmp_path / "short_row.csv", tmp_path / "long_row.csv"
    short_row.write_text(f"{header}\n0,honest,0\n")
    long_row.write_text(f"{header}\n{first},extra\n")
    deep_json, wide_field = tmp_path / "deep.json", tmp_path / "wide_field.csv"
    deep_json.write_text("[" * 200_000)
    wide_field.write_text(f"{header}\n{first}{'0' * 131_073}\n")  # a last field over csv's limit of 131 072
    pairs = [(binary, summary), (rows, binary), (rows, not_json), (rows, rows), (foreign, summary), (bad_batch, summary)]
    pairs += [(short_row, summary), (long_row, summary), (rows, deep_json), (wide_field, summary)]
    for r, s in pairs:
        assert run_cli("verify", "--rows", r, "--summary", s) == cli.EXIT_FORMAT
        assert "Traceback" not in capsys.readouterr().err
    assert run_cli("verify", "--rows", rows, "--summary", summary) == 0
    capsys.readouterr()


def test_verify_rejects_summary_fields_of_the_wrong_type(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("experiment", "--config", experiment_config(tmp_path, trials=1), "--out", out) == 0
    rows, good = out / "rows.csv", json.loads((out / "summary.json").read_text())
    summaries = [{"config": 5, "batches": []}]
    summaries += [{**good, field: value} for field, value in (("config", 5), ("config", [1]), ("pirates", 7))]
    summaries += [{**good, "batches": value} for value in (7, "x", None)]
    for i, summary in enumerate(summaries):
        path = tmp_path / f"summary{i}.json"
        path.write_text(json.dumps(summary))
        assert run_cli("verify", "--rows", rows, "--summary", path) == cli.EXIT_FORMAT
        assert "Traceback" not in capsys.readouterr().err
    assert run_cli("verify", "--rows", rows, "--summary", out / "summary.json") == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# fuzzing the numeric inputs of extract, sim and experiment
# ---------------------------------------------------------------------------

ODD_FLOATS = (float("nan"), float("inf"), float("-inf"), 0.0, -0.25, 5e-324, 1e-200, 1e-9, 2.0**16, 2.0**64)
ODD_INTS = (0, -1, -(2**16), 2**16, 2**64)
QWMARK_EXITS = range(cli.EXIT_FORMAT, cli.EXIT_OTHER + 1)
FUZZ_SECONDS = 5.0


def odd_or(plausible, odd=ODD_FLOATS + ODD_INTS):
    """One of the odd values half the time, else a value from `plausible`."""
    return st.sampled_from(odd) | plausible


# a config field takes any JSON number; an integer flag only integers, since
# argparse refuses anything else with a usage error before the program runs
FUZZED = {
    "k": odd_or(st.integers(1, 3)),
    "eps": odd_or(st.floats(1e-3, 0.5)),
    "delta_prime": odd_or(st.floats(1e-300, 0.99)),
    "theta": odd_or(st.floats(-10.0, 10.0)),
    "eta": odd_or(st.floats(0.0, 1.0)),
    "seed": odd_or(st.integers(0, 2**64 - 1)),
}
INT_FLAGS = {
    "seed": odd_or(st.integers(0, 2**64 - 1), ODD_INTS),
    "index": odd_or(st.integers(1, 4), ODD_INTS),
    # a work size: how many triples a distribution holds
    "size": odd_or(st.integers(1, 64), (0, -1, 2**16, 2**32, 2**64)),
    # a width in bits: --seed-bits and --range-bits
    "width": odd_or(st.integers(1, 64) | st.integers(1, 600), (0, -1, 2**16, 2**32)),
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """keygen (k = 3) and a marked circuit, shared by every fuzzed call."""
    out = tmp_path_factory.mktemp("fuzz") / "demo"
    assert run_cli("keygen", "--k", 3, "--seed-bits", 6, "--range-bits", 12, "--seed", 7, "--out", out) == 0
    circ = out.with_suffix(".circ")
    assert run_cli("mark", "--key", out.with_suffix(".prfk"), "--message", "101", "--out", circ) == 0
    return {"tag": out.with_suffix(".tag"), "xk": out.with_suffix(".xk"), "circuit": circ}


def exits_cleanly(*argv) -> int:
    """Run the CLI in-process; it must return 0 or a QwmarkError code, quickly and without a traceback."""
    err = io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_cli(*argv)
    assert time.monotonic() - start < FUZZ_SECONDS
    assert code == 0 or code in QWMARK_EXITS
    assert "Traceback" not in err.getvalue()
    return code


@settings(deadline=None, max_examples=50)
@given(
    st.fixed_dictionaries({name: FUZZED[name] for name in ("eps", "delta_prime", "theta", "eta")}),
    INT_FLAGS["seed"],
    INT_FLAGS["size"],
)
@example({"eps": 1e-9, "delta_prime": 0.05, "theta": 0.0, "eta": 0.0}, 1, 4)
@example({"eps": 1e-200, "delta_prime": 0.05, "theta": 0.0, "eta": 0.0}, 1, 4)
@example({"eps": 0.25, "delta_prime": 5e-324, "theta": 0.0, "eta": 0.0}, 1, 4)
# at k = 3 the exact engine's largest round count, T = MAX_EXACT_ROUNDS, and the next eps down is refused
@example({"eps": 0.032708266865670646, "delta_prime": 0.05, "theta": 0.0, "eta": 0.0}, 1, 64)
@example({"eps": 0.03270826686567064, "delta_prime": 0.05, "theta": 0.0, "eta": 0.0}, 1, 64)
def test_fuzz_extract_numeric_inputs(fuzz_files, values, seed, s):
    # the exact engine only for pirates whose state sits in one Jordan block:
    # a state spread over several goes through the Python block walk, which
    # takes seconds at the largest round count
    files = [f"--{name}={path}" for name, path in fuzz_files.items()]
    numbers = [f"--{name.replace('_', '-')}={value!r}" for name, value in values.items()]
    for kind, engine in (("noisy", "fast"), ("superposed", "fast"), ("honest", "exact"), ("anti", "exact")):
        flags = [f"--seed={seed!r}", f"--pirate={kind}", f"--engine={engine}", f"--s={s!r}"]
        exits_cleanly("extract", *files, *numbers, *flags)


@settings(deadline=None)
@given(index=INT_FLAGS["index"], seed=INT_FLAGS["seed"])
def test_fuzz_sim_numeric_inputs(fuzz_files, index, seed):
    files = [f"--tag={fuzz_files['tag']}", f"--xk={fuzz_files['xk']}"]
    exits_cleanly("sim", *files, f"--index={index!r}", f"--seed={seed!r}")


@settings(deadline=None, max_examples=40)
@given(count=INT_FLAGS["size"], s=INT_FLAGS["size"])
@example(count=elwm.MAX_TRIPLES, s=elwm.MAX_TRIPLES)  # the largest work either accepts
@example(count=elwm.MAX_TRIPLES + 1, s=elwm.MAX_TRIPLES + 1)
def test_fuzz_work_sizes(fuzz_files, count, s):
    # sim --count and extract --s are refused outside 1..MAX_TRIPLES before any triple is built
    tag, xk = f"--tag={fuzz_files['tag']}", f"--xk={fuzz_files['xk']}"
    expected = 0 if 1 <= count <= elwm.MAX_TRIPLES else cli.EXIT_LENGTH
    assert exits_cleanly("sim", tag, xk, "--index=2", "--seed=5", f"--count={count!r}") == expected
    expected = 0 if 1 <= s <= elwm.MAX_TRIPLES else cli.EXIT_LENGTH
    circuit = f"--circuit={fuzz_files['circuit']}"
    assert exits_cleanly("extract", tag, xk, circuit, "--eps=0.25", "--seed=5", f"--s={s!r}") == expected


@settings(deadline=None, max_examples=30)
@given(seed_bits=INT_FLAGS["width"], range_bits=INT_FLAGS["width"])
@example(seed_bits=elwm.ElwmParams.MAX_PT_BITS - 3, range_bits=0xFFFF)  # k = 3: the widest keys accepted
@example(seed_bits=elwm.ElwmParams.MAX_PT_BITS - 2, range_bits=12)  # one plaintext bit beyond the budget
def test_fuzz_widths(seed_bits, range_bits):
    # keygen refuses widths beyond the budget or a u16 field before any key
    # exists; on keys it accepts, sim and a marked eval end in time too
    budget_ok = 1 <= seed_bits and seed_bits + 3 <= elwm.ElwmParams.MAX_PT_BITS and 1 <= range_bits <= 0xFFFF
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "keys" / "demo"
        argv = ["--k=3", f"--seed-bits={seed_bits!r}", f"--range-bits={range_bits!r}", "--seed=7", f"--out={out}"]
        assert exits_cleanly("keygen", *argv) == (0 if budget_ok else cli.EXIT_LENGTH)
        if not budget_ok:
            assert not out.parent.exists()
            return
        files = [f"--tag={out.with_suffix('.tag')}", f"--xk={out.with_suffix('.xk')}", "--index=1", "--seed=5"]
        assert exits_cleanly("sim", *files, "--count=2", f"--out={Path(tmp) / 'sim.json'}") == 0
        circ = out.with_suffix(".circ")
        assert exits_cleanly("mark", f"--key={out.with_suffix('.prfk')}", "--message=101", f"--out={circ}") == 0
        x = "0" * (12 * (seed_bits + 3))
        assert exits_cleanly("eval", f"--circuit={circ}", f"--input={x}") == 0


@settings(deadline=None, max_examples=50)
@given(st.fixed_dictionaries({name: FUZZED[name] for name in ("k", "eps", "delta_prime", "theta", "eta", "seed")}))
@example({"k": 2, "eps": 1e-9, "delta_prime": 0.05, "theta": 0.0, "eta": 0.0, "seed": 1})
@example({"k": 2, "eps": 1e-200, "delta_prime": 0.05, "theta": 0.0, "eta": 0.0, "seed": 1})
@example({"k": 2, "eps": 0.25, "delta_prime": 5e-324, "theta": 0.0, "eta": 0.0, "seed": 1})
def test_fuzz_experiment_numeric_inputs(values):
    pirates = [{"kind": "superposed", "theta": values.pop("theta")}, {"kind": "noisy", "eta": values.pop("eta")}]
    config = {"trials": 1, "seed_bits": 6, "range_bits": 12, "s": 4, "pirates": pirates, **values}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))  # NaN and Infinity go in as JSON extensions
        if exits_cleanly("experiment", "--config", path, "--out", Path(tmp) / "run") != 0:
            assert not (Path(tmp) / "run").exists()


ODD_TRIALS = (0, -1, cli.MAX_TRIALS + 1, 2**32, 2**64)


@settings(deadline=None, max_examples=10)
@given(trials=odd_or(st.integers(1, 2), ODD_TRIALS))
@example(trials=0)
@example(trials=-1)
@example(trials=cli.MAX_TRIALS + 1)  # the budget is on trials x pirates, here one pirate
@example(trials=2**32)
@example(trials=2**64)
def test_fuzz_experiment_trials(trials):
    # --trials beyond the budget is refused before the task list or --out exists
    config = {"k": 2, "eps": 0.25, "trials": 1, "seed": 1, "s": 4, "pirates": [{"kind": "honest"}]}
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "run"
        path.write_text(json.dumps(config))
        code = exits_cleanly("experiment", "--config", path, "--out", out, f"--trials={trials!r}")
        assert code == (0 if 1 <= trials <= cli.MAX_TRIALS else cli.EXIT_LENGTH)
        if code != 0:
            assert not out.exists()


# ---------------------------------------------------------------------------
# every input file in every file slot
# ---------------------------------------------------------------------------


def test_input_files_of_every_kind_in_every_file_slot(tmp_path, keys):
    config = experiment_config(tmp_path, trials=1, s=4, pirates=[{"kind": "honest"}])
    run, circ = tmp_path / "run", tmp_path / "demo.circ"
    assert exits_cleanly("mark", "--key", keys["prfk"], "--message", "101", "--out", circ) == 0
    assert exits_cleanly("experiment", "--config", config, "--out", run) == 0
    empty, binary = tmp_path / "empty", tmp_path / "binary"
    empty.write_bytes(b"")
    binary.write_bytes(b"\xff\xfe\x00batch\x80")
    files = {
        "empty": empty,
        "directory": keys["prfk"].parent,
        "binary": binary,
        "prfk": keys["prfk"],
        "tag": keys["tag"],
        "xk": keys["xk"],
        "circ": circ,
        "rows": run / "rows.csv",
        "summary": run / "summary.json",
        "config": config,
    }
    x = "0" * elwm.PrfKeyIo.from_bytes(keys["prfk"].read_bytes()).params.domain_bits
    # (command, its file slots and the kind each takes, the other arguments)
    commands = [
        ("mark", {"--key": "prfk"}, ["--message", "101", "--out", tmp_path / "marked.circ"]),
        ("eval", {"--key": "prfk"}, ["--input", x]),
        ("eval", {"--circuit": "circ"}, ["--input", x]),
        ("sim", {"--tag": "tag", "--xk": "xk"}, ["--index", 1, "--seed", 1]),
        ("extract", {"--tag": "tag", "--xk": "xk", "--circuit": "circ"}, ["--eps", 0.25, "--s", 4, "--seed", 1]),
        ("experiment", {"--config": "config"}, ["--out", tmp_path / "out"]),
        ("verify", {"--rows": "rows", "--summary": "summary"}, []),
    ]
    for command, slots, rest in commands:
        for slot in slots:
            for name, path in files.items():
                paths = {flag: files[kind] for flag, kind in slots.items()} | {slot: path}
                code = exits_cleanly(command, *(arg for pair in paths.items() for arg in pair), *rest)
                assert (code == 0) == (name == slots[slot]), (command, slot, name, code)


def test_trial_row_and_summarize_rows_count_each_outcome():
    # hand-built games, message 101: unmarked, exact decode, wrong mark, band-exit fallback
    outcomes = [
        (False, wmprf.UNMARKED, False, ()),
        (True, "101", False, (0.9, 0.1, 0.9)),
        (True, "111", False, (0.1, 0.1, 0.1)),
        (True, "000", True, (0.9, 0.5)),
    ]
    results = []
    for live, decoded, fallback, estimates in outcomes:
        report = wmprf.ExtractionReport(3, 0.25, 0.015625, 0.05, "fast", 0.9 if live else 0.3, estimates, decoded, fallback, ())
        results.append(wmprf.TrialResult("101", live, 0.95 if live else 0.5, report))
    rows = [cli.trial_row(result, 2, "hand", trial) for trial, result in enumerate(results)]
    assert all(list(row) == cli.ROW_FIELDS for row in rows)
    for row, r in zip(rows, results):
        assert (row["live"], row["good_ext"], row["bad_ext"], row["fallback"]) == (r.live, r.good_ext, r.bad_ext, r.report.fallback)
    summary = cli.summarize_rows(rows, {"pirates": []})
    (tally,) = summary["batches"]
    assert (tally["batch"], tally["pirate"], tally["trials"]) == (2, "hand", 4)
    expected = {
        "live": sum(r.live for r in results),
        "good_ext": sum(r.good_ext for r in results),
        "bad_ext": sum(r.bad_ext for r in results),
        "unmarked": sum(r.report.unmarked for r in results),
        "fallback": sum(r.report.fallback for r in results),
        "decode_exact": sum(r.report.decoded == r.message for r in results),
    }
    assert expected == {"live": 3, "good_ext": 3, "bad_ext": 2, "unmarked": 1, "fallback": 1, "decode_exact": 1}
    assert {key: tally[key]["count"] for key in expected} == expected
    # verify tallies the rows as rows.csv holds them, every field a string
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=cli.ROW_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    assert cli.summarize_rows(list(csv.DictReader(io.StringIO(text.getvalue()))), {"pirates": []}) == summary


def test_wilson_interval_properties():
    low, high = cli.wilson_interval(0, 0)
    assert (low, high) == (0.0, 1.0)
    low, high = cli.wilson_interval(50, 100)
    assert low < 0.5 < high
    assert 0.40 < low < 0.45 and 0.55 < high < 0.60
    low, high = cli.wilson_interval(100, 100)
    assert high > 0.999 and low > 0.95
    low0, high0 = cli.wilson_interval(0, 100)
    assert low0 < 1e-9 and high0 < 0.05
