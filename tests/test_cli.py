"""Command-line surface: determinism, format compatibility with the library,
experiment artifacts, and exit codes."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from qwmark import cli, elwm, wmprf
from qwmark.crypto import keyed_rand
from qwmark.pirates import honest_pirate


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
        gamma, x, y = elwm.sim(tag.params, tag, 2, coins)
        assert triple == {"gamma": gamma, "x": x, "y": y}


def test_sim_rejects_bad_index(keys, capsys):
    assert run_cli("sim", "--tag", keys["tag"], "--xk", keys["xk"], "--index", 9, "--seed", 1) == cli.EXIT_LENGTH
    capsys.readouterr()


@pytest.mark.parametrize(
    "index, count, code",
    [(1, 0, cli.EXIT_LENGTH), (1, -2, cli.EXIT_LENGTH), (70000, 1, cli.EXIT_LENGTH), (-1, 1, cli.EXIT_FORMAT)],
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
