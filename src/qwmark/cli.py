"""Command-line interface.

Subcommands:
  keygen      sample a PRF key, public tag, and coin key
  mark        embed a message into a PRF key
  eval        evaluate the PRF (or a marked circuit) on a point
  sim         emit simulated query triples for a message position
  extract     run quantum extraction against a pirate built from a circuit
  experiment  run event-frequency experiments from a JSON config
  verify      recompute an experiment summary from its rows and compare

Determinism: every command takes --seed; identical seeds and inputs yield
byte-identical outputs.  Wall-clock timings go to a separate timings file so
the row data stays reproducible; it also holds ``native.kernels()``: the GGM
leaf ("ggm_walk": "native" or "hashlib"), the decryption ("decrypt"), the Sim
builder ("sim_kernel") and the RealD builder ("reald_kernel"), each "native"
or "python", and the C walks ("c_walk" and "wide_walk"), which set the speed
but not the bytes.  An experiment interrupted by SIGINT prints one error line,
writes no summary and exits with EXIT_INTERRUPTED.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import signal
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import elwm, native, wmprf
from .crypto import _keyed_coins, check_bits, decode_text
from .errors import (
    DegenerateStateError,
    DimensionCapError,
    DimensionError,
    EigensolverError,
    FlushLimitError,
    FormatError,
    IndexRangeError,
    InvariantError,
    LengthError,
    QwmarkError,
    RoundLimitError,
)
from .pirates import PirateSpec, build_pirate

EXIT_FORMAT = 3
EXIT_LENGTH = 4
EXIT_DIMENSION = 5
EXIT_NUMERIC = 6
EXIT_OTHER = 7
EXIT_INTERRUPTED = 130  # the shell's code for a command ended by SIGINT

# flag and config-field defaults, read off the parameter classes
DEFAULTS = {
    f.name: f.default
    for cls in (elwm.ElwmParams, wmprf.ExtractParams)
    for f in dataclasses.fields(cls)
    if f.default is not dataclasses.MISSING
}


def _seed_bytes(seed: int) -> bytes:
    """A seed as 8 big-endian bytes; every seed lies in 0..2^64-1."""
    if not 0 <= seed < 1 << 64:
        raise IndexRangeError(f"seed {seed} outside 0..2^64-1")
    return seed.to_bytes(8, "big")


def _rng_from_seed(seed: int, label: bytes = b"") -> np.random.Generator:
    return np.random.default_rng(_keyed_coins(_seed_bytes(seed), b"rng" + label, 64))


def _trial_rng(seed: int, batch: int, trial: int) -> np.random.Generator:
    return _rng_from_seed(seed, b"T" + batch.to_bytes(2, "big") + trial.to_bytes(4, "big"))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one, else the host's count, else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _dump_json(obj, out: str | None):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# simple commands
# ---------------------------------------------------------------------------


def cmd_keygen(args) -> int:
    if args.k < 1:
        raise IndexRangeError(f"--k must be at least 1, got {args.k}")
    params = elwm.ElwmParams(args.k + 1, args.seed_bits, args.range_bits)
    rng = _rng_from_seed(args.seed, b"keygen")
    prfk, tag = elwm.gen(params, rng)
    coin_key = elwm.new_coin_key(rng)
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    files = {
        prefix.with_suffix(".prfk"): prfk.to_bytes(),
        prefix.with_suffix(".tag"): tag.to_bytes(),
        prefix.with_suffix(".xk"): coin_key,
    }
    for path, blob in files.items():
        path.write_bytes(blob)
        print(path)
    return 0


def cmd_mark(args) -> int:
    prfk = elwm.PrfKeyIo.from_bytes(Path(args.key).read_bytes())
    circuit = wmprf.wm_mark(prfk, check_bits(args.message, what="message"))
    Path(args.out).write_bytes(elwm.marked_circuit_to_bytes(circuit))
    print(args.out)
    return 0


def cmd_eval(args) -> int:
    if args.circuit:
        circuit = elwm.marked_circuit_from_bytes(Path(args.circuit).read_bytes())
        print(circuit.run(check_bits(args.input, what="input")))
    else:
        prfk = elwm.PrfKeyIo.from_bytes(Path(args.key).read_bytes())
        print(elwm.eval_prf(prfk, check_bits(args.input, what="input")))
    return 0


def cmd_sim(args) -> int:
    if not 1 <= args.count <= elwm.MAX_TRIPLES:
        raise IndexRangeError(f"--count must lie in 1..{elwm.MAX_TRIPLES}, got {args.count}")
    tag = elwm.TagIo.from_bytes(Path(args.tag).read_bytes())
    dist = elwm.build_distribution(
        args.index,
        params=tag.params,
        s=args.count,
        master_seed=_seed_bytes(args.seed),
        coin_key=elwm.coin_key_from_bytes(Path(args.xk).read_bytes()),
        tag=tag,
    )
    triples = [{"gamma": gamma, "x": x, "y": y} for gamma, x, y in dist]
    _dump_json({"index": args.index, "count": args.count, "triples": triples}, args.out)
    return 0


def cmd_extract(args) -> int:
    tag = elwm.TagIo.from_bytes(Path(args.tag).read_bytes())
    coin_key = elwm.coin_key_from_bytes(Path(args.xk).read_bytes())
    circuit = elwm.marked_circuit_from_bytes(Path(args.circuit).read_bytes())
    spec = PirateSpec(
        kind=args.pirate, eta=args.eta, theta=args.theta, branch_a=args.branch_a, branch_b=args.branch_b
    )
    prog = build_pirate(spec, circuit)
    params = wmprf.ExtractParams(
        k=tag.params.msg_bits - 1,
        eps=args.eps,
        delta_prime=args.delta_prime,
        s=args.s,
        engine=args.engine,
    )
    rng = _rng_from_seed(args.seed, b"extract")
    report = wmprf.extract(coin_key, tag, prog, params, rng)
    _dump_json(report.to_json_dict(), args.out)
    return 0


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

# trials x pirates: an experiment holds its task list and then every row, about
# 1.4 KB each, in memory until it writes rows.csv
MAX_TRIALS = 1 << 18
MAX_PIRATES = 1 << 16  # `_trial_rng` packs a batch index into two bytes

ROW_FIELDS = [
    "batch",
    "pirate",
    "trial",
    "message",
    "live",
    "live_p",
    "gate_estimate",
    "decoded",
    "fallback",
    "good_ext",
    "bad_ext",
    "bit_estimates",
]


def trial_row(result: wmprf.TrialResult, batch: int, pirate: str, trial: int) -> dict:
    """The `ROW_FIELDS` of one game's result, as `rows.csv` writes them."""
    report = result.report
    return {
        "batch": batch,
        "pirate": pirate,
        "trial": trial,
        "message": result.message,
        "live": int(result.live),
        "live_p": repr(result.live_p),
        "gate_estimate": repr(report.gate_estimate),
        "decoded": report.decoded,
        "fallback": int(report.fallback),
        "good_ext": int(result.good_ext),
        "bad_ext": int(result.bad_ext),
        "bit_estimates": ";".join(repr(e) for e in report.bit_estimates),
    }


def _batch_label(spec: PirateSpec) -> str:
    if spec.kind == "noisy":
        return f"noisy(eta={spec.eta!r})"
    if spec.kind == "superposed":
        return f"superposed(theta={spec.theta!r},{spec.branch_a},{spec.branch_b})"
    return spec.kind


CONFIG_FIELD_TYPES = (
    (("k", "s", "seed_bits", "range_bits", "trials", "seed"), int, "an integer"),
    (("eps", "delta_prime"), (int, float), "a number"),
)


def _check_config_numbers(config: dict) -> None:
    """Reject a non-numeric field here, before any trial or worker starts."""
    for keys, allowed, kind in CONFIG_FIELD_TYPES:
        for key in keys:
            value = config[key]
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise FormatError(f"config field {key!r} must be {kind}, got {value!r}")


def _read_json(path: str, what: str) -> dict:
    """The JSON object in the file at `path`; anything else, too deep a nesting included, is a format fault."""
    try:
        raw = json.loads(decode_text(Path(path).read_bytes(), what))
    except (ValueError, RecursionError) as exc:  # ValueError: a JSONDecodeError, or an int of too many digits
        raise FormatError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise FormatError(f"{what} must be a JSON object")
    return raw


def _experiment_config(path: str) -> dict:
    raw = _read_json(path, "config")
    required = {"k", "eps", "trials", "seed", "pirates"}
    missing = required - set(raw)
    if missing:
        raise FormatError(f"config missing fields: {sorted(missing)}")
    extra = set(raw) - required - set(DEFAULTS) - {"message"}
    if extra:
        raise FormatError(f"unknown config fields: {sorted(extra)}")
    return {**DEFAULTS, "message": "random", **raw}


def _trial_inputs(config: dict) -> tuple[list[PirateSpec], wmprf.ExtractParams, elwm.ElwmParams, str]:
    """(pirate specs, extraction params, carrier params, message) of a checked config.

    The message is "random" or a checked k-bit string.
    """
    k = config["k"]
    message = config["message"]
    if message != "random":
        message = check_bits(str(message), k, what="config message")
    elwm_params = elwm.ElwmParams(k + 1, config["seed_bits"], config["range_bits"])  # k meets its 16-bit bound first
    try:
        eps, delta_prime = float(config["eps"]), float(config["delta_prime"])
    except OverflowError as exc:
        raise FormatError(f"config fields 'eps' and 'delta_prime' must each fit a float: {exc}") from exc
    params = wmprf.ExtractParams(k=k, eps=eps, delta_prime=delta_prime, s=config["s"], engine=str(config["engine"]))
    return [PirateSpec.from_dict(raw) for raw in config["pirates"]], params, elwm_params, message


def _run_trial(inputs: tuple, seed: int, batch: int, trial: int) -> dict:
    """One row of `rows.csv`: trial `trial` of batch `batch`, from the `_trial_inputs` of a config."""
    specs, params, elwm_params, message = inputs
    spec = specs[batch]
    rng = _trial_rng(seed, batch, trial)
    if message == "random":
        message = "".join(str(b) for b in rng.integers(0, 2, size=params.k))
    result = wmprf.run_event_trial(
        params,
        lambda circuit: build_pirate(spec, circuit),
        message,
        rng,
        elwm_params=elwm_params,
    )
    return trial_row(result, batch, _batch_label(spec), trial)


def wilson_interval(count: int, n: int) -> tuple[float, float]:
    """Wilson score interval at 95 % (z = 1.96) for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    p_hat, z = count / n, 1.96
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2 * n)) / denom
    half = z * math.sqrt(p_hat * (1 - p_hat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def freq(count: int, n: int) -> dict:
    """Count, frequency and Wilson interval of an event seen `count` times in n trials."""
    low, high = wilson_interval(count, n)
    return {"count": count, "freq": count / n, "wilson_low": low, "wilson_high": high}


def summarize_rows(rows: list[dict], config: dict) -> dict:
    """Aggregate per-trial rows into per-batch frequencies with Wilson intervals."""
    batches: dict[int, list[dict]] = {}
    for row in rows:
        batches.setdefault(int(row["batch"]), []).append(row)
    summary_batches = []
    for batch in sorted(batches):
        rs = batches[batch]
        n = len(rs)
        summary_batches.append(
            {
                "batch": batch,
                "pirate": rs[0]["pirate"],
                "trials": n,
                **{key: freq(sum(int(r[key]) for r in rs), n) for key in ("live", "good_ext", "bad_ext", "fallback")},
                "unmarked": freq(sum(r["decoded"] == wmprf.UNMARKED for r in rs), n),
                "decode_exact": freq(sum(r["decoded"] == r["message"] for r in rs), n),
            }
        )
    return {
        "config": {key: config[key] for key in sorted(config) if key != "pirates"},
        "pirates": config["pirates"],
        "batches": summary_batches,
    }


def cmd_experiment(args) -> int:
    if args.jobs < 1:
        raise IndexRangeError(f"--jobs must be at least 1, got {args.jobs}")
    config = _experiment_config(args.config)
    if args.trials is not None:
        config["trials"] = args.trials
    if args.seed is not None:
        config["seed"] = args.seed
    _check_config_numbers(config)
    _seed_bytes(config["seed"])
    if config["trials"] < 1:
        raise IndexRangeError(f"config trials must be at least 1, got {config['trials']}")
    if not isinstance(config["pirates"], list) or not config["pirates"]:
        raise FormatError(f"config pirates must be a non-empty list, got {config['pirates']!r}")
    if len(config["pirates"]) > MAX_PIRATES:
        raise IndexRangeError(f"config pirates must number at most {MAX_PIRATES}, got {len(config['pirates'])}")
    if config["trials"] * len(config["pirates"]) > MAX_TRIALS:
        raise IndexRangeError(
            f"config trials x pirates must be at most {MAX_TRIALS}, got {config['trials']} x {len(config['pirates'])}"
        )
    inputs = _trial_inputs(config)  # a malformed config fails here, before any output or worker exists
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    trials = int(config["trials"])
    tasks = [(b, t) for b in range(len(config["pirates"])) for t in range(trials)]
    started = time.monotonic()
    workers = min(args.jobs, len(tasks), _usable_cpus())
    run = functools.partial(_run_trial, inputs, config["seed"])
    if workers > 1:
        # the workers ignore SIGINT, so that an interrupt reaches this process alone, which cancels what has not started
        ignore_sigint = (signal.SIGINT, signal.SIG_IGN)
        with ProcessPoolExecutor(max_workers=workers, initializer=signal.signal, initargs=ignore_sigint) as pool:
            try:
                rows = list(pool.map(run, *zip(*tasks), chunksize=8))
            except KeyboardInterrupt:
                pool.shutdown(cancel_futures=True)
                raise
    else:
        rows = [run(b, t) for b, t in tasks]
    rows.sort(key=lambda r: (r["batch"], r["trial"]))
    elapsed = time.monotonic() - started
    rows_path = outdir / "rows.csv"
    with rows_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=ROW_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    summary = summarize_rows(rows, config)
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    with (outdir / "timings.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        kernels = native.kernels()
        writer.writerow(["total_wall_seconds", "trials", "jobs", *kernels])
        writer.writerow([f"{elapsed:.3f}", len(tasks), workers, *kernels.values()])
    print(rows_path)
    print(outdir / "summary.json")
    return 0


def cmd_verify(args) -> int:
    reader = csv.DictReader(io.StringIO(decode_text(Path(args.rows).read_bytes(), "rows file"), newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:  # a field over csv's limit, for one
        raise FormatError(f"rows file is not readable CSV: {exc}") from exc
    if reader.fieldnames != ROW_FIELDS:
        raise FormatError(f"rows file header {reader.fieldnames!r} is not {ROW_FIELDS!r}")
    if not rows:
        raise FormatError("rows file holds no trials")
    # DictReader fills a short row with None values and files extra fields under the key None
    if any(None in row or None in row.values() for row in rows):
        raise FormatError(f"rows file holds a row without exactly the {len(ROW_FIELDS)} header fields")
    stored = _read_json(args.summary, "summary")
    config, pirates, batches = stored.get("config", {}), stored.get("pirates", []), stored.get("batches")
    if not isinstance(config, dict):
        raise FormatError("summary config must be a JSON object")
    if not isinstance(pirates, list) or not isinstance(batches, list):
        raise FormatError("summary pirates and batches must be JSON lists")
    try:
        recomputed = summarize_rows(rows, {**config, "pirates": pirates})
    except ValueError as exc:
        raise FormatError(f"rows file holds a malformed row: {exc}") from exc
    if recomputed["batches"] != batches:
        print("MISMATCH: summary does not match rows", file=sys.stderr)
        return 1
    print(f"OK: {len(rows)} rows, {len(recomputed['batches'])} batches consistent")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qwmark", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="sample PRF key, tag, and coin key")
    p.add_argument("--k", type=int, required=True, help="user message length in bits")
    p.add_argument("--seed-bits", type=int, default=DEFAULTS["seed_bits"])
    p.add_argument("--range-bits", type=int, default=DEFAULTS["range_bits"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("mark", help="embed a message into a PRF key")
    p.add_argument("--key", required=True)
    p.add_argument("--message", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mark)

    p = sub.add_parser("eval", help="evaluate the PRF or a marked circuit")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--key")
    group.add_argument("--circuit")
    p.add_argument("--input", required=True, help="domain point as a bit string")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sim", help="emit simulated query triples")
    p.add_argument("--tag", required=True)
    p.add_argument("--xk", required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("extract", help="quantum extraction against a pirate")
    p.add_argument("--tag", required=True)
    p.add_argument("--xk", required=True)
    p.add_argument("--circuit", required=True)
    p.add_argument("--pirate", default="honest", help="honest|anti|coin|noisy|superposed")
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--branch-a", default="honest")
    p.add_argument("--branch-b", default="coin")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta-prime", type=float, default=DEFAULTS["delta_prime"])
    p.add_argument("--s", type=int, default=DEFAULTS["s"])
    p.add_argument("--engine", choices=("fast", "exact"), default=DEFAULTS["engine"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("experiment", help="run event-frequency experiments")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--trials", type=int, help="override config trial count")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--jobs", type=int, default=1, help="worker processes; at most one per trial and per CPU start")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("verify", help="recompute a summary from rows and compare")
    p.add_argument("--rows", required=True)
    p.add_argument("--summary", required=True)
    p.set_defaults(func=cmd_verify)

    return parser


_EXIT_CODES = [
    ((FormatError,), EXIT_FORMAT),
    ((LengthError, IndexRangeError), EXIT_LENGTH),
    ((DimensionError, DimensionCapError), EXIT_DIMENSION),
    ((InvariantError, EigensolverError, DegenerateStateError, FlushLimitError, RoundLimitError), EXIT_NUMERIC),
    ((QwmarkError,), EXIT_OTHER),
]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except QwmarkError as exc:
        for classes, code in _EXIT_CODES:
            if isinstance(exc, classes):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
