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
the row data stays reproducible.  The Hilbert-space dimension cap can be
overridden with the QWMARK_DIM_CAP environment variable.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import elwm, wmprf
from .crypto import check_bits, keyed_rand
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
)
from .pirates import PirateSpec, build_pirate

EXIT_FORMAT = 3
EXIT_LENGTH = 4
EXIT_DIMENSION = 5
EXIT_NUMERIC = 6
EXIT_OTHER = 7


def _seed_bytes(seed: int) -> bytes:
    """A seed as 8 big-endian bytes; every seed lies in 0..2^64-1."""
    if not 0 <= seed < 1 << 64:
        raise IndexRangeError(f"seed {seed} outside 0..2^64-1")
    return seed.to_bytes(8, "big")


def _rng_from_seed(seed: int, label: bytes = b"") -> np.random.Generator:
    stream = keyed_rand(_seed_bytes(seed), b"rng" + label, 64)
    return np.random.default_rng(int(stream, 2))


def _trial_rng(seed: int, batch: int, trial: int) -> np.random.Generator:
    return _rng_from_seed(seed, b"T" + batch.to_bytes(2, "big") + trial.to_bytes(4, "big"))


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
    if args.count < 1:
        raise IndexRangeError(f"--count must be at least 1, got {args.count}")
    tag = elwm.TagIo.from_bytes(Path(args.tag).read_bytes())
    dist = elwm.build_distribution(
        elwm.sim_tau(args.index),
        params=tag.params,
        s=args.count,
        master_seed=_seed_bytes(args.seed),
        coin_key=Path(args.xk).read_bytes(),
        tag=tag,
    )
    triples = [{"gamma": gamma, "x": x, "y": y} for gamma, x, y in dist.triples]
    _dump_json({"index": args.index, "count": args.count, "triples": triples}, args.out)
    return 0


def _pirate_spec_from_args(args) -> PirateSpec:
    return PirateSpec(
        kind=args.pirate,
        eta=args.eta,
        theta=args.theta,
        branch_a=args.branch_a,
        branch_b=args.branch_b,
    )


def cmd_extract(args) -> int:
    tag = elwm.TagIo.from_bytes(Path(args.tag).read_bytes())
    coin_key = Path(args.xk).read_bytes()
    circuit = elwm.marked_circuit_from_bytes(Path(args.circuit).read_bytes())
    prog = build_pirate(_pirate_spec_from_args(args), circuit)
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


def _batch_label(spec: PirateSpec) -> str:
    if spec.kind == "noisy":
        return f"noisy(eta={spec.eta!r})"
    if spec.kind == "superposed":
        return f"superposed(theta={spec.theta!r},{spec.branch_a},{spec.branch_b})"
    return spec.kind


CONFIG_FIELD_TYPES = (
    (("k", "s", "seed_bits", "range_bits", "trials"), int, "an integer"),
    (("eps", "delta_prime"), (int, float), "a number"),
)


def _check_config_numbers(config: dict) -> None:
    """Reject a non-numeric field here, before any trial or worker starts."""
    for keys, allowed, kind in CONFIG_FIELD_TYPES:
        for key in keys:
            value = config[key]
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise FormatError(f"config field {key!r} must be {kind}, got {value!r}")


def _experiment_config(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"config is not valid JSON: {exc}") from exc
    required = {"k", "eps", "trials", "seed", "pirates"}
    missing = required - set(raw)
    if missing:
        raise FormatError(f"config missing fields: {sorted(missing)}")
    raw.setdefault("seed_bits", 8)
    raw.setdefault("range_bits", 16)
    raw.setdefault("delta_prime", 0.01)
    raw.setdefault("s", 16)
    raw.setdefault("engine", "fast")
    raw.setdefault("message", "random")
    return raw


def _run_trial(config: dict, batch: int, trial: int) -> dict:
    spec = PirateSpec.from_dict(config["pirates"][batch])
    rng = _trial_rng(int(config["seed"]), batch, trial)
    k = int(config["k"])
    if config["message"] == "random":
        message = "".join(str(b) for b in rng.integers(0, 2, size=k))
    else:
        message = check_bits(str(config["message"]), k, what="config message")
    params = wmprf.ExtractParams(
        k=k,
        eps=float(config["eps"]),
        delta_prime=float(config["delta_prime"]),
        s=int(config["s"]),
        engine=str(config["engine"]),
    )
    elwm_params = elwm.ElwmParams(k + 1, int(config["seed_bits"]), int(config["range_bits"]))
    result = wmprf.run_event_trial(
        params,
        lambda circuit: build_pirate(spec, circuit),
        message,
        rng,
        elwm_params=elwm_params,
    )
    report = result.report
    return {
        "batch": batch,
        "pirate": _batch_label(spec),
        "trial": trial,
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


def _trial_task(config_json: str, batch: int, trial: int) -> dict:
    return _run_trial(json.loads(config_json), batch, trial)


def wilson_interval(count: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    p_hat = count / n
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2 * n)) / denom
    half = z * math.sqrt(p_hat * (1 - p_hat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def summarize_rows(rows: list[dict], config: dict) -> dict:
    """Aggregate per-trial rows into per-batch frequencies with Wilson intervals."""
    batches: dict[int, list[dict]] = {}
    for row in rows:
        batches.setdefault(int(row["batch"]), []).append(row)
    summary_batches = []
    for batch in sorted(batches):
        rs = batches[batch]
        n = len(rs)

        def freq(key, rs=rs, n=n):
            count = sum(int(r[key]) for r in rs)
            low, high = wilson_interval(count, n)
            return {"count": count, "freq": count / n, "wilson_low": low, "wilson_high": high}

        decode_exact = sum(1 for r in rs if r["decoded"] == r["message"])
        unmarked = sum(1 for r in rs if r["decoded"] == wmprf.UNMARKED)
        low_u, high_u = wilson_interval(unmarked, n)
        low_d, high_d = wilson_interval(decode_exact, n)
        summary_batches.append(
            {
                "batch": batch,
                "pirate": rs[0]["pirate"],
                "trials": n,
                "live": freq("live"),
                "good_ext": freq("good_ext"),
                "bad_ext": freq("bad_ext"),
                "fallback": freq("fallback"),
                "unmarked": {
                    "count": unmarked,
                    "freq": unmarked / n,
                    "wilson_low": low_u,
                    "wilson_high": high_u,
                },
                "decode_exact": {
                    "count": decode_exact,
                    "freq": decode_exact / n,
                    "wilson_low": low_d,
                    "wilson_high": high_d,
                },
            }
        )
    return {
        "config": {key: config[key] for key in sorted(config) if key != "pirates"},
        "pirates": config["pirates"],
        "batches": summary_batches,
    }


def cmd_experiment(args) -> int:
    config = _experiment_config(args.config)
    if args.trials is not None:
        config["trials"] = args.trials
    if args.seed is not None:
        config["seed"] = args.seed
    try:
        _seed_bytes(int(config["seed"]))
    except (TypeError, ValueError) as exc:
        raise FormatError(f"config seed must be an integer, got {config['seed']!r}") from exc
    _check_config_numbers(config)
    if config["trials"] < 1:
        raise IndexRangeError(f"config trials must be at least 1, got {config['trials']}")
    if not isinstance(config["pirates"], list) or not config["pirates"]:
        raise FormatError(f"config pirates must be a non-empty list, got {config['pirates']!r}")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    trials = int(config["trials"])
    tasks = [(b, t) for b in range(len(config["pirates"])) for t in range(trials)]
    started = time.monotonic()
    if args.jobs > 1:
        config_json = json.dumps(config)
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_trial_task, [config_json] * len(tasks), *zip(*tasks), chunksize=8))
    else:
        rows = [_run_trial(config, b, t) for b, t in tasks]
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
        writer.writerow(["total_wall_seconds", "trials", "jobs"])
        writer.writerow([f"{elapsed:.3f}", len(tasks), args.jobs])
    print(rows_path)
    print(outdir / "summary.json")
    return 0


def cmd_verify(args) -> int:
    with Path(args.rows).open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise FormatError("rows file holds no trials")
    stored = json.loads(Path(args.summary).read_text())
    config = dict(stored.get("config", {}))
    config["pirates"] = stored.get("pirates", [])
    recomputed = summarize_rows(rows, config)
    if recomputed["batches"] != stored.get("batches"):
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
    p.add_argument("--seed-bits", type=int, default=8)
    p.add_argument("--range-bits", type=int, default=16)
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
    p.add_argument("--delta-prime", type=float, default=0.01)
    p.add_argument("--s", type=int, default=16)
    p.add_argument("--engine", choices=("fast", "exact"), default="fast")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("experiment", help="run event-frequency experiments")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--trials", type=int, help="override config trial count")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--jobs", type=int, default=1)
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
    ((InvariantError, EigensolverError, DegenerateStateError, FlushLimitError), EXIT_NUMERIC),
    ((QwmarkError,), EXIT_OTHER),
]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except QwmarkError as exc:
        for classes, code in _EXIT_CODES:
            if isinstance(exc, classes):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
