"""qwmark benchmark: trial throughput and latency on four game workloads.

Run from the repository root:

    python3 perfbench/run.py --workload honest_s8 --seed 3 --seconds 20 --trace 0

The program is imported from `src/` next to this directory; nothing is
installed.  With `--trace 0` the run measures for `--seconds` seconds with no
spans installed and reports the end-to-end metrics, with times scaled to one
reference host speed by a calibration kernel timed alongside them (see
`hostspeed.py`).  With `--trace 1` it runs a fixed trial set of the seed
twice, untraced and then traced, checks that both passes give byte-identical
rows, and reports the per-layer metrics, so that counts repeat exactly under
a seed.  Every run also replays the first trials of the default seed
against the digests pinned in `reference.json`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it, each
starting with `#`, record the environment and how each figure was taken.
`python3 perfbench/run.py --write-reference` re-pins the digests.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare():
    """Pin BLAS to one thread and put the checkout's sources first on the path.

    Must run before numpy is imported.  Both go into the environment too, so
    that pool workers see them however they are started.
    """
    if not (SRC / "qwmark" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qwmark sources under {SRC}")
    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    prepare()
    import qwbench

    if args.write_reference:
        qwbench.write_reference()
        return 0
    if args.workload not in qwbench.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(qwbench.WORKLOADS)}")
    workload = qwbench.WORKLOADS[args.workload]
    if args.probe_setup:
        qwbench.probe_setup(workload)
        return 0
    result, notes = qwbench.run(workload, args.seed, args.seconds, bool(args.trace))
    env = dict(qwbench.environment(), workload=args.workload, seed=args.seed, trace=args.trace)
    print("# env: " + json.dumps(env, sort_keys=True))
    for note in notes:
        print("# " + note)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
