"""Benchmark of the micas pipeline stages.

    python3 perfbench/run.py --workload sampler_train --seed 0 --seconds 20 --trace 0

Runs one workload (sampler_train, ranker_train or eval) against the
package in `src/` of the checkout this file sits in, and prints, as the
last line of standard output, one JSON object with `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
metrics; `--trace 1` reports the per-layer trace instead. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("sampler_train", "ranker_train", "eval")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the self-test only")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in u64")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import micas from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "micas" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no micas package under {src}")
    sys.path.insert(0, str(src))
    import micas

    if Path(micas.__file__).resolve().parent != src / "micas":
        raise SystemExit(f"perfbench: imported micas from {micas.__file__}, not from {src}")


@contextlib.contextmanager
def scratch_dir(name: str):
    """A fresh directory under .perfbench_runs/, removed afterwards."""
    path = ROOT / ".perfbench_runs" / f"{name}-{os.getpid()}"
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            path.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads

    with scratch_dir(f"{args.workload}-{args.seed}") as work_dir:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), args.size, work_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
