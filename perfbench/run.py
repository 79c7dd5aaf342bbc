"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload identify-churn --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A human-readable table, the machine stamp and any
oracle failures precede it.  The process exits non-zero without a
result when the substrate gate fails or the program is not present.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# One BLAS thread: the load generator, serving worker and stream
# sessions already occupy both cores of the reference machine, and a
# threaded BLAS underneath them would measure the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

    from perfbench import report, substrate, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    substrate.load_model()  # trains once per checkout; never timed
    ctx = workloads.Context(bank=substrate.load_bank(), seed=args.seed)
    try:
        result = report.run(args.workload, ctx, args.seconds, bool(args.trace))
    except workloads.GateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    stamp = substrate.machine_stamp(args.seed)
    print("machine: " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
