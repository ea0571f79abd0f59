#!/usr/bin/env python3
"""Repository benchmark: one workload per run, result JSON on the last line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload tune-bert --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
reruns the measured work with per-layer wrappers installed and reports the
per-layer metrics.  Workloads, metrics and the layer map are described in
``perfbench/README.md``.  The run fails (exit code 2, no result) when the
checkout holds no ``src/repro`` package.
"""

from __future__ import annotations

import argparse
import sys

import common

WORKLOADS = ("tune-bert", "serve-hit", "serve-miss")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.use_source()
    except common.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "tune-bert":
        import tune_bert

        tune_bert.run(args.seed, args.seconds, bool(args.trace))
    else:
        import serve

        serve.run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
