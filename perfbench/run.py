"""Benchmark entry point; run it from the repository root:

    python3 perfbench/run.py --workload round53 --seed 1611 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it print the same metrics for reading.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import specs

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=specs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "midrad" / "__init__.py").is_file():
        print(f"error: no midrad sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import midrad
    if Path(midrad.__file__).resolve().parent != SRC / "midrad":
        print(f"error: imported midrad from {midrad.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    return harness.main(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
