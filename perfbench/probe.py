"""Set-up probe: in a fresh interpreter, time ``import midrad`` plus one cold
op of each kind of a workload, and print the seconds and the reference
kernel's nanoseconds around it (see ``speed``).

    python3 perfbench/probe.py <workload> <seed>
"""

import statistics
import sys
import time
from pathlib import Path

import specs
from speed import reference_ns

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def speed_ns() -> float:
    """The reference kernel's time now: the median of three runs."""
    return statistics.median(reference_ns() for _ in range(3))


def main() -> None:
    ops = specs.setup_ops(sys.argv[1], int(sys.argv[2]))
    before = speed_ns()
    t0 = time.perf_counter()
    import workloads  # imports midrad
    preparer = workloads.Preparer()
    for op in ops:
        preparer.prepare(op)[1]()
    seconds = time.perf_counter() - t0
    print(seconds, (before + speed_ns()) / 2)


if __name__ == "__main__":
    main()
