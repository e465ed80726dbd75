"""Timing loops, set-up probe and metrics for one run of one workload.

A run is single-process, single-threaded and closed-loop: each op starts when
the previous one and its check have finished.  Runs measure whole cycles of
``specs`` until the timed ops add up to ``--seconds`` on the nominal machine
(see ``speed``) and at least ``MIN_SAMPLES`` ops have run.  Every op is
checked by ``oracles`` outside the timed region.

The untraced run reports the end-to-end metrics.  The traced run times
every op both untraced and under :class:`spans.Tracer`, and reports the
per-layer metrics and the ratio of the two times.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from midrad import ball, ballpoly, bigfloat, decimal_io, elementary, expreval, intpoly, magnitude

import oracles
import spans
import specs
import workloads
from speed import NOMINAL_NS, reference_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
LAYER_MODULES = (bigfloat, magnitude, ball, elementary, expreval, decimal_io, ballpoly, intpoly)
MIN_SAMPLES = 100   # op_p90_ms needs 10 samples beyond it
P99_SAMPLES = 1000  # op_p99_ms is printed only from this many samples on
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
REF_EVERY_NS = 50_000_000  # time the reference kernel after this much op time
SPEED_WINDOW = 2  # an op's speed is the median of the reference samples this near it
TIMED_SUFFIXES = ("_ms_per_op", ".us_per_call", ".ns_per_operand_bit")  # layer timings to scale


@dataclass
class Tally:
    attempted: int = 0
    ok: int = 0
    failed: int = 0
    inconclusive: int = 0
    total_ns: int = 0
    # typed arrays, so that memory does not grow with the op count
    latencies_ns: array = field(default_factory=lambda: array("q"))
    accuracies: array = field(default_factory=lambda: array("d"))
    failures: list = field(default_factory=list)
    # speed.reference_ns() samples; op i ran between samples segment[i] and segment[i] + 1
    ref_ns: list = field(default_factory=list)
    segment: array = field(default_factory=lambda: array("i"))
    since_ref_ns: int = 0

    def sample_speed(self, every_ns: int = 0):
        """Time the reference kernel, if ``every_ns`` of op time passed since the last time."""
        if self.since_ref_ns >= every_ns:
            self.ref_ns.append(reference_ns())
            self.since_ref_ns = 0

    def _speed(self, j: int) -> float:
        """Nominal over actual speed around sample j: a median of nearby samples,
        because a single 2 ms sample can be off by a factor of three."""
        return NOMINAL_NS / statistics.median(self.ref_ns[max(0, j - SPEED_WINDOW):j + SPEED_WINDOW + 2])

    def nominal_elapsed_ns(self) -> float:
        """Op time so far on the nominal machine, at the latest speed."""
        return self.total_ns * self._speed(len(self.ref_ns) - 1)

    def scaled_latencies_ns(self) -> list:
        """Op times on the nominal machine (see ``speed``)."""
        factors = [self._speed(j) for j in range(len(self.ref_ns))]
        return [ns * factors[j] for ns, j in zip(self.latencies_ns, self.segment)]

    def add(self, ns: int, verdict: oracles.Verdict):
        self.attempted += 1
        self.total_ns += ns
        self.since_ref_ns += ns
        self.latencies_ns.append(ns)
        self.segment.append(len(self.ref_ns) - 1)
        if verdict.status == oracles.FAIL:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(verdict.detail)
            return
        if verdict.status == oracles.INCONCLUSIVE:
            self.inconclusive += 1
        else:
            self.ok += 1
        if verdict.accuracy is not None:
            self.accuracies.append(verdict.accuracy)


class Checker:
    """Dispatches an op's output to its workload's oracle."""

    def __init__(self, workload: str):
        self.workload = workload
        self.products = oracles.ProductsOracle()

    def __call__(self, op: tuple, inp, out) -> oracles.Verdict:
        if isinstance(out, Exception):
            return oracles.fail(f"{op[0]} raised {type(out).__name__}: {out}")
        if self.workload == "round53":
            return oracles.check_round53(op, out)
        if self.workload == "highprec":
            return oracles.check_highprec(op, *out)
        if self.workload == "products":
            return self.products.check(op, out)
        return oracles.check_decimal(op, inp, out)


def timed(thunk):
    """(output or the exception raised, nanoseconds) of one op."""
    t0 = time.perf_counter_ns()
    try:
        out = thunk()
    except Exception as exc:  # a failed op is counted, and the run goes on
        out = exc
    return out, time.perf_counter_ns() - t0


def run_for(workload: str, seed: int, seconds: float, preparer, checker, tally) -> int:
    """Whole cycles until the timed ops reach ``seconds`` on the nominal machine;
    returns the cycle count.  Counting nominal time keeps the number of
    cycles the same from run to run when the machine's speed wanders."""
    cycle = 0
    tally.sample_speed()
    while tally.nominal_elapsed_ns() < seconds * 1e9 or tally.attempted < MIN_SAMPLES:
        for op in specs.cycle_ops(workload, seed, cycle):
            inp, thunk = preparer.prepare(op)
            out, ns = timed(thunk)
            tally.add(ns, checker(op, inp, out))
            tally.sample_speed(REF_EVERY_NS)
        cycle += 1
    tally.sample_speed()
    return cycle


def warm_up(workload: str, seed: int, preparer):
    """Run one op of each kind, untimed, so that caches fill before timing."""
    for op in specs.setup_ops(workload, seed):
        preparer.prepare(op)[1]()


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters of import midrad plus one cold op of each
    kind, on the nominal machine."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                              cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        seconds, ref = proc.stdout.split()[-2:]
        times.append(float(seconds) * NOMINAL_NS / float(ref))
    return statistics.median(times)


def end_to_end(tally: Tally, setup_s: float, peak_rss_mb: float) -> dict:
    """End-to-end metrics; timings are scaled to the nominal machine."""
    scaled = tally.scaled_latencies_ns()
    cuts = statistics.quantiles([ns / 1e6 for ns in scaled], n=100)
    return {
        "ops_per_s": tally.ok / (sum(scaled) / 1e9),
        "op_p50_ms": cuts[49],
        "op_p90_ms": cuts[89],
        "accuracy_bits_min": min(tally.accuracies),
        "accuracy_bits_p50": statistics.median(tally.accuracies),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def untraced_run(workload: str, seed: int, seconds: float):
    setup_s = measure_setup(workload, seed)
    preparer, checker, tally = workloads.Preparer(), Checker(workload), Tally()
    warm_up(workload, seed, preparer)
    cycles = run_for(workload, seed, seconds, preparer, checker, tally)
    # read before the metrics' own lists, whose size grows with the op count
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return tally, cycles, end_to_end(tally, setup_s, peak_rss_mb)


def traced_run(workload: str, seed: int, seconds: float):
    """Each op runs twice, untraced and traced, in alternating order so that
    drift in the machine's speed and warm caches favour neither side."""
    preparer, checker = workloads.Preparer(), Checker(workload)
    warm_up(workload, seed, preparer)
    inside_share = spans.calibrate()
    OUT_DIR.mkdir(exist_ok=True)
    rec = spans.Recorder()
    tracer = spans.Tracer(LAYER_MODULES, rec)
    agg = spans.Aggregate(rec, OUT_DIR / f"spans-{workload}.bin")
    plain, traced = Tally(), Tally()
    cycle = 0
    plain.sample_speed()
    try:
        while plain.nominal_elapsed_ns() < seconds / 2 * 1e9 or plain.attempted < MIN_SAMPLES:
            for i, op in enumerate(specs.cycle_ops(workload, seed, cycle)):
                for with_trace in ((True, False) if i % 2 else (False, True)):
                    inp, thunk = preparer.prepare(op)
                    if with_trace:
                        with tracer:
                            out, ns = timed(thunk)
                        agg.fold(traced.attempted, ns)
                        traced.add(ns, checker(op, inp, out))
                    else:
                        out, ns = timed(thunk)
                        plain.add(ns, checker(op, inp, out))
                plain.sample_speed(REF_EVERY_NS)
            cycle += 1
    finally:
        agg.close(OUT_DIR / f"spans-{workload}.json")
    metrics = agg.metrics(plain.total_ns, inside_share)
    scale = NOMINAL_NS / statistics.median(plain.ref_ns)
    for name in metrics:
        if name.endswith(TIMED_SUFFIXES):
            metrics[name] *= scale
    metrics["trace.overhead_ratio"] = traced.total_ns / plain.total_ns
    both = Tally(attempted=plain.attempted + traced.attempted, ok=plain.ok + traced.ok,
                 failed=plain.failed + traced.failed,
                 inconclusive=plain.inconclusive + traced.inconclusive,
                 failures=plain.failures + traced.failures)
    return both, cycle, metrics


def _declared(trace: int) -> list:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def main(workload: str, seed: int, seconds: float, trace: int) -> int:
    runner = traced_run if trace else untraced_run
    tally, cycles, values = runner(workload, seed, seconds)
    declared = _declared(trace)
    missing = {m["name"] for m in declared} ^ set(values)
    if missing:
        raise RuntimeError(f"metrics not matching BENCHMARK.json: {sorted(missing)}")
    n = len(tally.latencies_ns)
    print(f"{workload} seed={seed} trace={trace}: {tally.attempted} ops in {cycles} cycles, "
          f"{tally.failed} failed (failed_frac {tally.failed / tally.attempted:.6g}), "
          f"{tally.inconclusive} oracle-inconclusive")
    for m in declared:
        print(f"  {m['name']:<34} {values[m['name']]:.6g} {m['unit']}")
    if not trace:
        p99 = (f"{statistics.quantiles([ns / 1e6 for ns in tally.scaled_latencies_ns()], n=100)[98]:.6g} ms"
               if n >= P99_SAMPLES else f"not reported, {n} < {P99_SAMPLES} samples")
        print(f"  {'op_p99_ms':<34} {p99}")
        wall_ms = [ns / 1e6 for ns in tally.latencies_ns]
        print(f"  unscaled wall clock: {tally.attempted / (tally.total_ns / 1e9):.6g} ops/s, "
              f"median op {statistics.median(wall_ms):.6g} ms; reference kernel median "
              f"{statistics.median(tally.ref_ns) / 1e6:.4g} ms (nominal {NOMINAL_NS / 1e6:g} ms)")
    for detail in tally.failures:
        print(f"FAILED: {detail}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0
