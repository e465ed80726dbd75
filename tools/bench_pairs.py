"""Run the benchmark on two checkouts in alternating pairs and summarise it.

Usage: python tools/bench_pairs.py PARENT CHANGE --workload W --pairs N
                                   --seed S --out BENCH.json [--trace 0|1]
                                   [--control DIR]

PARENT and CHANGE are checkout directories, and DIR, if given, a second
checkout of PARENT's commit.  Each pair runs ``python3 perfbench/run.py``
once in each of them for the ``run_seconds`` of the change's
BENCHMARK.json, in the order parent, change[, control] in even pairs and
the reverse in odd ones, and reads the last JSON line of each run.  The
output file records the commits, the Python version and, per workload and
seed, every run plus, for each metric, each side's median and quartiles
and in how many pairs the change (and the control) was better than the
parent.  The control's wins show how far two checkouts of one commit
differ, so an offset of that size in the change's is no effect of the
code.  An existing output file keeps its other workloads and seeds, so
several calls build one file.  The tool writes only that file; a traced
run's own span files go to the checkout's ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def last_json(stdout: str) -> dict:
    """The last line of a run's output that is a JSON object."""
    for line in reversed(stdout.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON line in the benchmark output")


def quartiles(xs: list) -> dict:
    if len(xs) == 1:
        return {"q1": xs[0], "median": xs[0], "q3": xs[0]}
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def directions(bench: dict) -> dict:
    """metric name -> "higher" or "lower", from a parsed BENCHMARK.json."""
    return {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}


def summarize(pairs: list, better: dict, sides: tuple = SIDES) -> dict:
    """Per metric of the runs: each side's quartiles and each other side's
    wins over the parent.

    pairs holds {side: result} for each of sides, parent first, with each
    result one parsed JSON line, whose metrics are {"value": v, "unit": u};
    a pair counts as a win for a side ("change_wins", "control_wins") when
    its value is strictly better than the parent's in the metric's
    direction.
    """
    out = {}
    for name in pairs[0]["change"]["metrics"]:
        vals = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in sides}
        entry = {s: quartiles(vals[s]) for s in sides}
        if name in better:
            sign = 1 if better[name] == "higher" else -1
            entry["better"] = better[name]
            for s in sides[1:]:
                entry[f"{s}_wins"] = sum(sign * (c - p) > 0
                                         for p, c in zip(vals["parent"], vals[s]))
        entry["pairs"] = len(pairs)
        out[name] = entry
    out["failed"] = {s: sum(p[s]["failed"] for p in pairs) for s in sides}
    return out


def commit(checkout: Path):
    r = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                       cwd=checkout, capture_output=True, text=True)
    if r.returncode != 0:
        raise RuntimeError(f"{checkout}: exit {r.returncode}\n{r.stderr}")
    return last_json(r.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--control", type=Path,
                    help="a second checkout of PARENT's commit, run in every pair")
    args = ap.parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if args.control:
        dirs["control"] = args.control.resolve()
    sides = tuple(dirs)
    bench = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    pairs = []
    for i in range(args.pairs):
        order = sides if i % 2 == 0 else sides[::-1]
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(dirs[side], args.workload, args.seed, seconds, args.trace)
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
        pairs.append(pair)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.update({s: {"commit": commit(dirs[s])} for s in sides})
    doc["python"] = platform.python_version()
    key = f"{args.workload} seed={args.seed} trace={args.trace}"
    doc.setdefault("benches", {})[key] = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "trace": args.trace, "summary": summarize(pairs, directions(bench), sides),
        "runs": pairs}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
