"""tools/bench_pairs.py on canned benchmark output; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


bp = _load_tool()


def _run(ops_per_s, op_p50_ms, failed=0):
    """One run's last output line, parsed, as perfbench/run.py prints it."""
    return {"correct": not failed, "attempted": 10, "failed": failed,
            "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                        "op_p50_ms": {"value": op_p50_ms, "unit": "ms"}}}


def test_last_json_line():
    out = ("highprec seed=1611 trace=0: 1500 ops in 4 cycles\n"
           "  ops_per_s                          130.2 1/s\n"
           + json.dumps(_run(130.2, 0.7)) + "\n")
    assert bp.last_json(out) == _run(130.2, 0.7)
    with pytest.raises(ValueError):
        bp.last_json("no metrics here\n")


def test_quartiles():
    assert bp.quartiles([3.0]) == {"q1": 3.0, "median": 3.0, "q3": 3.0}
    assert bp.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}


def test_summary_counts_wins_in_each_direction():
    pairs = [{"parent": _run(100.0, 1.0), "change": _run(300.0, 0.5)},
             {"parent": _run(110.0, 1.0), "change": _run(105.0, 1.0)},
             {"parent": _run(90.0, 0.9), "change": _run(290.0, 0.4, failed=1)}]
    s = bp.summarize(pairs, {"ops_per_s": "higher", "op_p50_ms": "lower"})
    assert s["ops_per_s"]["change_wins"] == 2   # higher is better
    assert s["op_p50_ms"]["change_wins"] == 2   # lower is better; a tie is no win
    assert s["ops_per_s"]["parent"] == {"q1": 95.0, "median": 100.0, "q3": 105.0}
    assert s["ops_per_s"]["change"]["median"] == 290.0
    assert s["ops_per_s"]["pairs"] == 3
    assert s["failed"] == {"parent": 0, "change": 1}


def test_directions_read_benchmark_json():
    d = bp.directions(json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text()))
    assert d["ops_per_s"] == "higher" and d["op_p90_ms"] == "lower"
    assert d["expreval.evals_per_op"] == "lower"


def test_main_alternates_and_merges(tmp_path, monkeypatch):
    root = TOOL.parents[1]
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        calls.append(workload)
        return _run(100.0 + len(calls), 1.0)

    monkeypatch.setattr(bp, "run_once", fake_run)
    monkeypatch.setattr(bp, "commit", lambda checkout: "abc")
    out = tmp_path / "bench.json"
    for workload in ("highprec", "decimal"):
        bp.main([str(root), str(root), "--workload", workload, "--pairs", "3",
                 "--seed", "1611", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["parent"] == doc["change"] == {"commit": "abc"} and doc["python"]
    assert set(doc["benches"]) == {"highprec seed=1611 trace=0", "decimal seed=1611 trace=0"}
    runs = doc["benches"]["highprec seed=1611 trace=0"]["runs"]
    assert [r["first"] for r in runs] == ["parent", "change", "parent"]
    # the side that runs second in a pair reads the higher canned rate
    assert [r["change"]["metrics"]["ops_per_s"]["value"] > r["parent"]["metrics"]["ops_per_s"]["value"]
            for r in runs] == [True, False, True]
    assert doc["benches"]["highprec seed=1611 trace=0"]["summary"]["ops_per_s"]["change_wins"] == 2
    assert len(calls) == 12


def test_control_runs_in_every_pair(tmp_path, monkeypatch):
    # the control is a second checkout of the parent's commit: it runs in
    # each pair, the order reverses every other pair, and the summary gives
    # its quartiles and its wins over the parent as it does the change's
    dirs = {side: tmp_path / side for side in ("parent", "change", "control")}
    for d in dirs.values():
        d.mkdir()
    (dirs["change"] / "BENCHMARK.json").write_text((TOOL.parents[1] / "BENCHMARK.json").read_text())
    rates = {"parent": 100.0, "change": 150.0, "control": 103.0}
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        side = next(s for s, d in dirs.items() if d == checkout)
        calls.append(side)
        return _run(rates[side] + len(calls) % 2, 1.0)

    monkeypatch.setattr(bp, "run_once", fake_run)
    monkeypatch.setattr(bp, "commit", lambda checkout: checkout.name)
    out = tmp_path / "bench.json"
    bp.main([str(dirs["parent"]), str(dirs["change"]), "--control", str(dirs["control"]),
             "--workload", "decimal", "--pairs", "4", "--seed", "1611", "--out", str(out)])
    assert calls == ["parent", "change", "control", "control", "change", "parent"] * 2
    doc = json.loads(out.read_text())
    assert doc["control"] == {"commit": "control"} and doc["parent"] == {"commit": "parent"}
    bench = doc["benches"]["decimal seed=1611 trace=0"]
    assert [r["first"] for r in bench["runs"]] == ["parent", "control"] * 2
    s = bench["summary"]
    assert s["ops_per_s"]["change_wins"] == 4 and s["ops_per_s"]["control_wins"] == 4
    assert s["op_p50_ms"]["control_wins"] == 0  # ties
    assert s["ops_per_s"]["control"]["median"] == 103.5
    assert s["failed"] == {"parent": 0, "change": 0, "control": 0}
