"""Tests of the benchmark itself: seeded inputs, wrapper hygiene, and checkers
that reject wrong results.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import specs  # noqa: E402
import workloads  # noqa: E402
from midrad.ball import Ball  # noqa: E402
from midrad.bigfloat import BigFloat  # noqa: E402
from midrad import magnitude as mag  # noqa: E402


def _public(modules):
    return {(m.__name__, name): fn for m in modules for name, fn in spans.public_functions(m)}


@pytest.mark.parametrize("workload", specs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    for cycle in (0, 3):
        first = specs.cycle_ops(workload, specs.DEFAULT_SEED, cycle)
        assert first == specs.cycle_ops(workload, specs.DEFAULT_SEED, cycle)
    assert specs.setup_ops(workload, 7) == specs.setup_ops(workload, 7)
    assert specs.cycle_ops(workload, 1, 0) != specs.cycle_ops(workload, 2, 0)


def test_seeds_change_the_values_but_not_the_mix():
    for workload in specs.WORKLOADS:
        a = specs.cycle_ops(workload, specs.DEFAULT_SEED, 0)
        b = specs.cycle_ops(workload, specs.HELDOUT_SEED, 0)
        assert a != b
        kinds = lambda ops: sorted(specs._kind(workload, op) for op in ops)  # noqa: E731
        assert kinds(a) == kinds(b)


def test_traced_run_restores_every_wrapped_attribute():
    before = _public(harness.LAYER_MODULES)
    assert len(before) > 50
    rec = spans.Recorder()
    tracer = spans.Tracer(harness.LAYER_MODULES, rec)
    with tracer:
        during = _public(harness.LAYER_MODULES)
        assert all(during[k] is not fn and during[k].__wrapped__ is fn for k, fn in before.items())
    after = _public(harness.LAYER_MODULES)
    assert after.keys() == before.keys()
    assert all(after[k] is fn for k, fn in before.items())


def test_traced_run_end_to_end_restores_and_reports(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    monkeypatch.setattr(harness, "MIN_SAMPLES", 40)
    before = _public(harness.LAYER_MODULES)
    tally, _, metrics = harness.traced_run("decimal", specs.DEFAULT_SEED, 0.0)
    assert tally.failed == 0
    assert all(_public(harness.LAYER_MODULES)[k] is fn for k, fn in before.items())
    assert metrics["decimal_io.to_decimal.us_per_call"] > 0
    assert metrics["trace.overhead_ratio"] > 0
    assert (tmp_path / "spans-decimal.bin").stat().st_size > 0


def test_untraced_run_installs_no_wrapper(monkeypatch):
    originals = _public(harness.LAYER_MODULES)

    def no_wrapping(*args, **kwargs):
        raise AssertionError("an untraced run made a wrapper")

    seen = []

    class SpyChecker(harness.Checker):
        def __call__(self, op, inp, out):
            seen.append(all(fn is originals[k] for k, fn in _public(harness.LAYER_MODULES).items()))
            return super().__call__(op, inp, out)

    monkeypatch.setattr(spans.Recorder, "wrap", no_wrapping)
    monkeypatch.setattr(harness, "measure_setup", lambda workload, seed: 1.0)
    monkeypatch.setattr(harness, "Checker", SpyChecker)
    monkeypatch.setattr(harness, "MIN_SAMPLES", 40)
    tally, _, metrics = harness.untraced_run("decimal", specs.DEFAULT_SEED, 0.0)
    assert tally.failed == 0 and len(seen) == tally.attempted >= 40
    assert all(seen)
    assert metrics["ops_per_s"] > 0


def _run(op):
    inp, thunk = workloads.Preparer().prepare(op)
    return inp, thunk()


def _nudge(x: BigFloat, ulps: int = 1) -> BigFloat:
    """x moved by a few units in its last place, built without midrad arithmetic."""
    return BigFloat.from_man_exp(x.sign * x.man + ulps, x.exp - x.man.bit_length())


def test_checkers_reject_wrong_results():
    op = specs.round53_cycle(specs.DEFAULT_SEED, 0)[0]
    _, got = _run(op)
    assert oracles.check_round53(op, got).status == oracles.OK
    assert oracles.check_round53(op, _nudge(got)).status == oracles.FAIL

    op = ("factorial", 200, 64)
    _, got = _run(op)
    assert harness.Checker("products")(op, None, got).status == oracles.OK
    assert harness.Checker("products")(op, None, Ball(_nudge(got.mid, 1 << 20), got.rad)).status == oracles.FAIL

    op = ("falling", 40, 64)
    _, got = _run(op)
    checker = harness.Checker("products")
    assert checker(op, None, got).status == oracles.OK
    bad = list(got.coeffs)
    bad[7] = Ball(_nudge(bad[7].mid, 3), mag.ZERO)
    assert checker(op, None, type(got)(bad)).status == oracles.FAIL

    op = ("write", 884279719003555, -48, 536870913, -80, 30)
    inp, text = _run(op)
    assert text == "[3.141592653589793 +/- 5.61e-16]"
    assert oracles.check_decimal(op, inp, text).status == oracles.OK
    for wrong in ("[3.141592653589793 +/- 5.60e-17]", "[3.141592653589794 +/- 5.61e-16]", "3.14159"):
        assert oracles.check_decimal(op, inp, wrong).status == oracles.FAIL

    op = ("read", "[1.5 +/- 0.25]")
    _, got = _run(op)
    assert oracles.check_decimal(op, None, got).status == oracles.OK
    assert oracles.check_decimal(op, None, Ball(got.mid, mag.pow2(-3))).status == oracles.FAIL


def test_highprec_checker_rejects_wrong_status_and_value():
    op = ("eval", "sqrt2pi", "sqrt(2)*pi", 30, None, None, True)
    _, (result, text) = _run(op)
    assert oracles.check_highprec(op, result, text).status == oracles.OK
    result.converged = False
    assert oracles.check_highprec(op, result, text).status == oracles.FAIL
    result.converged = True
    result.value = Ball(_nudge(result.value.mid, 1 << 40), result.value.rad)
    assert oracles.check_highprec(op, result, text).status == oracles.FAIL


def test_rounding_oracle_matches_float_rounding():
    for x in (Fraction(1, 3), Fraction(-2, 3), Fraction(10 ** 30, 7)):
        assert oracles.round_fraction(x, 53, 4) == Fraction(float(x))
    assert oracles.round_fraction(Fraction(5, 2), 2, 4) == 2      # ties to even
    assert oracles.round_fraction(Fraction(5, 2), 2, 1) == 3      # up
    assert oracles.round_fraction(Fraction(-5, 2), 2, 0) == -3    # down
    assert oracles.round_fraction(Fraction(-5, 2), 2, 2) == -2    # toward zero
    assert oracles.round_fraction(Fraction(-5, 2), 2, 3) == -3    # away from zero


def test_product_oracles_are_exact():
    rows = oracles.stirling_rows([4])
    assert rows[4] == [0, -6, 11, -6, 1]  # x(x-1)(x-2)(x-3)
    assert oracles.convolve_ints([1, 2], [3, 4, 5]) == [3, 10, 13, 10]
    sq = oracles.exp_series_square(3)  # (1 + x + x^2/2)^2
    assert sq == [1, 2, 2, 1, Fraction(1, 4)]


def test_record_matches_benchmark_and_specs():
    import json
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    record = json.loads((HERE / "record.json").read_text())
    mapped = [m for entry in record["layer_map"] for m in entry["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in bench["per_layer"])
    assert record["seeds"] == {**record["seeds"], "default": specs.DEFAULT_SEED, "held_out": specs.HELDOUT_SEED}
    assert record["caps"][0]["max_prec"] == specs.GIVE_UP_MAX_PREC
    assert [w["name"] for w in bench["workloads"]] == list(specs.WORKLOADS)
