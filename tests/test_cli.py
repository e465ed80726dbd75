import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import midrad
from conftest import contains_fraction, mpf_fraction
from midrad import ball, bench, cli, decimal_io, elementary as el
from midrad.ball import Ball
from midrad.bigfloat import BigFloat


def test_import_leaves_numpy_out():
    src = Path(midrad.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", "import sys, midrad; print('numpy' in sys.modules)"],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_paper_loop(self, capsys):
        code, out, _ = run(capsys, "eval", "sin(pi + exp(-10000))", "--digits", "15")
        assert code == 0
        assert out.startswith("[-1.13548386531474e-4343 +/- ")

    def test_sqrt_minus_one_prints_nan(self, capsys):
        code, out, _ = run(capsys, "eval", "sqrt(-1)", "--max-prec", "256")
        assert code == 0 and out.strip() == "nan"

    def test_exact(self, capsys):
        code, out, _ = run(capsys, "eval", "sqrt(4)")
        assert code == 0 and out.strip() == "2"

    def test_variables(self, capsys):
        code, out, _ = run(capsys, "eval", "x*y", "--var", "x=1.5", "--var", "y=4")
        assert code == 0 and out.strip() == "6"

    def test_sin_cos_of_a_tiny_radius_near_one_converge(self, capsys):
        # |mid| + rad passes 1 here; a radius of 1e-30 must still print digits
        for expr, x in (("cos(x)", "1e-30"), ("sin(x)", "[1.5707963267948966+/-1e-30]")):
            code, out, _ = run(capsys, "eval", expr, "--var", f"x={x}", "--max-prec", "4096")
            assert code == 0 and out.startswith("[1 +/- "), (expr, out)

    def test_unconverged_exit_2(self, capsys):
        code, out, err = run(capsys, "eval", "log(2)+log(3)-log(6)",
                             "--digits", "15", "--max-prec", "1024")
        assert code == 2
        assert "unconverged" in err

    def test_huge_literal_exit_2_with_enclosure(self, capsys):
        # the literal parses to [0 +/- 2^1328772003], a radius far beyond the
        # print cap
        code, out, err = run(capsys, "eval", "1e400000000")
        assert code == 2 and "unconverged" in err
        head, _, exponent = out.strip().partition("[+/- 1.00e")
        assert not head and exponent.endswith("]")
        assert 400000000 <= int(exponent[:-1]) <= 400000005  # [+/- 10^K] holds 10^400000000

    @pytest.mark.parametrize("fn", ("exp", "log", "sin", "atan"))
    def test_inexact_binding_exit_2_with_bounded_work(self, capsys, monkeypatch, fn):
        # the binding carries about 95 bits against a 1000-bit target, so the
        # loop climbs to the default cap of 2^24 bits; every series runs near
        # the bits the binding carries (plus 64, plus the point routines' own
        # guard bits, about 40 here), so a regression fails here and does not
        # hang
        literal = "1.2345678901234567890"
        x = decimal_io.from_decimal(literal)
        bound = (ball.rel_accuracy_bits(x) + x.mid.exp.bit_length() if fn == "log"
                 else -x.rad.exp) + 64 + 64
        kernel = el._series

        def series(f, w, z):
            if w > bound:
                raise AssertionError(f"series at {w} bits, above {bound}")
            return kernel(f, w, z)

        monkeypatch.setattr(el, "_series", series)
        code, out, err = run(capsys, "eval", f"{fn}(x)", "--var", f"x={literal}",
                             "--digits", "300")
        assert code == 2 and "unconverged at precision cap 16777216" in err
        with mpmath.workprec(400):
            ref = mpf_fraction(getattr(mpmath, fn)(mpmath.mpf(literal)))
        assert contains_fraction(decimal_io.from_decimal(out.strip()), ref), out

    def test_parse_error_exit_1(self, capsys):
        code, _, err = run(capsys, "eval", "sin(")
        assert code == 1 and "position" in err

    def test_deep_nesting_exit_1(self, capsys):
        code, _, err = run(capsys, "eval", "(" * 3000 + "1" + ")" * 3000)
        assert code == 1 and err.startswith("error:")

    def test_long_chain_exit_1(self, capsys):
        code, _, err = run(capsys, "round", "+".join(["1"] * 3000))
        assert code == 1 and err.startswith("error:")

    def test_bad_binding_exit_1(self, capsys):
        code, _, err = run(capsys, "eval", "x", "--var", "x")
        assert code == 1
        # a constant cannot be rebound, and 1x is no name an expression can use
        for cmd, expr, var in (("eval", "pi", "pi=3"), ("round", "pi", "pi=3"),
                               ("eval", "x", "1x=2"), ("eval", "x", "=2"),
                               ("eval", "x", "x+y=2")):
            code, out, err = run(capsys, cmd, expr, "--var", var)
            assert code == 1 and not out and "not a variable name" in err, var
        assert run(capsys, "eval", "x_1 * 2", "--var", " x_1 =3")[:2] == (0, "6\n")


    def test_repeated_binding_exit_1(self, capsys):
        for cmd in ("eval", "round"):
            code, out, err = run(capsys, cmd, "x", "--var", "x=1", "--var", " x =2")
            assert code == 1 and not out, cmd
            assert err == "error: variable 'x' bound twice\n", err

    def test_bad_binding_value_names_the_binding(self, capsys):
        for cmd in ("eval", "round"):
            code, out, err = run(capsys, cmd, "x", "--var", "x=1.5e")
            assert code == 1 and not out, cmd
            assert err == "error: --var x=1.5e: expected exponent digits (at position 4)\n", err

    def test_eval_and_round_share_the_binding_help(self, capsys):
        helps = [run(capsys, cmd, "--help")[1] for cmd in ("eval", "round")]
        for h in helps:
            assert "--max-prec" in h and "bind a variable (decimal or ball literal)" in h


class TestPrecisionOptions:
    def test_start_prec_is_gone(self, capsys):
        for cmd in ("eval", "round"):
            assert run(capsys, cmd, "pi", "--start-prec", "64")[0] == 1

    def test_max_prec_below_the_start_exit_1(self, capsys):
        for cmd in ("eval", "round"):
            code, _, err = run(capsys, cmd, "pi", "--max-prec", "32")
            assert code == 1 and err.startswith("error:")


class TestRound:
    def test_pi_nearest(self, capsys):
        code, out, _ = run(capsys, "round", "pi", "--bits", "53", "--mode", "nearest")
        assert code == 0 and out.strip() == "884279719003555*2^-48"

    def test_modes(self, capsys):
        code, lo, _ = run(capsys, "round", "pi", "--bits", "10", "--mode", "down")
        code2, hi, _ = run(capsys, "round", "pi", "--bits", "10", "--mode", "up")
        assert code == code2 == 0 and lo != hi

    def test_exact_case(self, capsys):
        code, out, _ = run(capsys, "round", "exp(0)", "--bits", "53")
        assert code == 0 and out.strip() == "1*2^0"

    def test_bits_above_the_cap(self, capsys):
        # evaluation starts at the cap: an exact value still certifies
        code, out, _ = run(capsys, "round", "2", "--bits", "100", "--max-prec", "64")
        assert code == 0 and out.strip() == "1*2^1"
        code, _, err = run(capsys, "round", "exp(1)", "--bits", "100", "--max-prec", "64")
        assert code == 2 and "exact" in err

    def test_dilemma_exit_2(self, capsys):
        code, _, err = run(capsys, "round", "log(2)+log(3)-log(6)",
                           "--bits", "53", "--max-prec", "1024")
        assert code == 2 and "exact" in err

    @pytest.mark.parametrize("argv", [["1/0"], ["log(0)"], ["x", "--var", "x=nan"],
                                      ["1/0 + exp(1)"]])
    def test_indeterminate_prints_nan_like_eval(self, capsys, argv):
        code, out, err = run(capsys, "round", *argv, "--max-prec", "1024")
        assert (code, out.strip(), err) == (0, "nan", "")
        assert run(capsys, "eval", *argv, "--max-prec", "1024")[:2] == (0, "nan\n")

    def test_pole_touching_value_is_not_nan(self, capsys):
        # 1/(exp(x) - 1) is about 1e700 for x = 1e-700, though at 1024 bits
        # the denominator's ball still touches 0
        code, out, err = run(capsys, "round", "1/(exp(x)-1)", "--var", "x=1e-700",
                             "--max-prec", "1024")
        assert (code, out) == (2, "") and "indeterminate" in err


class TestBench:
    def test_factorial_csv(self, capsys):
        code, out, _ = run(capsys, "bench", "factorial", "--n", "100", "--prec", "64")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name,param,prec,seconds,metric"
        assert lines[1].startswith("factorial,100,64,")

    def test_falling_factorial_csv(self, capsys):
        code, out, _ = run(capsys, "bench", "falling-factorial", "--n", "30", "--prec", "64")
        assert code == 0 and "falling-factorial,30,64," in out

    def test_falling_factorial_of_order_0_is_1(self, capsys):
        # x^(0 falling) is the empty product: exact, so its metric is inf
        code, out, err = run(capsys, "bench", "falling-factorial", "--n", "0", "--prec", "64")
        assert code == 0 and not err
        row = out.strip().splitlines()[1].split(",")
        assert row[:3] == ["falling-factorial", "0", "64"] and row[4] == "inf"

    def test_polymul_csv(self, capsys):
        code, out, _ = run(capsys, "bench", "polymul", "--n", "32", "--prec", "64")
        assert code == 0
        assert "polymul-block,32,64," in out and "polymul-schoolbook,32,64," in out

    def test_elementary_csv(self, capsys):
        code, out, _ = run(capsys, "bench", "elementary", "--prec", "53", "--prec", "333")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name,param,prec,seconds,metric"
        rows = [line.split(",") for line in lines[1:]]
        assert [(r[0], r[2]) for r in rows] == [(f, p) for p in ("53", "333")
                                                for f in ("exp", "log", "sin", "atan")]
        assert all(int(r[4]) >= int(r[2]) - 2 for r in rows)  # rel_accuracy_bits

    def test_elementary_default_precisions(self, capsys):
        code, out, _ = run(capsys, "bench", "elementary")
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 1 + 4 * 4
        assert {line.split(",")[2] for line in lines[1:]} == {"53", "333", "1000", "10000"}

    def test_round_csv(self, capsys):
        code, out, err = run(capsys, "bench", "round", "--n", "4")
        assert code == 0 and not err
        lines = out.strip().splitlines()
        assert lines[0] == "name,param,prec,seconds,metric"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[:3] for r in rows] == [[f, "20", "53"] for f in ("exp", "log", "sin", "atan", "sqrt")]
        # roundings per second: 20 roundings over the seconds column
        assert all(abs(int(r[4]) * float(r[3]) / 20 - 1) < 0.01 for r in rows)
        code, out, _ = run(capsys, "bench", "round", "--n", "1", "--prec", "24", "--prec", "100")
        assert code == 0 and [line.split(",")[2] for line in out.strip().splitlines()[1:]] == \
            ["24"] * 5 + ["100"] * 5
        assert run(capsys, "bench", "round", "--n", "0")[0] == 1

    def test_round_draws_criterion_9_arguments(self):
        # the first draw of acceptance criterion 9's seeded loop, an exp argument
        rng = random.Random(90210)
        man = rng.getrandbits(53) | (1 << 52)
        e = rng.randrange(-60, 8)
        if rng.random() < 0.5:
            man = -man
        args = bench.round_args(3)
        assert [len(args[f]) for f in ("exp", "log", "sin", "atan", "sqrt")] == [3] * 5
        assert args["exp"][0] == Ball(BigFloat.from_man_exp(man, e - 53))

    def test_usage_error(self, capsys):
        assert run(capsys, "bench", "nosuch")[0] == 1
        assert run(capsys)[0] == 1
