from fractions import Fraction

import mpmath
import pytest

from conftest import ball_bounds, contains_fraction, mpf_fraction
from midrad import ball, bigfloat as bf, decimal_io as dio, expreval as ev
from midrad.ball import Ball
from midrad.bigfloat import BigFloat, Rounding
from midrad.expreval import Bin, Call, Const, Neg, Num, Var


class TestParser:
    def test_structure(self):
        e = ev.parse_expr("sin(pi + exp(-10000))")
        assert e == Call("sin", (Bin("+", Const("pi"), Call("exp", (Neg(Num(10000, 0)),))),))

    def test_power_right_associative(self):
        e = ev.parse_expr("2^3^2")
        assert e == Bin("^", Num(2, 0), Bin("^", Num(3, 0), Num(2, 0)))

    def test_unary_minus_binds_below_power(self):
        e = ev.parse_expr("-2^2")
        assert e == Neg(Bin("^", Num(2, 0), Num(2, 0)))

    def test_power_of_negative(self):
        e = ev.parse_expr("2^-3")
        assert e == Bin("^", Num(2, 0), Neg(Num(3, 0)))

    def test_free_variable(self):
        e = ev.parse_expr("log(x) + sin(x)*exp(-x)")
        assert ev.free_variables(e) == {"x"}

    def test_precedence(self):
        e = ev.parse_expr("1 + 2*3")
        assert e == Bin("+", Num(1, 0), Bin("*", Num(2, 0), Num(3, 0)))

    def test_decimal_literals(self):
        assert ev.parse_expr("2.5e-3") == Num(25, -4)
        assert ev.parse_expr("0.125") == Num(125, -3)
        assert ev.parse_expr(".5") == Num(5, -1)

    def test_pow_function(self):
        e = ev.parse_expr("pow(2, 10)")
        assert e == Call("pow", (Num(2, 0), Num(10, 0)))

    @pytest.mark.parametrize("src,pos", [
        ("sin(", 4),
        ("2 +", 3),
        ("sinn(3)", 0),
        ("1 @ 2", 2),
        ("(1", 2),
        ("sin(1, 2)", 0),
    ])
    def test_errors_carry_offsets(self, src, pos):
        with pytest.raises(dio.ParseError) as ex:
            ev.parse_expr(src)
        assert ex.value.position == pos

    def test_deep_nesting_is_a_parse_error(self):
        # 3000 levels used to overflow Python's stack in the parser
        with pytest.raises(dio.ParseError) as ex:
            ev.parse_expr("(" * 3000 + "1" + ")" * 3000)
        assert ex.value.position == ev._MAX_DEPTH  # the first '(' past the cap
        for src in ("-" * 3000 + "1", "2^" * 3000 + "2", "sin(" * 3000 + "1" + ")" * 3000):
            with pytest.raises(dio.ParseError):
                ev.parse_expr(src)

    def test_long_chain_is_a_parse_error(self):
        # the parser builds it in a loop, but evaluation recurses on its height
        src = "+".join(["1"] * 3000)
        with pytest.raises(dio.ParseError) as ex:
            ev.parse_expr(src)
        assert ex.value.position == 2 * ev._MAX_HEIGHT - 1  # the operator past the cap

    def test_nesting_up_to_the_limits(self):
        e = ev.parse_expr("(" * (ev._MAX_DEPTH - 1) + "1" + ")" * (ev._MAX_DEPTH - 1))
        assert e == Num(1, 0)
        e = ev.parse_expr("+".join(["1"] * ev._MAX_HEIGHT))
        assert ev.eval_ball(e, {}, 64).mid.to_fraction() == ev._MAX_HEIGHT


class TestEvalBall:
    def test_literals_reenclosed_per_precision(self):
        e = ev.parse_expr("0.1")
        b64 = ev.eval_ball(e, {}, 64)
        b256 = ev.eval_ball(e, {}, 256)
        assert contains_fraction(b64, Fraction(1, 10))
        assert contains_fraction(b256, Fraction(1, 10))
        assert b256.rad.to_fraction() < b64.rad.to_fraction()

    def test_dyadic_literals_exact(self):
        assert ev.eval_ball(ev.parse_expr("0.125"), {}, 64).is_exact()
        assert ev.eval_ball(ev.parse_expr("5e3"), {}, 64).mid.to_fraction() == 5000

    def test_unbound_variable(self):
        with pytest.raises(ev.UnboundVariableError):
            ev.eval_ball(ev.parse_expr("x + 1"), {}, 64)

    def test_huge_literal_exponents_use_the_crude_enclosure(self):
        # beyond the cap, neither 5^|e| nor 10^|e| is built; the result is
        # [0 +/- 2^b] with 3 * 10^e < 2^b
        with mpmath.workprec(200):
            for e10 in (-10 ** 9, 10 ** 9, -dio._POW_CAP - 1):
                b = ev.eval_ball(Num(3, e10), {}, 64)
                assert b.mid.is_zero()
                log2_value = mpmath.log(3, 2) + e10 * mpmath.log(10, 2)
                assert b.rad.exp - 1 > log2_value  # rad = 2^(exp - 1)
                assert b.rad.exp - 1 < log2_value + 10 ** 4

    def test_bound_variable(self):
        v = ev.eval_ball(ev.parse_expr("x^2 + 1"), {"x": Ball.from_int(3)}, 64)
        assert v.mid.to_fraction() == 10 and v.is_exact()


class TestAdaptive:
    def test_sqrt4_converges_immediately(self):
        res = ev.eval_adaptive(ev.parse_expr("sqrt(4)"), {}, ev.EvalConfig())
        assert res.converged and res.prec == 64
        assert res.value.mid.to_fraction() == 2 and res.value.is_exact()

    def test_paper_style_loop(self):
        cfg = ev.EvalConfig.for_digits(15)
        assert cfg.target_bits == 53
        res = ev.eval_adaptive(ev.parse_expr("sin(pi + exp(-10000))"), {}, cfg)
        assert res.converged and res.prec == 16384
        s = dio.to_decimal(res.value, 15)
        assert s.startswith("[-1.13548386531474e-4343 +/- ")

    def test_eq2_at_million(self):
        mpmath.mp.prec = 250
        e = ev.parse_expr("log(x) + sin(x)*exp(-x)")
        res = ev.eval_adaptive(e, {"x": Ball.from_int(10 ** 6)},
                               ev.EvalConfig(target_bits=53))
        assert res.converged and res.prec <= 128
        ref = mpf_fraction(mpmath.log(10 ** 6))  # the exp(-x) term is ~1e-434294
        lo, hi = ball_bounds(res.value)
        assert lo <= ref + Fraction(1, 10 ** 60) and hi >= ref - Fraction(1, 10 ** 60)

    def test_unconverged_is_graceful(self):
        e = ev.parse_expr("log(2) + log(3) - log(6)")
        res = ev.eval_adaptive(e, {}, ev.EvalConfig(target_bits=53, max_prec=1024))
        assert not res.converged
        assert contains_fraction(res.value, Fraction(0))

    def test_monotone_refinement(self):
        e = ev.parse_expr("exp(sin(atan(3)) + log(7))")
        prev = None
        for p in (64, 128, 256, 512):
            v = ev.eval_ball(e, {}, p)
            r = v.rad.to_fraction()
            if prev is not None:
                assert r <= prev
            prev = r

    def test_indeterminate_result(self):
        res = ev.eval_adaptive(ev.parse_expr("sqrt(-1)"), {},
                               ev.EvalConfig(max_prec=256))
        assert not res.converged and res.value.is_indeterminate()


class TestCorrectRounding:
    def test_exact_case_terminates(self):
        v = ev.eval_correctly_rounded(ev.parse_expr("exp(0)"), {}, 53,
                                      Rounding.NEAREST_EVEN)
        assert v.to_fraction() == 1

    def test_pi_53(self):
        v = ev.eval_correctly_rounded(ev.parse_expr("pi"), {}, 53,
                                      Rounding.NEAREST_EVEN)
        assert v == BigFloat.from_man_exp(884279719003555, -48)

    def test_directed_modes_bracket(self):
        lo = ev.eval_correctly_rounded(ev.parse_expr("log(3)"), {}, 53, Rounding.DOWN)
        hi = ev.eval_correctly_rounded(ev.parse_expr("log(3)"), {}, 53, Rounding.UP)
        ref = mpf_fraction(mpmath.log(3))
        assert lo.to_fraction() < ref < hi.to_fraction()
        assert hi.to_fraction() - lo.to_fraction() == Fraction(1, 2 ** 52)  # one ulp

    def test_dilemma_raises(self):
        e = ev.parse_expr("log(2) + log(3) - log(6)")
        with pytest.raises(ev.UnconvergedError):
            ev.eval_correctly_rounded(e, {}, 53, Rounding.NEAREST_EVEN,
                                      ev.EvalConfig(max_prec=2048))

    def test_exact_sqrt_collapse(self):
        v = ev.eval_correctly_rounded(ev.parse_expr("sqrt(4)"), {}, 10, Rounding.DOWN)
        assert v.to_fraction() == 2


class TestDeterminism:
    def test_identical_invocations(self):
        e = ev.parse_expr("exp(atan(1) * 4)")
        a = ev.eval_adaptive(e, {}, ev.EvalConfig.for_digits(20))
        b = ev.eval_adaptive(e, {}, ev.EvalConfig.for_digits(20))
        assert a.value == b.value and a.prec == b.prec
        assert dio.to_decimal(a.value, 20) == dio.to_decimal(b.value, 20)
