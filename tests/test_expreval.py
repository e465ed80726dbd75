from fractions import Fraction

import mpmath
import pytest

from conftest import ball_bounds, contains_fraction, mpf_fraction
from midrad import ball, bigfloat as bf, decimal_io as dio, elementary as el, expreval as ev
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

    def test_precedence(self):
        e = ev.parse_expr("1 + 2*3")
        assert e == Bin("+", Num(1, 0), Bin("*", Num(2, 0), Num(3, 0)))

    def test_decimal_literals(self):
        assert ev.parse_expr("2.5e-3") == Num(25, -4)
        assert ev.parse_expr("0.125") == Num(125, -3)
        assert ev.parse_expr(".5") == Num(5, -1)

    def test_unary_plus(self):
        assert ev.parse_expr("+2") == Num(2, 0)
        assert ev.parse_expr("-+x") == Neg(Var("x"))
        assert ev.parse_expr("2^+3") == Bin("^", Num(2, 0), Num(3, 0))
        assert ev.parse_expr("1 - +2") == Bin("-", Num(1, 0), Num(2, 0))

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

    def test_callees_are_looked_up_at_call_time(self, monkeypatch):
        # a tracer swaps module attributes after import; eval_ball must call
        # the swapped ones, not functions bound when expreval was imported
        calls = []

        def counting(module, name):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a: calls.append(name) or fn(*a))

        counting(el, "exp")
        counting(ball, "add")
        v = ev.eval_ball(ev.parse_expr("exp(1) + 1"), {}, 64)
        assert sorted(calls) == ["add", "exp"]
        assert contains_fraction(v, mpf_fraction(mpmath.e + 1))


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
        assert res.prec == 64  # provably undefined: no climb to the cap

    def test_pole_touching_result_climbs(self):
        # indeterminate at every precision below the cap, but not provably
        res = ev.eval_adaptive(ev.parse_expr("1/(exp(1e-700) - 1)"), {},
                               ev.EvalConfig(max_prec=1024))
        assert not res.converged and res.value.is_indeterminate() and res.prec == 1024


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

    @pytest.mark.parametrize("text", ["1/0", "log(0)", "x", "sqrt(-1)", "pow(0, -1)",
                                      "(-2)^0.5", "1/0 + exp(1)"])
    def test_indeterminate_gives_nan(self, text, monkeypatch):
        # provably undefined: NaN from the first precision, not an
        # UnconvergedError after climbing to the cap
        precs, evb = set(), ev.eval_ball
        monkeypatch.setattr(ev, "eval_ball", lambda e, b, p: precs.add(p) or evb(e, b, p))
        v = ev.eval_correctly_rounded(ev.parse_expr(text), {"x": ball.indeterminate()}, 53,
                                      Rounding.NEAREST_EVEN, ev.EvalConfig(max_prec=4096))
        assert v.is_nan() and precs == {64}

    @pytest.mark.parametrize("text", ["1/0 + exp(1)", "log(0)"])
    def test_undefined_is_proved_by_one_more_evaluation(self, text, monkeypatch):
        # round and eval alike: one evaluation at 64 bits, which is NaN, and
        # one that proves it undefined, whose proof the loop hands back
        e, whole, calls = ev.parse_expr(text), ev._eval, []
        monkeypatch.setattr(ev, "_eval", lambda t, b, p: (t is e and calls.append(p)) or whole(t, b, p))
        assert ev.eval_correctly_rounded(e, {}, 53, Rounding.NEAREST_EVEN).is_nan()
        assert calls == [64, 64]
        calls.clear()
        r = ev.eval_adaptive(e, {}, ev.EvalConfig())
        assert r.value.is_indeterminate() and not r.converged and r.prec == 64
        assert calls == [64, 64]
        calls.clear()
        cfg = ev.EvalConfig(max_prec=64)  # round starts at the cap: the proof is its own
        assert ev.eval_correctly_rounded(e, {}, 53, Rounding.NEAREST_EVEN, cfg).is_nan()
        assert calls == [64, 64]

    def test_no_proof_is_sought_at_the_cap(self, monkeypatch):
        # an indeterminate value that is not undefined: eval stops at the cap
        # without a proof, and round seeks one there only to tell NaN from a raise
        e = ev.parse_expr("1/(exp(1e-700) - 1)")
        whole, calls = ev._eval, []
        monkeypatch.setattr(ev, "_eval", lambda t, b, p: (t is e and calls.append(p)) or whole(t, b, p))
        r = ev.eval_adaptive(e, {}, ev.EvalConfig(max_prec=128))
        assert r.value.is_indeterminate() and not r.converged and r.prec == 128
        assert calls == [64, 64, 128]
        calls.clear()
        with pytest.raises(ev.UnconvergedError, match="indeterminate"):
            ev.eval_correctly_rounded(e, {}, 53, Rounding.NEAREST_EVEN, ev.EvalConfig(max_prec=128))
        assert calls == [64, 64, 128, 128]

    def test_pole_touching_ball_is_not_nan(self):
        # at 1024 bits exp(1e-700) - 1 is a ball around 0, so the quotient is
        # indeterminate, yet the value is about 1e700: refuse at that cap, and
        # round once the precision lifts the ball off the pole
        e = ev.parse_expr("1/(exp(1e-700) - 1)")
        with pytest.raises(ev.UnconvergedError, match="indeterminate"):
            ev.eval_correctly_rounded(e, {}, 53, Rounding.NEAREST_EVEN,
                                      ev.EvalConfig(max_prec=1024))
        v = ev.eval_correctly_rounded(e, {}, 53, Rounding.NEAREST_EVEN,
                                      ev.EvalConfig(max_prec=8192))
        assert abs(v.to_fraction() / 10 ** 700 - 1) < Fraction(1, 2 ** 52)

    def test_exact_sqrt_collapse(self):
        v = ev.eval_correctly_rounded(ev.parse_expr("sqrt(4)"), {}, 10, Rounding.DOWN)
        assert v.to_fraction() == 2


class TestPrecisionSchedule:
    """Both adaptive loops run one schedule.  They start at 64 bits (or prec +
    8 for correct rounding, which is then also the target, but never above
    the cap).  After a failed
    stop test, an evaluation whose accuracy lies in [prec // 2, target) sends
    the loop to the target plus the bits it lost plus a 32-bit guard; any
    other accuracy (more than half the precision lost, none certified, or
    already past the target) doubles the precision, up to the cap."""

    @staticmethod
    def precisions(monkeypatch, run):
        seen = []
        eval_ball = ev.eval_ball
        monkeypatch.setattr(ev, "eval_ball", lambda e, b, p: seen.append(p) or eval_ball(e, b, p))
        try:
            run()
        except ev.UnconvergedError:
            pass
        # eval_ball recurses through the same name: one run per precision
        return [p for i, p in enumerate(seen) if not i or seen[i - 1] != p]

    def test_both_loops(self, monkeypatch):
        e = ev.parse_expr("log(2) + log(3) - log(6)")  # never certifies
        assert self.precisions(monkeypatch, lambda: ev.eval_adaptive(
            e, {}, ev.EvalConfig(target_bits=53, max_prec=1000))) == [64, 128, 256, 512, 1000]
        assert self.precisions(monkeypatch, lambda: ev.eval_correctly_rounded(
            e, {}, 100, Rounding.NEAREST_EVEN, ev.EvalConfig(max_prec=900))) == [108, 216, 432, 864, 900]
        assert self.precisions(monkeypatch, lambda: ev.eval_correctly_rounded(
            e, {}, 100, Rounding.NEAREST_EVEN, ev.EvalConfig(max_prec=64))) == [64]
        assert self.precisions(monkeypatch, lambda: ev.eval_adaptive(
            ev.parse_expr("exp(1)"), {}, ev.EvalConfig(max_prec=64))) == [64]

    def test_start_above_the_cap_runs_at_the_cap(self, monkeypatch):
        seen = []
        eval_ball = ev.eval_ball
        monkeypatch.setattr(ev, "eval_ball", lambda e, b, p: seen.append(p) or eval_ball(e, b, p))
        with pytest.raises(ev.UnconvergedError):
            ev.eval_correctly_rounded(ev.parse_expr("exp(1)"), {}, 10_000, Rounding.NEAREST_EVEN,
                                      ev.EvalConfig(max_prec=4096))
        assert seen and max(seen) == 4096

    def test_jump_to_target_plus_loss(self, monkeypatch):
        e = ev.parse_expr("exp(1)")
        cfg = ev.EvalConfig.for_digits(300)
        loss = max(0, 64 - ball.rel_accuracy_bits(ev.eval_ball(e, {}, 64)))
        ps = self.precisions(monkeypatch, lambda: ev.eval_adaptive(e, {}, cfg))
        assert len(ps) == 2 and ps[0] == 64
        assert ps[1] == cfg.target_bits + loss + 32

    def test_accuracy_limited_input_doubles(self, monkeypatch):
        # a 20-digit binding caps the accuracy near 95 bits at every precision,
        # so after the first jump each loss is implausible and the loop doubles
        cap = 1 << 14
        cfg = ev.EvalConfig.for_digits(300, max_prec=cap)
        x = dio.from_decimal("1.2345678901234567890")
        ps = self.precisions(monkeypatch, lambda: ev.eval_adaptive(
            ev.parse_expr("exp(x)"), {"x": x}, cfg))
        assert len(ps) <= 2 + (cap // 64).bit_length() - 1
        assert ps[-1] == cap
        assert all(q == cap or q >= 2 * p for p, q in zip(ps[1:], ps[2:]))

    def test_correct_rounding_jumps_by_the_loss(self, monkeypatch):
        # exp(1) - 2.718 cancels about 12 bits: 64 bits certify 51, so the
        # loop goes to 64 + 13 + 32 bits, where doubling went to 128
        e = ev.parse_expr("exp(1) - 2.718")
        out = []
        ps = self.precisions(monkeypatch, lambda: out.append(
            ev.eval_correctly_rounded(e, {}, 53, Rounding.NEAREST_EVEN)))
        assert ps == [64, 109]
        assert out == [BigFloat.from_man_exp(2599408728347695, -63)]

    def test_correct_rounding_past_the_target_doubles(self, monkeypatch):
        # sqrt(2)^2 = 2 is a DOWN rounding boundary, so can_round never holds
        # although the accuracy soon passes the target: after the first jump
        # the loop must double, not creep up by the guard bits
        cap = 4096
        e = ev.parse_expr("sqrt(2)^2")

        def run():
            with pytest.raises(ev.UnconvergedError):
                ev.eval_correctly_rounded(e, {}, 53, Rounding.DOWN, ev.EvalConfig(max_prec=cap))

        ps = self.precisions(monkeypatch, run)
        assert ps[:2] == [64, 98]  # 64 bits certify 62, which is below the target
        assert len(ps) <= 2 + (cap // 64).bit_length() - 1
        assert ps[-1] == cap
        assert all(q == cap or q == 2 * p for p, q in zip(ps[1:], ps[2:]))

    def test_start_is_not_configurable(self):
        with pytest.raises(TypeError):
            ev.EvalConfig(start_prec=128)
        with pytest.raises(ValueError):
            ev.EvalConfig(max_prec=63)  # below the first precision


_LIT = "12.345678901234567891"  # a 20-digit literal
_PREDICTED = {
    f"exp({_LIT})": lambda: mpmath.exp(mpmath.mpf(_LIT)),
    f"log({_LIT})": lambda: mpmath.log(mpmath.mpf(_LIT)),
    f"sin({_LIT})": lambda: mpmath.sin(mpmath.mpf(_LIT)),
    f"atan({_LIT})": lambda: mpmath.atan(mpmath.mpf(_LIT)),
    "exp(pi*sqrt(163))": lambda: mpmath.exp(mpmath.pi * mpmath.sqrt(163)),
    "sqrt(2)*pi": lambda: mpmath.sqrt(2) * mpmath.pi,
}
_HARD = {  # certify nothing at 64 bits, so the first steps double
    "exp(pi*sqrt(163)) - 262537412640768744":
        lambda: mpmath.exp(mpmath.pi * mpmath.sqrt(163)) - 262537412640768744,
    "sin(pi + exp(-100))": lambda: mpmath.sin(mpmath.pi + mpmath.exp(-100)),
    "log(1 + 1e-50)": lambda: mpmath.log(1 + mpmath.mpf(10) ** -50),
}


class TestPredictedPrecision:
    """eval_adaptive's result at the precision it predicts contains the exact
    value and reaches the target accuracy."""

    @staticmethod
    def check(monkeypatch, src, ref, digits):
        cfg = ev.EvalConfig.for_digits(digits)
        out = []
        ps = TestPrecisionSchedule.precisions(
            monkeypatch, lambda: out.append(ev.eval_adaptive(ev.parse_expr(src), {}, cfg)))
        res = out[0]
        assert res.converged and res.prec == ps[-1]
        mid, rad = res.value.mid.to_fraction(), res.value.rad.to_fraction()
        assert rad * 2 ** cfg.target_bits < abs(mid)
        with mpmath.workprec(cfg.target_bits + 256):
            v = mpf_fraction(ref())
        tol = abs(v) / 2 ** (cfg.target_bits + 128)  # the reference's own error
        assert mid - rad <= v + tol and v - tol <= mid + rad
        return ps

    @pytest.mark.parametrize("digits", [300, 1000])
    @pytest.mark.parametrize("src", list(_PREDICTED))
    def test_contains_at_predicted_precision(self, monkeypatch, src, digits):
        assert len(self.check(monkeypatch, src, _PREDICTED[src], digits)) == 2

    def test_3000_digit_atan(self, monkeypatch):
        src = f"atan({_LIT})"
        assert len(self.check(monkeypatch, src, _PREDICTED[src], 3000)) == 2

    @pytest.mark.parametrize("src", list(_HARD))
    def test_cancellation_converges_in_five(self, monkeypatch, src):
        assert len(self.check(monkeypatch, src, _HARD[src], 300)) <= 5


class TestDeterminism:
    def test_identical_invocations(self):
        e = ev.parse_expr("exp(atan(1) * 4)")
        a = ev.eval_adaptive(e, {}, ev.EvalConfig.for_digits(20))
        b = ev.eval_adaptive(e, {}, ev.EvalConfig.for_digits(20))
        assert a.value == b.value and a.prec == b.prec
        assert dio.to_decimal(a.value, 20) == dio.to_decimal(b.value, 20)
