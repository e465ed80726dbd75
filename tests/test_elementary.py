import math
import random
import time
from fractions import Fraction

import mpmath
import pytest

from conftest import (ball_bounds, contains_fraction, mpf_fraction, rand_ball,
                      round_fraction_oracle)
from midrad import ball, bigfloat as bf, elementary as el, magnitude as mag
from midrad.ball import Ball
from midrad.bigfloat import BigFloat, Rounding


def exact(n):
    return Ball.from_int(n)


def assert_encloses(b, ref, what=""):
    lo, hi = ball_bounds(b)
    assert lo <= ref <= hi, f"{what}: [{float(lo)}, {float(hi)}] misses {float(ref)}"


class TestExp:
    def test_exp_zero_exact(self):
        r = el.exp(exact(0), 53)
        assert r.mid.to_fraction() == 1 and r.is_exact()

    def test_exp_one_against_rational_series(self):
        # independent oracle: sum 1/k! with alternating-free tail bracket
        s = Fraction(0)
        fact = 1
        n = 40
        for k in range(n):
            if k:
                fact *= k
            s += Fraction(1, fact)
        tail_hi = Fraction(2, fact * n)
        r = el.exp(exact(1), 53)
        lo, hi = ball_bounds(r)
        assert lo <= s and s + tail_hi >= lo  # e in [s, s + tail_hi]
        assert hi >= s and lo <= s + tail_hi
        assert ball.rel_accuracy_bits(r) >= 48

    def test_cutoff_negative(self):
        r = el.exp(Ball(BigFloat.from_man_exp(-1, 2 ** 100)), 64)
        t = 2 ** 128
        # exactly the enclosure [0, 2^(-2^128)]: check structurally, the
        # fractions involved are far too large to materialize
        assert r.mid == BigFloat.from_man_exp(1, -t - 1)
        assert r.rad == mag.pow2(-t - 1)

    def test_cutoff_positive(self):
        r = el.exp(Ball(BigFloat.from_man_exp(1, 2 ** 100)), 64)
        assert r.mid.is_zero() and r.rad.is_inf()

    def test_infinite_points(self):
        assert el.exp(Ball(bf.POS_INF), 53).mid.kind == bf.POS_INF.kind
        assert el.exp(Ball(bf.NEG_INF), 53).mid.is_zero()

    def test_infinite_radius_holds_every_value(self):
        for mid in (bf.POS_INF, bf.NEG_INF, bf.ONE):
            r = el.exp(Ball(mid, mag.INF), 53)
            assert r == ball.whole_line()
            assert ball.contains_point(r, mpf_fraction(mpmath.exp(3)))

    def test_wide_radius_propagation(self):
        x = Ball(BigFloat.from_int(1), mag.from_int_upper(1))
        r = el.exp(x, 53)
        assert_encloses(r, mpf_fraction(mpmath.exp(2)) - Fraction(1, 10 ** 20), "exp hi")
        assert_encloses(r, mpf_fraction(mpmath.exp(mpmath.mpf(1) / 2)), "exp mid")

    def test_matches_mpmath(self):
        rng = random.Random(5)
        for _ in range(150):
            man = rng.randrange(1, 1 << 53) * rng.choice([1, -1])
            e = rng.randrange(-60, -45)  # keeps |x| < 256 so e^x stays printable
            x = BigFloat.from_man_exp(man, e)
            r = el.exp(Ball(x), 53)
            assert_encloses(r, mpf_fraction(mpmath.exp(mpmath.mpf(man) * mpmath.power(2, e))), "exp")


class TestSinCos:
    def test_zero_exact(self):
        s, c = el.sin_cos(exact(0), 53)
        assert s.mid.is_zero() and s.is_exact()
        assert c.mid.to_fraction() == 1 and c.is_exact()

    def test_huge_exponent_cutoff(self):
        s, c = el.sin_cos(Ball(BigFloat.from_man_exp(1, 2 ** 100)), 64)
        for r in (s, c):
            assert r.mid.is_zero() and r.rad.to_fraction() == 1

    def test_propagated_radius_capped(self):
        x = Ball(BigFloat.from_int(1), mag.from_int_upper(100))
        s, c = el.sin_cos(x, 53)
        for r in (s, c):
            assert r.rad.to_fraction() <= 1  # tightened to [0 +/- 1]
            assert_encloses(r, Fraction(1, 2))

    def test_propagation_is_lipschitz(self):
        point_s, _ = el.sin_cos(exact(1), 53)
        r = mag.pow2(-10)
        s, _ = el.sin_cos(Ball(BigFloat.from_int(1), r), 53)
        slack = Fraction(1, 2 ** 36)
        assert s.rad.to_fraction() <= point_s.rad.to_fraction() + r.to_fraction() + slack

    def test_tiny_radius_near_the_unit_bound(self):
        # |mid| + rad passes 1 around 0 (cos) and +-pi/2 (sin), but a radius
        # of 2^-200 keeps the ball near 1 instead of [0 +/- 1]
        hp = ball.scale_2exp(el.const_pi(64), -1).mid
        rad = mag.pow2(-200)
        for f, ref, m in ((el.cos, mpmath.cos, BigFloat.from_man_exp(1, -100)),
                          (el.cos, mpmath.cos, bf.ZERO),
                          (el.sin, mpmath.sin, hp), (el.sin, mpmath.sin, -hp)):
            r = f(Ball(m, rad), 53)
            assert ball.rel_accuracy_bits(r) >= 50, (f, m)
            for t in (m.to_fraction() - rad.to_fraction(), m.to_fraction() + rad.to_fraction()):
                with mpmath.workprec(400):
                    y = ref(mpmath.mpf(t.numerator) / t.denominator)
                assert_encloses(r, mpf_fraction(y), f.__name__)

    def test_matches_mpmath(self):
        rng = random.Random(6)
        for _ in range(150):
            man = rng.randrange(1, 1 << 53) * rng.choice([1, -1])
            e = rng.randrange(-40, 20)
            x = mpmath.mpf(man) * mpmath.power(2, e)
            s, c = el.sin_cos(Ball(BigFloat.from_man_exp(man, e)), 53)
            assert_encloses(s, mpf_fraction(mpmath.sin(x)), "sin")
            assert_encloses(c, mpf_fraction(mpmath.cos(x)), "cos")


class TestLog:
    def test_log_one_exact(self):
        r = el.log(exact(1), 53)
        assert r.mid.is_zero() and r.is_exact()

    def test_domain(self):
        assert el.log(exact(-3), 53).is_indeterminate()
        assert el.log(exact(0), 53).is_indeterminate()
        assert el.log(Ball(BigFloat.from_int(1), mag.ONE), 53).is_indeterminate()

    def test_infinity(self):
        assert el.log(Ball(bf.POS_INF), 53).mid.kind == bf.POS_INF.kind
        assert el.log(Ball(bf.NEG_INF), 53).is_indeterminate()

    def test_infinite_radius_holds_every_value(self):
        # (inf; inf) holds 3 (and every real), so its log must hold log 3
        for mid in (bf.POS_INF, bf.ONE):
            r = el.log(Ball(mid, mag.INF), 53)
            assert r.is_indeterminate()  # the ball reaches below zero
            assert ball.contains_point(r, mpf_fraction(mpmath.log(3)))

    def test_matches_mpmath(self):
        rng = random.Random(7)
        for _ in range(150):
            man = rng.randrange(1, 1 << 53)
            e = rng.randrange(-80, 80)
            x = mpmath.mpf(man) * mpmath.power(2, e)
            r = el.log(Ball(BigFloat.from_man_exp(man, e)), 53)
            assert_encloses(r, mpf_fraction(mpmath.log(x)), "log")

    def test_huge_exponent(self):
        r = el.log(Ball(BigFloat.from_man_exp(1, 2 ** 40)), 64)
        ref = mpf_fraction(mpmath.log(2)) * (2 ** 40)
        assert_encloses(r, ref, "log 2^2^40")
        assert ball.rel_accuracy_bits(r) >= 56


class TestAtan:
    def test_matches_mpmath(self):
        rng = random.Random(8)
        for _ in range(150):
            man = rng.randrange(1, 1 << 53) * rng.choice([1, -1])
            e = rng.randrange(-40, 40)
            x = mpmath.mpf(man) * mpmath.power(2, e)
            r = el.atan(Ball(BigFloat.from_man_exp(man, e)), 53)
            assert_encloses(r, mpf_fraction(mpmath.atan(x)), "atan")

    def test_infinity(self):
        r = el.atan(Ball(bf.POS_INF), 53)
        assert_encloses(r, mpf_fraction(mpmath.pi / 2))
        r = el.atan(Ball(bf.NEG_INF), 53)
        assert_encloses(r, mpf_fraction(-mpmath.pi / 2))

    def test_one_is_quarter_pi(self):
        r = el.atan(exact(1), 64)
        assert_encloses(r, mpf_fraction(mpmath.pi / 4))
        assert ball.rel_accuracy_bits(r) >= 58


class TestPow:
    def test_small_integer_exact(self):
        r = el.power(exact(2), exact(3), 53)
        assert r.mid.to_fraction() == 8 and r.is_exact()

    def test_negative_base_integer_exponent(self):
        r = el.power(exact(-3), exact(3), 53)
        assert r.mid.to_fraction() == -27 and r.is_exact()

    def test_negative_exponent(self):
        r = el.power(exact(2), exact(-3), 53)
        assert r.mid.to_fraction() == Fraction(1, 8) and r.is_exact()

    def test_zero_cases(self):
        assert el.power(exact(0), exact(5), 53).mid.is_zero()
        assert el.power(exact(0), exact(0), 53).mid.to_fraction() == 1
        assert el.power(exact(0), exact(-2), 53).is_indeterminate()

    def test_zero_to_non_integer(self):
        half = Ball(BigFloat.from_man_exp(1, -1))
        r = el.power(exact(0), half, 53)
        assert r.mid.is_zero() and r.is_exact()
        assert el.power(exact(0), ball.neg(half), 53).is_indeterminate()
        # an exponent ball that reaches zero or below is not bounded away from 0
        assert el.power(exact(0), Ball(bf.ZERO, mag.pow2(-2)), 53).is_indeterminate()

    def test_general(self):
        half = ball.div(exact(1), exact(2), 100)
        r = el.power(exact(2), half, 53)
        assert_encloses(r, mpf_fraction(mpmath.sqrt(2)))
        assert el.power(exact(-2), half, 53).is_indeterminate()

    def test_negative_base_beyond_binary_powering(self):
        # exponents above _POW_INT_LIMIT go through exp(e log(-x)), the sign
        # restored for odd e
        for e in (el._POW_INT_LIMIT + 1, el._POW_INT_LIMIT + 2):
            r = el.power(exact(-3), exact(e), 64)
            assert contains_fraction(r, Fraction((-3) ** e))

    def test_large_integer_power(self):
        r = el.power(exact(3), exact(1000), 64)
        assert contains_fraction(r, Fraction(3 ** 1000))
        assert ball.rel_accuracy_bits(r) >= 48


class TestConvergence:
    @pytest.mark.parametrize("fn,arg", [
        (el.exp, 1), ("log", 3), ("atan", 1), ("sin", 2),
    ])
    def test_radius_halves_per_bit(self, fn, arg):
        # output radius should shrink like 2^(C-p): slope at least 0.9 bits/bit
        precs = [16, 32, 64, 128, 256, 512, 1024]
        accs = []
        for p in precs:
            if fn == "log":
                r = el.log(exact(arg), p)
            elif fn == "atan":
                r = el.atan(exact(arg), p)
            elif fn == "sin":
                r = el.sin(exact(arg), p)
            else:
                r = fn(exact(arg), p)
            accs.append(ball.rel_accuracy_bits(r))
        dp = precs[-1] - precs[0]
        dacc = accs[-1] - accs[0]
        assert dacc >= 0.9 * dp, (accs, precs)

    def test_exact_cases_stay_exact_at_all_precisions(self):
        for p in (16, 53, 200):
            assert ball.sqrt(exact(4), p).is_exact()
            assert el.exp(exact(0), p).is_exact()
            assert el.log(exact(1), p).is_exact()


class TestCutoffTotality:
    def test_huge_inputs_no_slower(self):
        def timed(f, reps=5):
            best = math.inf
            for _ in range(reps):
                t0 = time.perf_counter()
                f()
                best = min(best, time.perf_counter() - t0)
            return best

        big = Ball(BigFloat.from_man_exp(1, 2 ** 60))
        small = Ball(BigFloat.from_man_exp(12345, -7))
        el.sin_cos(small, 64)  # warm caches
        t_small = timed(lambda: el.sin_cos(small, 64))
        t_big = timed(lambda: el.sin_cos(big, 64))
        assert t_big <= 10 * t_small + 0.001
        el.exp(ball.neg(small), 64)
        t_small = timed(lambda: el.exp(ball.neg(small), 64))
        t_big = timed(lambda: el.exp(ball.neg(big), 64))
        assert t_big <= 10 * t_small + 0.001


class TestLog2Cache:
    def test_transparency(self):
        el._compute_log2.cache_clear()
        cold = el.const_log2(90)
        warm = el.const_log2(90)
        el._compute_log2.cache_clear()
        again = el.const_log2(90)
        assert cold == warm == again
        assert_encloses(cold, mpf_fraction(mpmath.log(2)))


# -- the fixed-point series kernel ----------------------------------------------------

KERNEL_WPS = (53, 333, 1000, 10 ** 4)

# term ratio t_k / t_(k-1) = x^d * num(k) / den(k), the sign pattern, and
# whether the first term is x (odd) or 1
_RATIOS = {
    "exp": (1, lambda k: 1, lambda k: k, False),
    "sin": (2, lambda k: 1, lambda k: (2 * k) * (2 * k + 1), True),
    "cos": (2, lambda k: 1, lambda k: (2 * k - 1) * (2 * k), True),
    "atanh": (2, lambda k: 2 * k - 1, lambda k: 2 * k + 1, False),
    "atan": (2, lambda k: 2 * k - 1, lambda k: 2 * k + 1, True),
}
_KINDS = {"exp": el._EXP, "sin": el._SIN, "cos": el._COS,
          "atanh": el._ATANH, "atan": el._ATAN}


def series_bracket(fn, x, w, extra=64):
    """Exact rationals lo <= f(x 2^-w) <= hi from the Taylor series.

    Every term is bracketed by integers at W = w + extra fractional bits
    (floor below, ceiling above) through the term ratio, and the series
    stops at a term below 2^-W; the terms from there on add up to at most
    twice it (alternating, ratio <= 1/2 for exp, <= 1/25 for atanh).
    """
    d, num, den, alternating = _RATIOS[fn]
    odd = fn in ("sin", "atanh", "atan")
    W = w + extra
    a = abs(x)
    ad, shift = a ** d, w * d
    lo = hi = tl = th = (a << extra) if odd else (1 << W)
    negate = alternating or (fn == "exp" and x < 0)
    k = 0
    while True:
        k += 1
        tl = (tl * ad * num(k) // den(k)) >> shift
        th = -((-th * ad * num(k) // den(k)) >> shift)  # ceiling
        if th <= 1 and k > 1:
            break
        if negate and k & 1:
            lo, hi = lo - th, hi - tl
        else:
            lo, hi = lo + tl, hi + th
    lo, hi = lo - 2 * th, hi + 2 * th
    if odd and x < 0:
        lo, hi = -hi, -lo
    return Fraction(lo, 1 << W), Fraction(hi, 1 << W)


def _fixed_inputs(fn, w):
    """Reduced arguments at the edges of each reduction, as w-bit integers."""
    edges = {
        "exp": [Fraction(3465735902799727, 10 ** 16), Fraction(1, 2) - Fraction(1, 2 ** 40)],
        "sin": [Fraction(7853981633974483, 10 ** 16), Fraction(999, 1000)],
        "cos": [Fraction(7853981633974483, 10 ** 16), Fraction(999, 1000)],
        "atanh": [Fraction(1, 5), Fraction(1, 7)],
        "atan": [Fraction(1, 8), Fraction(1, 8) - Fraction(1, 2 ** 50)],
    }[fn]
    xs = []
    for v in edges:
        x = math.floor(v * (1 << w))
        xs += [x, -x]
    return xs + [3, -1, 0]


@pytest.mark.parametrize("wp", KERNEL_WPS)
@pytest.mark.parametrize("fn", sorted(_RATIOS))
def test_kernel_against_exact_series(fn, wp):
    w = wp + el._GUARD
    for x in _fixed_inputs(fn, w):
        s, err = el._series(_KINDS[fn], w, x)
        lo, hi = series_bracket(fn, x, w)
        assert Fraction(s - err, 1 << w) <= lo and hi <= Fraction(s + err, 1 << w), (fn, wp, x)
        # the error count stays a few thousand ulps at most
        assert 0 <= err <= 1 << 13, (fn, wp, x)


# |f'| on the reduced ranges of the functions whose radius the callers fold
_LIPSCHITZ = {"sin": mag.ONE, "cos": mag.ONE, "atan": mag.ONE,
              "atanh": mag.div_upper((24, 0), terms=[(25, 0)])}


@pytest.mark.parametrize("wp", (53, 1000))
@pytest.mark.parametrize("fn", sorted(_LIPSCHITZ))
def test_kernel_folds_argument_radius(fn, wp):
    w = wp + el._GUARD
    c = 1 << 20  # a radius of 2^20 ulps
    for x in _fixed_inputs(fn, w)[:4]:
        pairs = [(BigFloat.from_man_exp(c, -w), _LIPSCHITZ[fn])]
        b = el._fixed_ball(*el._series(_KINDS[fn], w, x), w, pairs, wp)
        blo, bhi = ball_bounds(b)
        for y in (x - c, x + c):
            lo, hi = series_bracket(fn, y, w)
            assert blo <= lo and hi <= bhi, (fn, wp, x, y)


@pytest.mark.parametrize("prec", (53, 333))
def test_reduction_constant_radius_is_folded(prec, monkeypatch):
    # log 2 and pi good to only 40 bits, near the top of their balls: exp,
    # sin and cos must carry k times that radius, exp through its squarings
    # and with its Lipschitz factor e^t > 1
    with mpmath.workprec(200):
        ln2, pi = mpf_fraction(mpmath.log(2)), mpf_fraction(mpmath.pi)
    wide = {c: Ball(BigFloat.from_man_exp(math.floor((c - Fraction(9, 10 * 2 ** 40)) * 2 ** 60), -60),
                    mag.pow2(-40))
            for c in (ln2, pi)}
    monkeypatch.setattr(el, "_log2_ball", lambda wp: wide[ln2])
    monkeypatch.setattr(el, "_pi_ball", lambda wp: wide[pi])
    with mpmath.workprec(prec + 128):
        for v, k in ((Fraction(21, 2) * ln2, 10), (-Fraction(203, 10) * ln2, 20)):
            x = _dyadic(mpmath.mpf(v.numerator) / v.denominator)
            xm = x.mid.to_fraction()
            ref = mpf_fraction(mpmath.exp(mpmath.mpf(xm.numerator) / xm.denominator))
            r = el.exp(x, prec)
            assert_encloses(r, ref, "exp")
            assert r.rad.to_fraction() <= 2 * k * Fraction(1, 2 ** 40) * ref, "exp radius"
        for v, k in ((Fraction(7, 2) * pi, 7), (-Fraction(41, 4) * pi, 20)):
            x = _dyadic(mpmath.mpf(v.numerator) / v.denominator)
            xm = mpmath.mpf(x.mid.to_fraction().numerator) / x.mid.to_fraction().denominator
            s, c = el.sin_cos(x, prec)
            assert_encloses(s, mpf_fraction(mpmath.sin(xm)), "sin")
            assert_encloses(c, mpf_fraction(mpmath.cos(xm)), "cos")
            for b in (s, c):
                assert b.rad.to_fraction() <= 2 * k * Fraction(1, 2 ** 41), "sin/cos radius"


def test_small_arguments_compute_no_constant(monkeypatch):
    def unused(wp):
        raise AssertionError("reduction constant computed")
    monkeypatch.setattr(el, "_log2_ball", unused)
    monkeypatch.setattr(el, "_pi_ball", unused)
    for prec in (53, 5000):
        for v in (Fraction(3, 10), Fraction(-49, 100), Fraction(1, 2 ** 100)):
            el.exp(_dyadic(mpmath.mpf(v.numerator) / v.denominator), prec)
        for v in (Fraction(7, 10), Fraction(-99, 100)):
            el.sin_cos(_dyadic(mpmath.mpf(v.numerator) / v.denominator), prec)


def _dyadic(v, bits=60):
    """Exact input: v rounded to a dyadic with bits fractional bits."""
    return Ball(BigFloat.from_man_exp(int(mpmath.nint(v * mpmath.mpf(2) ** bits)), -bits))


def _edge_inputs(prec):
    """Exact inputs at the edges of each reduction at precision prec: the
    multiples of log 2 and pi/2, log's [3/4, 3/2), atan's flip at 1, and on
    both sides of where the halving count or the doubling count changes."""
    two = mpmath.mpf(2)
    # z is halved down to 2^-ha (atan) and u to 2^-hl (log); sin doubles
    # rs0 + t.exp times, so not at all for |t| < 2^-rs0 and once just above
    ha = 3 + el._halvings(prec + 24 + el._GUARD)[0]
    hl = 2 + el._halvings(prec + 17 + el._GUARD)[0]
    w = prec + 16 + el._GUARD
    rs0 = math.isqrt(w) // (2 if w < el._BLOCK_BITS else 4) - 5
    near = lambda v: [_dyadic(v * (1 - two ** -30), 100), _dyadic(v * (1 + two ** -30), 100)]
    with mpmath.workprec(200):
        ln2, pi = mpmath.log(2), mpmath.pi
        u = two ** -hl
        return {
            "exp": [_dyadic(1.5 * ln2), _dyadic(-1.5 * ln2), _dyadic(10.5 * ln2),
                    _dyadic(mpmath.mpf(1) / 2 - two ** -40), _dyadic(ln2 / 2)],
            "sin": [_dyadic(3 * pi / 4), _dyadic(-5 * pi / 4), _dyadic(pi),
                    _dyadic(mpmath.mpf(999) / 1000), _dyadic(pi / 4), _dyadic(pi / 4 - two ** -40),
                    _dyadic(-pi / 4 + two ** -40), *near(two ** -rs0), *near(-two ** -(rs0 - 3))],
            "log": [_dyadic(mpmath.mpf(3) / 2 - two ** -40), _dyadic(mpmath.mpf(3) / 4),
                    _dyadic(3 - two ** -40), _dyadic(mpmath.mpf(3) / 4 - two ** -40),
                    _dyadic(mpmath.mpf(3) / 4 + two ** -40), _dyadic(mpmath.mpf(3) / 2),
                    _dyadic(1 + two ** -50), *near((1 + u) / (1 - u)), *near((1 - u) / (1 + u))],
            "atan": [_dyadic(mpmath.mpf(1) / 8), _dyadic(mpmath.mpf(1) / 8 + two ** -50),
                     _dyadic(8 - two ** -45), _dyadic(mpmath.mpf(99999) / 100000),
                     _dyadic(1 + two ** -40), _dyadic(-two ** -30), *near(two ** -ha),
                     *near(-two ** ha)],
        }


@pytest.mark.parametrize("prec", KERNEL_WPS)
def test_public_functions_at_reduction_edges(prec):
    refs = {"exp": [mpmath.exp], "sin": [mpmath.sin, mpmath.cos],
            "log": [mpmath.log], "atan": [mpmath.atan]}
    for fn, xs in _edge_inputs(prec).items():
        for x in xs:
            if fn == "sin":
                outs = el.sin_cos(x, prec)
            else:
                outs = (getattr(el, fn)(x, prec),)
            with mpmath.workprec(prec + 128):
                xm = mpmath.mpf(x.mid.to_fraction().numerator) / x.mid.to_fraction().denominator
                for r, ref in zip(outs, refs[fn]):
                    assert_encloses(r, mpf_fraction(ref(xm)), f"{ref.__name__} at prec {prec}")


# Radii of the five public functions on exact inputs man * 2^e at precisions
# 53, 333 and 1000, as computed by the ball-arithmetic Taylor loops that the
# fixed-point kernel replaced.  The kernel may only tighten them.  The 333-bit
# radii of exp and log that inherited the radius of a half-accurate log 2
# constant are pinned at the tighter values of the full-accuracy constant.
BALL_LOOP_RADII = {
    ('exp', 1, 0): ('268469715*2^-79', '120006563*2^-364', '537435151*2^-1027'),
    ('exp', -1, 0): ('134235603*2^-81', '766725923*2^-367', '537438237*2^-1030'),
    ('exp', -3, -3): ('268492817*2^-81', '8395777*2^-356', '269004819*2^-1028'),
    ('exp', 1419, -12): ('134244403*2^-79', '537321519*2^-361', '268996627*2^-1027'),
    ('exp', -1419, -12): ('536977815*2^-82', '268660783*2^-361', '537993291*2^-1029'),
    ('exp', 3, -40): ('4105*2^-80', '536911873*2^-361', '537042945*2^-1028'),
    ('exp', 229, -2): ('536883849*2^1', '198656937*2^-279', '33556199*2^-942'),
    ('exp', 2001, -1): ('536876643*2^1362', '438969071*2^1081', '536877475*2^415'),
    ('sin', 1, 0): ('33557373*2^-78', '537012151*2^-362', '537192379*2^-1029'),
    ('sin', 3, -2): ('536944899*2^-82', '537141413*2^-362', '268763153*2^-1028'),
    ('sin', 201, -8): ('536952867*2^-82', '268574737*2^-361', '67190791*2^-1026'),
    ('sin', 100, 0): ('134220233*2^-80', '268441171*2^-361', '134221289*2^-1027'),
    ('sin', -15, -1): ('134220807*2^-80', '536904727*2^-362', '536946711*2^-1029'),
    ('sin', 3, -30): ('1033*2^-91', '536911873*2^-390', '536993793*2^-1057'),
    ('cos', 1, 0): ('536921949*2^-82', '537012099*2^-362', '134299095*2^-1027'),
    ('cos', 3, -2): ('134236163*2^-80', '268570627*2^-361', '537518087*2^-1029'),
    ('cos', 201, -8): ('268472333*2^-81', '537141287*2^-362', '537526277*2^-1029'),
    ('cos', 100, 0): ('536876191*2^-82', '536877599*2^-362', '536880351*2^-1029'),
    ('cos', -15, -1): ('268448809*2^-82', '268459553*2^-362', '268480545*2^-1029'),
    ('log', 2, 0): ('536872961*2^-82', '359146921*2^-363', '536872961*2^-1029'),
    ('log', 3, 0): ('134220549*2^-79', '1055285385*2^-365', '268483083*2^-1027'),
    ('log', 5, -4): ('268442643*2^-80', '998194737*2^-363', '536961559*2^-1028'),
    ('log', 3145727, -21): ('134234245*2^-81', '537182677*2^-363', '537768519*2^-1030'),
    ('log', 3, -2): ('268489141*2^-82', '537387375*2^-363', '538354459*2^-1030'),
    ('log', 1000000, 0): ('536871433*2^-78', '640944211*2^-361', '16777235*2^-1020'),
    ('log', 1073741825, -30): ('268614315*2^-111', '536899585*2^-392', '293859829*2^-1055'),
    ('atan', 1, -3): ('536871329*2^-85', '536872803*2^-365', '268438177*2^-1031'),
    ('atan', 1099511627777, -43): ('536871297*2^-85', '67109057*2^-362', '134218779*2^-1030'),
    ('atan', 1, -1): ('536871519*2^-83', '536872895*2^-363', '134219111*2^-1028'),
    ('atan', 2, 0): ('67108887*2^-78', '33554465*2^-357', '536872327*2^-1028'),
    ('atan', -10, 0): ('536870971*2^-81', '536871053*2^-361', '536871253*2^-1028'),
    ('atan', 1, 0): ('536870913*2^-82', '536870913*2^-362', '536870913*2^-1029'),
    ('atan', 3, -40): ('41*2^-120', '536871009*2^-400', '285673763*2^-1066'),
}


@pytest.mark.parametrize("key", sorted(BALL_LOOP_RADII), ids=str)
def test_radii_no_wider_than_ball_loops(key):
    fn, man, e = key
    x = Ball(BigFloat.from_man_exp(man, e))
    for prec, old in zip((53, 333, 1000), BALL_LOOP_RADII[key]):
        r = getattr(el, fn)(x, prec)
        assert r.rad.to_fraction() <= mag.Magnitude.from_text(old).to_fraction(), (key, prec)


# (sign, f, tan-like inverse, inputs v with the exact argument v 2^w): the
# atan edges 1 and 1/8 and the atanh edges +-1/5 and -1/7 of log's range
_HALVING = (
    (1, mpmath.atan, mpmath.tan, (Fraction(1), Fraction(999, 1000), Fraction(1, 2),
                                  Fraction(1, 8) + Fraction(1, 2 ** 40))),
    (-1, mpmath.atanh, mpmath.tanh, (Fraction(1, 5), -Fraction(1, 5), -Fraction(1, 7),
                                     Fraction(1, 8) + Fraction(1, 2 ** 40))),
)


@pytest.mark.parametrize("wp", (53, 1000, 10 ** 4))
def test_atan_halving_error_bound(wp):
    # both signs of the one halving step, to the width's own threshold and to
    # 2^-40, i.e. through many steps: an argument within 4 ulps of z0 halves to
    # within 4 ulps of y
    w = wp + el._GUARD
    with mpmath.workprec(w + 64):
        for sign, f, finv, vs in _HALVING:
            for k in ((2 if sign < 0 else 3) + el._halvings(w)[0], 40):
                for v in vs:
                    z0 = math.floor(v * (1 << w))
                    for d in (-4, -1, 0, 1, 4):  # the exact argument is (z0 + d) 2^-w
                        y, h = el._halve(z0, w, k, sign)
                        assert (h > 0) == (abs(v) > Fraction(1, 2 ** k)), (sign, v, k)
                        assert abs(y) <= (1 << w) >> k, (sign, v, k)
                        x = mpmath.mpf(z0 + d) / mpmath.mpf(2) ** w
                        exact = finv(f(x) / 2 ** h) * mpmath.mpf(2) ** w
                        assert abs(mpf_fraction(exact) - y) <= 4, (sign, v, k, d)


def test_halving_count_is_zero_at_round53_widths():
    assert all(el._halvings(w) == (0, 0) for w in range(2, 256))
    # fewer steps where the series is summed in blocks, the same guard bits
    assert el._halvings(1040) == (5, 5) and el._halvings(10 ** 4 + 32) == (9, 22)
    # log's |u| <= 1/5 is below its no-halving threshold 1/4
    w = 93
    u = (1 << w) // 5
    assert el._halve(u, w, 2, -1) == (u, 0)


@pytest.mark.parametrize("wp", (1000, 10 ** 4))
def test_double_angle_error_bound(wp):
    # sin and cos of t 2^-r, from the series or anywhere within the series'
    # error bounds of the exact values, doubled r times: against mpmath at the
    # exact arguments one ulp either side of x
    w = wp + el._GUARD
    r = math.isqrt(w) // 2 - 5
    W = w + r
    for v in (Fraction(7853981633974483, 10 ** 16), Fraction(1, 3), -Fraction(999, 1000)):
        x = math.floor(v * (1 << w))
        s, es = el._series(el._SIN, W, x)
        c, ec = el._series(el._COS, W, x)
        with mpmath.workprec(W + 64):
            th = mpmath.mpf(x) / mpmath.mpf(2) ** W
            sn, cn = (int(mpmath.nint(f(th) * 2 ** W)) for f in (mpmath.sin, mpmath.cos))
            corners = [(cn + i * (ec - 1), sn + j * (es - 1)) for i in (-1, 1) for j in (-1, 1)]
            for c0, s0 in [(c, s)] + corners:
                c2, s2, err = el._double_angle(c0, s0, es + ec, W, r)
                assert 0 < err <= 1 << (r + 14), (v, err)
                for d in (-1, 0, 1):
                    t = mpmath.mpf(x + d) / mpmath.mpf(2) ** w
                    for got, ref in ((s2, mpmath.sin(t)), (c2, mpmath.cos(t))):
                        # the 1-ulp argument error costs at most 2^r ulps at W bits
                        bound = Fraction(err + (1 << r), 1 << W)
                        assert abs(mpf_fraction(ref) - Fraction(got, 1 << W)) <= bound, (v, d)


_MPMATH = {"exp": mpmath.exp, "sin": mpmath.sin, "cos": mpmath.cos,
           "atanh": mpmath.atanh, "atan": mpmath.atan}


def _loop_series(monkeypatch, f, w, x):
    """The kernel with blocked summation switched off: term by term."""
    with monkeypatch.context() as m:
        m.setattr(el, "_BLOCK_BITS", math.inf)
        return el._series(f, w, x)


def _switch_inputs(f, w):
    """Arguments 2^(w-k) - 1 whose term count is the largest below
    _BLOCK_TERMS and the least at or above it."""
    k = 0 if f.factorial else 3  # |x| < 2^(w-k), below 2^w / 5 for the power shape
    while el._term_count(f, w, k + 1) >= el._BLOCK_TERMS:
        k += 1
    return (1 << (w - k - 1)) - 1, (1 << (w - k)) - 1


@pytest.mark.parametrize("w", (2000, 3400, 10 ** 4))
@pytest.mark.parametrize("fn", sorted(_MPMATH))
def test_blocked_kernel_against_mpmath(fn, w, monkeypatch):
    # |s - f(x 2^-w) 2^w| <= err against mpmath at w + 200 bits, and err no
    # more than the term-by-term loop's, at 0, both signs, the top of the
    # shape's range (|x| <= 2^w, or 2^w / 5 for the power shape) and the
    # term counts on both sides of the switch
    f = _KINDS[fn]
    top = (1 << w) // (1 if f.factorial else 5)
    below, above = _switch_inputs(f, w)
    assert el._term_count(f, w, w - below.bit_length()) < el._BLOCK_TERMS
    xs = [0, 3, top, -top, top >> 7, -(top >> 30), 12345 << (w - 40), below, -below, above, -above]
    with mpmath.workprec(w + 200):
        for x in xs:
            s, err = el._series(f, w, x)
            ref = _MPMATH[fn](mpmath.mpf(x) / mpmath.mpf(2) ** w) * mpmath.mpf(2) ** w
            assert abs(mpf_fraction(ref) - s) <= err, (fn, w, x)
            loop = _loop_series(monkeypatch, f, w, x)
            assert err <= loop[1], (fn, w, x)
            if abs(x) in (0, 3, below):  # a short series takes the loop
                assert (s, err) == loop, (fn, w, x)
            else:  # blocks: a few ulps, against about 2 a term
                assert err <= 8 < loop[1], (fn, w, x)


# sin, cos and atan of arguments near 2^-5000, which raise sin's and atan's
# width by 5000 bits for a series of one or two terms: the balls of the
# term-by-term kernel, which must not change
_TINY_BALLS = {
    (53, 0): ("(3*2^-5002; 1*2^-5084)", "(1*2^0; 1*2^-85)", "(3*2^-5002; 1*2^-5092)"),
    (53, 1): ("(3*2^-5002; 536870913*2^-5113)", "(1*2^0; 536870913*2^-114)",
              "(3*2^-5002; 536870913*2^-5121)"),
    (53, 2): ("(-1*2^-5000; 8193*2^-5083)", "(1*2^0; 3*2^-85)", "(-1*2^-5000; 2097153*2^-5091)"),
    (53, 3): ("(-1*2^-5000; 536936449*2^-5099)", "(1*2^0; 805306369*2^-113)",
              "(-1*2^-5000; 536871169*2^-5099)"),
    (2000, 0): ("(3*2^-5002; 1*2^-7031)", "(1*2^0; 1*2^-2032)", "(3*2^-5002; 1*2^-7047)"),
    (2000, 1): ("(3*2^-5002; 536870913*2^-5229)", "(1*2^0; 536870913*2^-2061)",
                "(3*2^-5002; 536870913*2^-5229)"),
    (2000, 2): ("(-1180591620717411303425*2^-5070; 1*2^-7030)", "(1*2^0; 3*2^-2032)",
                "(-1180591620717411303425*2^-5070; 1*2^-7046)"),
    (2000, 3): ("(-1180591620717411303425*2^-5070; 536870913*2^-5229)",
                "(1*2^0; 805306369*2^-2060)",
                "(-1180591620717411303425*2^-5070; 536870913*2^-5229)"),
}


@pytest.mark.parametrize("key", sorted(_TINY_BALLS), ids=str)
def test_tiny_arguments_keep_their_balls(key):
    prec, i = key
    mid = (BigFloat.from_man_exp(3, -5002), BigFloat.from_man_exp(-(2 ** 70 + 1), -5070))[i // 2]
    x = Ball(mid, mag.pow2(-5200) if i & 1 else mag.ZERO)
    got = tuple(str(f(x, prec).to_exact_text()) for f in (el.sin, el.cos, el.atan))
    assert got == _TINY_BALLS[key]


@pytest.mark.parametrize("prec", (2000, 3400))
def test_blocks_keep_midpoints_and_narrow_radii(prec, monkeypatch):
    # with the blocks switched off, the kernel and the reduction counts are
    # the term-by-term ones: the same midpoints, and no radius wider, also
    # where fewer doubling steps leave the guard bits (t near 0: sin near
    # 3 pi/2, cos near pi/2)
    with mpmath.workprec(200):
        pts = [mpmath.mpf(v) for v in ("4.7117617948061043080", 3, 0.625, -2.5, 100.25, 1e-3)]
        pts += [3 * mpmath.pi / 2 + mpmath.mpf(2) ** -10, mpmath.pi / 2 - mpmath.mpf(2) ** -40]
    xs = [_dyadic(v, 120) for v in pts]
    fns = (el.exp, el.sin, el.cos, el.atan, lambda x, p: el.log(Ball(abs(x.mid)), p))
    got = [f(x, prec) for f in fns for x in xs]
    monkeypatch.setattr(el, "_BLOCK_BITS", math.inf)
    for (f, x), b in zip([(f, x) for f in fns for x in xs], got):
        old = f(x, prec)
        assert b.mid == old.mid and mag.compare(b.rad, old.rad) <= 0, (x, prec)


def test_blocks_keep_the_radius_of_a_1000_digit_sin(monkeypatch):
    # highprec's sin near 3 pi/2: summed in blocks with the full doubling
    # count's guard bits kept, its radius is no wider than the term-by-term
    # one (with the guard bits of the fewer steps alone it was)
    from midrad import expreval
    expr = expreval.parse_expr("sin(4.7117617948061043080)")
    cfg = expreval.EvalConfig.for_digits(1000)
    got = expreval.eval_adaptive(expr, {}, cfg).value
    monkeypatch.setattr(el, "_BLOCK_BITS", math.inf)
    old = expreval.eval_adaptive(expr, {}, cfg).value
    assert got.mid == old.mid and mag.compare(got.rad, old.rad) <= 0


def test_sin_and_cos_alone_match_sin_cos():
    rng = random.Random(17)
    for _ in range(300):
        x = rand_ball(rng, 64, 6, 0.5)
        prec = rng.choice((53, 64, 333, 2400))
        assert (el.sin(x, prec), el.cos(x, prec)) == el.sin_cos(x, prec), (x, prec)


def test_fixed_point_conversion():
    rng = random.Random(11)
    for _ in range(300):
        x = BigFloat.from_man_exp(rng.getrandbits(rng.randrange(1, 200)) * rng.choice([1, -1]) or 1,
                                  rng.randrange(-150, 5))
        w = rng.randrange(1, 160)
        xi, r = el._fixed(Ball(x), w)
        scaled = x.to_fraction() * (1 << w)
        assert xi <= scaled < xi + 1
        assert (scaled - xi) / (1 << w) <= r.to_fraction()


def test_sub_multiple_is_exact():
    rng = random.Random(12)
    c = el._pi_ball(200)
    for _ in range(100):
        x = BigFloat.from_man_exp(rng.getrandbits(80) | 1, rng.randrange(-100, 20))
        k = rng.randrange(-10 ** 6, 10 ** 6)
        d, e = el._sub_multiple(x.sign * x.man, x.lsb, c.mid, k)
        assert d * Fraction(2) ** e == x.to_fraction() - k * c.mid.to_fraction()


def _rand_mag_below_one(rng):
    return mag.from_man_exp_upper(rng.getrandbits(30) | 1, -rng.randrange(30, 60))


def test_fixed_ball_rounds_once():
    # (s +/- err) 2^(h-w) - k c +/- sum |a b|, rounded to nearest at prec
    # bits: the radius is the least 30-bit bound of the exact sum of
    # err 2^(h-w), the |a b| of the pairs, |k| c.rad and the midpoint's
    # actual rounding error
    rng = random.Random(13)
    c = el._pi_ball(200)
    for _ in range(300):
        w, h, prec = rng.randrange(60, 200), rng.randrange(-5, 5), rng.choice((2, 53, 100))
        s, err = rng.getrandbits(w + 2) - (1 << (w + 1)), rng.randrange(0, 100)
        # a radius as a magnitude, and an argument radius times an exact bound
        pairs = [(mag.pow2(rng.randrange(-w - 40, -w + 10)), mag.ONE)] if rng.random() < 0.8 else []
        pairs += [(BigFloat.from_man_exp(rng.getrandbits(70) + 1, -w - 70),
                   _rand_mag_below_one(rng)) for _ in range(rng.randrange(3))]
        k = rng.choice((0, rng.randrange(-10 ** 6, 10 ** 6)))
        b = el._fixed_ball(s, err, w, pairs, prec, h, k, c)
        exact = Fraction(s, 2 ** w) * Fraction(2) ** h - k * c.mid.to_fraction()
        assert b.mid.to_fraction() == round_fraction_oracle(exact, prec, Rounding.NEAREST_EVEN)
        bound = (Fraction(err, 2 ** w) * Fraction(2) ** h
                 + sum(abs(a.to_fraction()) * q.to_fraction() for a, q in pairs)
                 + abs(k) * c.rad.to_fraction() + abs(exact - b.mid.to_fraction()))
        assert b.rad.to_fraction() == round_fraction_oracle(bound, 30, Rounding.UP)


@pytest.mark.parametrize("case", ["k", "k_neg_c", "s0", "s0_k", "carry", "tie_even", "tie_odd",
                                  "tie_k"])
def test_fixed_ball_edges(case):
    # the midpoint is the correctly rounded exact value, and the radius the
    # least 30-bit bound of |exact - mid| + err 2^(h-w) + |k| c.rad; ties
    # go to the even neighbour, and 2^w - 1 rounds up to 2^w, one bit more
    c = el._pi_ball(200)
    if case == "k_neg_c":
        c = ball.neg(c)
    w, h, err, prec = 400, 3, 5, 53
    s, k = {"k": (3 << 398, -2), "k_neg_c": (3 << 398, -2), "s0": (0, 0), "s0_k": (0, 7),
            "carry": ((1 << w) - 1, 0), "tie_k": (0, -3)}.get(case, (0, 0))
    if case.startswith("tie"):
        m = (1 << (prec - 1)) + (case == "tie_odd")
        tie = Fraction(2 * m + 1, 2 ** (prec + 1))  # halfway between m and m + 1 ulps
        scaled = (tie + k * c.mid.to_fraction()) * 2 ** (w - h)
        assert scaled.denominator == 1
        s = scaled.numerator
    b = el._fixed_ball(s, err, w, [], prec, h, k, c)
    exact = Fraction(s, 2 ** w) * 2 ** h - k * c.mid.to_fraction()
    mid = b.mid.to_fraction()
    assert mid == round_fraction_oracle(exact, prec, Rounding.NEAREST_EVEN)
    bound = abs(exact - mid) + Fraction(err, 2 ** w) * 2 ** h + abs(k) * c.rad.to_fraction()
    assert b.rad.to_fraction() == round_fraction_oracle(bound, 30, Rounding.UP)
    if case == "carry":
        assert mid == 2 ** h and b.mid.man == 1
    if case in ("tie_even", "tie_odd"):
        assert mid == Fraction(m + (m & 1), 2 ** prec)
    if case == "s0":
        assert b.mid.is_zero()


def test_precision_below_2_raises():
    # as every rounding does; the kernels round their midpoints on ints
    for x in (Ball.from_int(3), Ball.from_int(1), Ball(BigFloat.from_man_exp(3, -4), mag.pow2(-20))):
        for fn in (el.exp, el.log, el.sin, el.cos, el.atan):
            with pytest.raises(ValueError):
                fn(x, 1)


def test_tiny_arguments_stay_cheap():
    # 2^w for these w would need 2^70 bits; the kernel never builds it
    x = BigFloat.from_man_exp(3, -(1 << 70))
    for f in (el.sin, el.atan):
        for v in (x, -x):
            r = f(Ball(v), 53)
            assert r.mid == v and ball.rel_accuracy_bits(r) >= 53
    for f in (el.cos, el.exp):
        r = f(Ball(-x), 53)
        assert r.mid == bf.ONE and r.rad.exp < -60


def test_huge_argument_series_at_target_precision(monkeypatch):
    # k absorbs the 60000 integer bits; the series itself runs at about 85 bits
    x = Ball(BigFloat.from_man_exp(12345, 60000))
    widths = []
    kernel = el._series
    monkeypatch.setattr(el, "_series", lambda f, w, z: widths.append(w) or kernel(f, w, z))
    s, c = el.sin_cos(x, 53)
    assert len(widths) == 2 and max(widths) <= 53 + 32 + 8, widths
    with mpmath.workprec(60200):
        xm = mpmath.mpf(12345) * mpmath.mpf(2) ** 60000
        assert_encloses(s, mpf_fraction(mpmath.sin(xm)), "sin")
        assert_encloses(c, mpf_fraction(mpmath.cos(xm)), "cos")


def capped_prec(fn, x, prec):
    """The working precision fn takes for the point value of an inexact x:
    prec capped at the bits its propagated radius leaves, plus 64."""
    if x.rad.is_zero():
        return prec
    if fn == "log":
        return el._accuracy_prec(prec, ball.rel_accuracy_bits(x) + x.mid.exp.bit_length())
    return el._accuracy_prec(prec, -x.rad.exp)


def test_exp_rounds_the_input_radius_once():
    # the input radius joins the point's own sum: never wider than the point
    # ball, at the capped precision, times [1 +/- (e^r - 1)], which rounds the
    # point and then the product
    rng = random.Random(15)
    for _ in range(3000):
        m = BigFloat.from_man_exp(rng.getrandbits(64) | 1 | 1 << 63, rng.randrange(-72, -56))
        x = Ball(-m if rng.random() < 0.5 else m, mag.pow2(-rng.randrange(60, 121)))
        prec = rng.choice((53, 64, 333))
        r = el.exp(x, prec)
        wp = capped_prec("exp", x, prec)
        fold = ball.mul(el.exp(Ball(x.mid), wp), Ball(bf.ONE, el._expm1_upper(x.rad)), wp)
        assert r.mid == fold.mid, (x, prec)
        assert mag.compare(r.rad, fold.rad) <= 0, (x, prec)


@pytest.mark.parametrize("fn", ("sin", "cos", "log", "atan"))
def test_input_radius_rounds_once(fn):
    # the midpoint of the point value at the capped precision, and a radius
    # no wider than the point's radius plus the input radius times sup |f'|,
    # added after the rounding
    rng = random.Random(16)
    f = getattr(el, fn)
    for _ in range(300):
        x = rand_ball(rng, 64, 8, 1.0)
        if fn == "log":
            x = Ball(abs(x.mid), x.rad)
        prec = rng.choice((53, 64, 333))
        r, point = f(x, prec), f(Ball(x.mid), capped_prec(fn, x, prec))
        if r.is_indeterminate() or r.rad.to_fraction() >= 1:
            continue
        prop = (mag.div_upper(ball.lower_bound(x, 32), [(x.rad, mag.ONE)]) if fn == "log"
                else x.rad)
        assert r.mid == point.mid, (fn, x, prec)
        assert mag.compare(r.rad, mag.add(point.rad, prop)) <= 0, (fn, x, prec)


# -- working precision capped by the input's accuracy ------------------------------


def uncapped(monkeypatch):
    """Make every function evaluate its point value (_*_point) at the
    caller's prec, as before the cap."""
    monkeypatch.setattr(el, "_accuracy_prec", lambda prec, bound: prec)


def dyadic_mpf(q: Fraction):
    """q = p / 2^k exactly as an mpmath float."""
    with mpmath.workprec(max(53, abs(q.numerator).bit_length() + 8)):
        return mpmath.ldexp(mpmath.mpf(q.numerator), 1 - q.denominator.bit_length())


def test_capped_precision_keeps_the_uncapped_radius(monkeypatch):
    # a cap at the relative accuracy + 64 bits would widen both: exp's
    # radius about 190 times (2^-100 carries 100 bits relative, 200 absolute)
    # and log's from 2^-94 to 2^-89 (its value has 71 integer bits)
    cases = [(el.exp, Ball(BigFloat.from_man_exp(1, -100), mag.pow2(-200))),
             (el.log, Ball(BigFloat.from_man_exp(1, 1 << 70), mag.pow2((1 << 70) - 95)))]
    capped = [f(x, 400) for f, x in cases]
    assert capped[0].rad.to_text() == "268435457*2^-228"  # 2^-200 (1 + 2^-28)
    uncapped(monkeypatch)
    for (f, x), r in zip(cases, capped):
        assert mag.compare(r.rad, f(x, 400).rad) == 0, f


def test_cutoffs_test_the_callers_precision():
    # at 74 bits, the capped precision, sin's cutoff max(65536, 4 prec) would
    # return [0 +/- 1] and exp's 2 prec the whole line
    x = Ball(BigFloat.from_man_exp(12345, 70000), mag.pow2(-10))
    s = el.sin(x, 20000)
    assert s.rad.to_fraction() < Fraction(1, 2 ** 9)
    with mpmath.workprec(70200):
        assert_encloses(s, mpf_fraction(mpmath.sin(mpmath.ldexp(12345, 70000))), "sin")
    y = Ball(BigFloat.from_man_exp(3, 200), mag.pow2(-10))
    e = el.exp(y, 1000)
    assert ball.rel_accuracy_bits(e) >= 8
    with mpmath.workprec(400):  # |e^(3 2^200) - mid| < rad, compared as mpmath floats
        mid = mpmath.ldexp(e.mid.sign * e.mid.man, e.mid.lsb)
        rad = mpmath.ldexp(e.rad.man, e.rad.exp - 30)
        assert abs(mpmath.exp(mpmath.ldexp(3, 200)) - mid) < rad


def test_capped_precision_encloses_without_widening(monkeypatch):
    # inexact balls at 53 to 4000 bits, with relative radii from 2^-8 to
    # 80 bits below the precision: each result holds f at both endpoints
    # and the midpoint, and is no wider than the point value at prec
    rng = random.Random(19)
    fns = {"exp": (el.exp, (mpmath.exp,)), "sin_cos": (el.sin_cos, (mpmath.sin, mpmath.cos)),
           "log": (el.log, (mpmath.log,)), "atan": (el.atan, (mpmath.atan,))}
    cases = []
    for _ in range(1000):
        prec = int(53 * (4000 / 53) ** rng.random())
        man = rng.getrandbits(64) | 1 << 63
        mid = BigFloat.from_man_exp(-man if rng.random() < 0.5 else man, rng.randrange(-80, -57))
        rad = mag.from_man_exp_upper(rng.getrandbits(30) | 1, mid.exp - rng.randrange(8, prec + 80) - 30)
        cases.append((Ball(mid, rad), prec))
    results = [[f(Ball(abs(x.mid), x.rad) if name == "log" else x, prec)
                for name, (f, _) in fns.items()] for x, prec in cases]
    assert sum(capped_prec("exp", x, prec) < prec for x, prec in cases) > 500
    uncapped(monkeypatch)
    for (x0, prec), rs in zip(cases, results):
        for (name, (f, refs)), r in zip(fns.items(), rs):
            x = Ball(abs(x0.mid), x0.rad) if name == "log" else x0
            r, u = (r, f(x, prec)) if name == "sin_cos" else ((r,), (f(x, prec),))
            for b, ub in zip(r, u):
                assert mag.compare(b.rad, ub.rad) <= 0, (name, x, prec)
            m, d = x.mid.to_fraction(), x.rad.to_fraction()
            with mpmath.workprec(prec + 100):
                for t in (m - d, m, m + d):
                    for b, ref in zip(r, refs):
                        assert_encloses(b, mpf_fraction(ref(dyadic_mpf(t))), (name, x, prec))
