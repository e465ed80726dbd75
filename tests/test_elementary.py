import math
import random
import time
from fractions import Fraction

import mpmath
import pytest

from conftest import ball_bounds, contains_fraction, mpf_fraction
from midrad import ball, bigfloat as bf, elementary as el, magnitude as mag
from midrad.ball import Ball
from midrad.bigfloat import BigFloat


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

    def test_general(self):
        half = ball.div(exact(1), exact(2), 100)
        r = el.power(exact(2), half, 53)
        assert_encloses(r, mpf_fraction(mpmath.sqrt(2)))
        assert el.power(exact(-2), half, 53).is_indeterminate()

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


class TestClamp:
    def test_exponent_flush(self):
        # the flush threshold is the tower 2^max(65536, 4 prec)
        e = 1 << 65600
        tiny = Ball(BigFloat.from_man_exp(1, -e), mag.ZERO)
        out = el._clamp(tiny, 16)
        assert out.mid.is_zero() and not out.rad.is_zero()
        huge = Ball(BigFloat.from_man_exp(1, e), mag.ZERO)
        out = el._clamp(huge, 16)
        assert out.rad.is_inf()
        below = Ball(BigFloat.from_man_exp(1, (1 << 65536) - 1), mag.ZERO)
        assert el._clamp(below, 16) == below
        normal = Ball(BigFloat.from_int(3))
        assert el._clamp(normal, 16) == normal


class TestLog2Cache:
    def test_transparency(self):
        el._log2_cache.clear()
        cold = el.const_log2(90)
        warm = el.const_log2(90)
        el._log2_cache.clear()
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
              "atanh": mag.div_int_upper(mag.from_int_upper(25), 24)}


@pytest.mark.parametrize("wp", (53, 1000))
@pytest.mark.parametrize("fn", sorted(_LIPSCHITZ))
def test_kernel_folds_argument_radius(fn, wp):
    w = wp + el._GUARD
    c = 1 << 20  # a radius of 2^20 ulps
    for x in _fixed_inputs(fn, w)[:4]:
        rad = mag.mul(mag.from_man_exp_upper(c, -w), _LIPSCHITZ[fn])
        b = el._fixed_ball(*el._series(_KINDS[fn], w, x), w, rad)
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


def _edge_inputs():
    with mpmath.workprec(200):
        ln2, pi = mpmath.log(2), mpmath.pi
        return {
            "exp": [_dyadic(1.5 * ln2), _dyadic(-1.5 * ln2), _dyadic(10.5 * ln2),
                    _dyadic(mpmath.mpf(1) / 2 - mpmath.mpf(2) ** -40), _dyadic(ln2 / 2)],
            "sin": [_dyadic(3 * pi / 4), _dyadic(-5 * pi / 4), _dyadic(pi),
                    _dyadic(mpmath.mpf(999) / 1000), _dyadic(pi / 4)],
            "log": [_dyadic(mpmath.mpf(3) / 2 - mpmath.mpf(2) ** -40), _dyadic(mpmath.mpf(3) / 4),
                    _dyadic(3 - mpmath.mpf(2) ** -40), _dyadic(mpmath.mpf(3) / 4 - mpmath.mpf(2) ** -40),
                    _dyadic(1 + mpmath.mpf(2) ** -50)],
            "atan": [_dyadic(mpmath.mpf(1) / 8), _dyadic(mpmath.mpf(1) / 8 + mpmath.mpf(2) ** -50),
                     _dyadic(8 - mpmath.mpf(2) ** -45), _dyadic(mpmath.mpf(99999) / 100000),
                     _dyadic(1 + mpmath.mpf(2) ** -40), _dyadic(-mpmath.mpf(2) ** -30)],
        }


@pytest.mark.parametrize("prec", KERNEL_WPS)
def test_public_functions_at_reduction_edges(prec):
    refs = {"exp": [mpmath.exp], "sin": [mpmath.sin, mpmath.cos],
            "log": [mpmath.log], "atan": [mpmath.atan]}
    for fn, xs in _edge_inputs().items():
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
# fixed-point kernel replaced.  The kernel may only tighten them.
BALL_LOOP_RADII = {
    ('exp', 1, 0): ('268469715*2^-79', '479034497*2^-317', '537435151*2^-1027'),
    ('exp', -1, 0): ('134235603*2^-81', '958068993*2^-320', '537438237*2^-1030'),
    ('exp', -3, -3): ('268492817*2^-81', '8395777*2^-356', '269004819*2^-1028'),
    ('exp', 1419, -12): ('134244403*2^-79', '537321519*2^-361', '268996627*2^-1027'),
    ('exp', -1419, -12): ('536977815*2^-82', '268660783*2^-361', '537993291*2^-1029'),
    ('exp', 3, -40): ('4105*2^-80', '536911873*2^-361', '537042945*2^-1028'),
    ('exp', 229, -2): ('536883849*2^1', '605523499*2^-229', '33556199*2^-942'),
    ('exp', 2001, -1): ('536876643*2^1362', '331424115*2^1136', '536877475*2^415'),
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
    ('log', 2, 0): ('536872961*2^-82', '704907689*2^-319', '536872961*2^-1029'),
    ('log', 3, 0): ('134220549*2^-79', '704907691*2^-318', '268483083*2^-1027'),
    ('log', 5, -4): ('268442643*2^-80', '704907691*2^-318', '536961559*2^-1028'),
    ('log', 3145727, -21): ('134234245*2^-81', '537182677*2^-363', '537768519*2^-1030'),
    ('log', 3, -2): ('268489141*2^-82', '537387375*2^-363', '538354459*2^-1030'),
    ('log', 1000000, 0): ('536871433*2^-78', '881134613*2^-315', '16777235*2^-1020'),
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


@pytest.mark.parametrize("wp", (53, 1000))
def test_atan_halving_error_bound(wp):
    w = wp + el._GUARD
    with mpmath.workprec(w + 64):
        for v in (Fraction(1), Fraction(999, 1000), Fraction(1, 2), Fraction(1, 8) + Fraction(1, 2 ** 40)):
            z0 = math.floor(v * (1 << w))
            for d in (-1, 0, 1):  # the exact argument is (z0 + d) 2^-w, within 1 ulp
                y, h, r = el._atan_halve(z0, w, mag.pow2(-w))
                assert h >= 1 and y <= (1 << w) // 8
                x = mpmath.mpf(z0 + d) / mpmath.mpf(2) ** w
                exact = mpmath.tan(mpmath.atan(x) / 2 ** h) * mpmath.mpf(2) ** w
                assert abs(mpf_fraction(exact) - y) <= r.to_fraction() * (1 << w), (v, d)


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
        xr = mag.pow2(rng.randrange(-120, -60))
        t = el._sub_multiple(Ball(x, xr), c, k)
        assert t.mid.to_fraction() == x.to_fraction() - k * c.mid.to_fraction()
        assert t.rad.to_fraction() >= xr.to_fraction() + abs(k) * c.rad.to_fraction()


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
