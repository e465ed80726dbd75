import random
from fractions import Fraction

import mpmath
import pytest

from conftest import (ball_bounds, contains_fraction, mpf_fraction, round_fraction_oracle,
                      sample_in_ball)
from midrad import ball, bigfloat as bf, complexbox as cb, decimal_io as dio
from midrad import elementary as el, magnitude as mag
from midrad.ball import Ball
from midrad.bigfloat import BigFloat, Rounding
from midrad.complexbox import ComplexBox


def box_contains(box: ComplexBox, z) -> bool:
    return (contains_fraction(box.re, mpf_fraction(z.real))
            and contains_fraction(box.im, mpf_fraction(z.imag)))


class TestComplexMul:
    """With exact inputs each part of a product is rounded exactly once: it is
    the correctly rounded value, exact iff its radius is 0, and otherwise
    carries half an ulp of radius."""

    @staticmethod
    def check_part(part: Ball, exact: Fraction, prec: int):
        f = part.mid.to_fraction()
        assert f == round_fraction_oracle(exact, prec, Rounding.NEAREST_EVEN)
        assert part.rad.is_zero() == (f == exact)
        if f != exact:
            assert part.rad == mag.pow2(part.mid.exp - prec - 1)

    def test_small(self):
        z = cb.mul(ComplexBox.from_int(1, 2), ComplexBox.from_int(3, 4), 53)
        assert z.re.mid.to_fraction() == -5 and z.im.mid.to_fraction() == 10 and z.is_exact()

    def test_norm(self):
        z = cb.mul(ComplexBox.from_int(3, 4), ComplexBox.from_int(3, -4), 53)
        assert z.re.mid.to_fraction() == 25 and z.im.mid.is_zero() and z.is_exact()

    def test_oracle_low_precision(self):
        rng = random.Random(11)
        for _ in range(200):
            a, b, c, d = (BigFloat.from_man_exp(rng.randrange(1, 1 << 24) * rng.choice([1, -1]),
                                                rng.randrange(-12, 12)) for _ in range(4))
            fa, fb, fc, fd = (t.to_fraction() for t in (a, b, c, d))
            z = cb.mul(ComplexBox(Ball(a), Ball(b)), ComplexBox(Ball(c), Ball(d)), 8)
            self.check_part(z.re, fa * fc - fb * fd, 8)
            self.check_part(z.im, fa * fd + fb * fc, 8)
            w = ComplexBox(Ball(b), Ball(c))
            z = cb.fma(w, ComplexBox(Ball(a), Ball(b)), ComplexBox(Ball(c), Ball(d)), 8)
            self.check_part(z.re, fb + fa * fc - fb * fd, 8)
            self.check_part(z.im, fc + fa * fd + fb * fc, 8)


class TestArithmetic:
    def test_one_plus_i_squared(self):
        z = ComplexBox.from_int(1, 1)
        s = cb.mul(z, z, 53)
        assert s.re.mid.is_zero() and s.re.is_exact()
        assert s.im.mid.to_fraction() == 2 and s.im.is_exact()

    def test_division(self):
        d = cb.div(ComplexBox.from_int(2, 2), ComplexBox.from_int(1, 1), 53)
        assert contains_fraction(d.re, Fraction(2)) and contains_fraction(d.im, Fraction(0))
        assert d.re.rad.to_fraction() < Fraction(1, 2 ** 45)

    def test_division_by_zero_box(self):
        z = ComplexBox(Ball(bf.ZERO, mag.ONE), Ball(bf.ZERO, mag.ONE))
        assert cb.div(ComplexBox.from_int(1), z, 53).is_indeterminate()

    def test_fma(self):
        r = cb.fma(ComplexBox.from_int(1, 1), ComplexBox.from_int(2), ComplexBox.from_int(0, 3), 53)
        assert r.re.mid.to_fraction() == 1 and r.im.mid.to_fraction() == 7

    def test_sampled_products_contained(self):
        rng = random.Random(15)
        mpmath.mp.prec = 300
        for _ in range(200):
            def rb():
                m = rng.randrange(-1000, 1001)
                r = mag.from_man_exp_upper(rng.randrange(0, 16), -8)
                return Ball(BigFloat.from_int(m), r)
            x = ComplexBox(rb(), rb())
            y = ComplexBox(rb(), rb())
            p = cb.mul(x, y, 53)
            a, b_ = sample_in_ball(x.re, rng), sample_in_ball(x.im, rng)
            c, d = sample_in_ball(y.re, rng), sample_in_ball(y.im, rng)
            assert contains_fraction(p.re, a * c - b_ * d)
            assert contains_fraction(p.im, a * d + b_ * c)


class TestSqrt:
    def test_principal_negative_real(self):
        s = cb.sqrt(ComplexBox.from_int(-4), 53)
        assert s.re.mid.is_zero() and s.re.is_exact()
        assert s.im.mid.to_fraction() == 2 and s.im.is_exact()

    def test_right_half_plane(self):
        s = cb.sqrt(ComplexBox.from_int(3, 4), 53)
        assert contains_fraction(s.re, Fraction(2)) and contains_fraction(s.im, Fraction(1))

    def test_lower_half_plane(self):
        s = cb.sqrt(ComplexBox.from_int(0, -2), 53)
        assert contains_fraction(s.re, Fraction(1)) and contains_fraction(s.im, Fraction(-1))

    def test_box_meeting_zero(self):
        z = ComplexBox(Ball(bf.ZERO, mag.ONE), Ball(bf.ZERO, mag.ONE))
        assert cb.sqrt(z, 53).is_indeterminate()

    def test_crossing_cut_includes_both_limits(self):
        z = ComplexBox(Ball.from_int(-4), Ball(bf.ZERO, mag.ONE))
        s = cb.sqrt(z, 53)
        v = mpf_fraction(mpmath.sqrt(mpmath.mpc(-4, 0.5)).imag)
        assert contains_fraction(s.im, v) and contains_fraction(s.im, -v)

    def test_matches_mpmath(self):
        rng = random.Random(16)
        mpmath.mp.prec = 300
        for _ in range(200):
            a, b = rng.randrange(-50, 51), rng.randrange(-50, 51)
            if a == 0 and b == 0:
                continue
            s = cb.sqrt(ComplexBox.from_int(a, b), 53)
            if s.is_indeterminate():
                continue
            ref = mpmath.sqrt(mpmath.mpc(a, b))
            if a < 0 and b == 0:
                ref = mpmath.mpc(0, mpmath.sqrt(-a))  # principal: phase +pi
            assert box_contains(s, ref), (a, b)


class TestExpLog:
    def test_exp_zero(self):
        e = cb.exp(ComplexBox.from_int(0), 53)
        assert e.re.mid.to_fraction() == 1 and e.im.mid.is_zero()

    def test_exp_i_pi_contains_minus_one(self):
        e = cb.exp(ComplexBox(Ball.from_int(0), el.const_pi(64)), 53)
        assert contains_fraction(e.re, Fraction(-1)) and contains_fraction(e.im, Fraction(0))

    def test_log_one_exact(self):
        l = cb.log(ComplexBox.from_int(1), 53)
        assert l.re.mid.is_zero() and l.im.mid.is_zero() and l.is_exact()

    def test_branch_cut_enclosure(self):
        x = ComplexBox(Ball.from_int(-100), Ball(bf.ZERO, mag.ONE))
        l = cb.log(x, 53)
        lo, hi = ball_bounds(l.re)
        assert Fraction(46051, 10000) <= lo and hi <= Fraction(46053, 10000)
        assert contains_fraction(l.im, mpf_fraction(mpmath.pi))
        assert contains_fraction(l.im, mpf_fraction(-mpmath.pi))
        assert l.im.rad.to_fraction() <= Fraction(32, 10)

    def test_negative_real_is_plus_pi(self):
        l = cb.log(ComplexBox.from_int(-1), 53)
        assert contains_fraction(l.im, mpf_fraction(mpmath.pi))
        assert not contains_fraction(l.im, mpf_fraction(-mpmath.pi))
        assert contains_fraction(l.re, Fraction(0))

    def test_log_of_zero_box(self):
        z = ComplexBox(Ball(bf.ZERO, mag.ONE), Ball(bf.ZERO, mag.ONE))
        assert cb.log(z, 53).is_indeterminate()

    def test_branch_consistency_off_cut(self):
        rng = random.Random(17)
        mpmath.mp.prec = 300
        for _ in range(150):
            a = rng.randrange(-40, 41)
            b = rng.randrange(-40, 41)
            if a <= 0 and abs(b) <= 1:
                continue
            z = ComplexBox.from_int(a, b)
            l = cb.log(z, 53)
            # im(log) within (-pi, pi]
            lo, hi = ball_bounds(l.im)
            pi_hi = mpf_fraction(mpmath.pi) + Fraction(1, 2 ** 40)
            assert -pi_hi <= lo and hi <= pi_hi
            # exp(log(z)) recovers z
            e = cb.exp(l, 53)
            assert contains_fraction(e.re, Fraction(a)) and contains_fraction(e.im, Fraction(b))

    def test_matches_mpmath(self):
        rng = random.Random(18)
        mpmath.mp.prec = 300
        for _ in range(150):
            a, b = rng.randrange(-50, 51), rng.randrange(-50, 51)
            if a == 0 and b == 0:
                continue
            l = cb.log(ComplexBox.from_int(a, b), 53)
            if l.is_indeterminate():
                continue
            ref = mpmath.log(mpmath.mpc(a, b))
            if a < 0 and b == 0:
                ref = mpmath.mpc(mpmath.log(-a), mpmath.pi)
            assert box_contains(l, ref), (a, b)


class TestTan:
    def test_zero_exact(self):
        t = cb.tan(ComplexBox.from_int(0), 53)
        assert t.re.mid.is_zero() and t.im.mid.is_zero() and t.is_exact()

    def test_large_imaginary_is_i(self):
        t = cb.tan(ComplexBox.from_int(1, 1000), 53)
        err = abs(t.im.mid.to_fraction() - 1) + t.im.rad.to_fraction()
        assert err < Fraction(1, 2 ** 40)
        assert abs(t.re.mid.to_fraction()) + t.re.rad.to_fraction() < Fraction(1, 2 ** 40)
        assert not t.re.rad.is_inf() and not t.im.rad.is_inf()

    def test_overflow_robustness(self):
        mpmath.mp.prec = 300
        for imag in (10 ** 4, 10 ** 6, -10 ** 6):
            t = cb.tan(ComplexBox.from_int(3, imag), 53)
            assert not t.re.rad.is_inf() and not t.im.rad.is_inf()
            assert contains_fraction(t.im, Fraction(1 if imag > 0 else -1))
        e = cb.exp(ComplexBox.from_int(0, 10 ** 6), 53)
        assert not e.re.rad.is_inf() and not e.im.rad.is_inf()
        ref = mpmath.exp(mpmath.mpc(0, 10 ** 6))
        assert box_contains(e, ref)

    def test_branch_agreement_near_one(self):
        mpmath.mp.prec = 300
        za = ComplexBox(Ball.from_int(1), Ball.from_man_exp(1023, -10))  # quotient branch
        zb = ComplexBox(Ball.from_int(1), Ball.from_man_exp(1025, -10))  # exp branch
        ta, tb = cb.tan(za, 53), cb.tan(zb, 53)
        ra = mpmath.tan(mpmath.mpc(1, mpmath.mpf(1023) / 1024))
        rb = mpmath.tan(mpmath.mpc(1, mpmath.mpf(1025) / 1024))
        assert box_contains(ta, ra) and box_contains(tb, rb)
        # ties (mid(im z) == 1) take the exponential branch; recomputing the
        # same input with the quotient formula must give overlapping boxes
        z = ComplexBox(Ball.from_int(1), Ball.from_int(1))
        t_exp = cb.tan(z, 53)
        s, c = cb.sin_cos(z, 61)
        t_quot = cb.div(s, c, 53)
        assert ball.overlaps(t_exp.re, t_quot.re)
        assert ball.overlaps(t_exp.im, t_quot.im)

    def test_pole_is_indeterminate(self):
        pih = ball.scale_2exp(el.const_pi(80), -1)
        t = cb.tan(ComplexBox(pih, Ball.from_int(0)), 53)
        assert t.is_indeterminate()

    def test_matches_mpmath_grid(self):
        rng = random.Random(19)
        mpmath.mp.prec = 300
        for _ in range(120):
            an, ad = rng.randrange(-40, 41), rng.randrange(1, 9)
            bn, bd = rng.randrange(-40, 41), rng.randrange(1, 9)
            z = ComplexBox(ball.div(Ball.from_int(an), Ball.from_int(ad), 80),
                           ball.div(Ball.from_int(bn), Ball.from_int(bd), 80))
            t = cb.tan(z, 53)
            if t.is_indeterminate():
                continue
            ref = mpmath.tan(mpmath.mpc(mpmath.mpf(an) / ad, mpmath.mpf(bn) / bd))
            assert box_contains(t, ref), (an, ad, bn, bd)


class TestSinCos:
    def test_matches_mpmath(self):
        mpmath.mp.prec = 300
        rng = random.Random(20)
        for _ in range(100):
            a, b = rng.randrange(-10, 11), rng.randrange(-10, 11)
            s, c = cb.sin_cos(ComplexBox.from_int(a, b), 53)
            z = mpmath.mpc(a, b)
            assert box_contains(s, mpmath.sin(z)) and box_contains(c, mpmath.cos(z))


class TestText:
    def test_decimal_round_trip(self):
        z = ComplexBox(Ball.from_man_exp(3, -2), Ball(BigFloat.from_int(-1), mag.pow2(-8)))
        s = cb.to_decimal(z, 10)
        back = cb.from_decimal(s)
        assert ball.contains(back.re, z.re) and ball.contains(back.im, z.im)

    def test_exact_text(self):
        z = ComplexBox.from_int(2, -3)
        assert z.to_exact_text() == "((1*2^1; 0); (-3*2^0; 0))"
