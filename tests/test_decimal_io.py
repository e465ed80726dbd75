import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ball_bounds, rand_ball
from midrad import ball, bigfloat as bf, decimal_io as dio, magnitude as mag
from midrad.ball import Ball
from midrad.bigfloat import BigFloat


PI53 = Ball(BigFloat.from_man_exp(884279719003555, -48),
            mag.from_man_exp_upper(536870913, -80))


class TestGolden:
    def test_pi_thirty_digits(self):
        assert dio.to_decimal(PI53, 30) == "[3.141592653589793 +/- 5.61e-16]"

    def test_pi_three_digits(self):
        assert dio.to_decimal(PI53, 3) == "[3.14 +/- 1.60e-3]"

    def test_exact_eighth(self):
        x = dio.from_decimal("0.125")
        assert x.mid == BigFloat.from_man_exp(1, -3) and x.is_exact()
        assert dio.to_decimal(x, 3) == "0.125"

    def test_magnitude_only_form(self):
        s = dio.to_decimal(Ball(bf.ZERO, mag.from_man_exp_upper(123, -40)), 8)
        assert s.startswith("[+/- ") and s.endswith("]")
        back = dio.from_decimal(s)
        assert back.mid.is_zero() and back.rad.to_fraction() >= Fraction(123, 2 ** 40)


class TestFormatting:
    def test_specials(self):
        assert dio.to_decimal(ball.indeterminate(), 5) == "nan"
        assert dio.to_decimal(ball.whole_line(), 5) == "[+/- inf]"
        assert dio.to_decimal(Ball(bf.POS_INF), 5) == "inf"
        assert dio.to_decimal(Ball(bf.NEG_INF), 5) == "-inf"
        assert dio.to_decimal(Ball(bf.ZERO), 5) == "0"

    def test_plain_vs_scientific(self):
        assert dio.to_decimal(Ball.from_int(-42), 5) == "-42"
        assert dio.to_decimal(Ball.from_man_exp(1, -10), 12) == "0.0009765625"
        s = dio.to_decimal(Ball.from_man_exp(1, 64), 10)
        assert "e" in s and s.startswith("[1.844674407e19")

    def test_exact_midpoint_with_too_many_digits_gets_brackets(self):
        x = Ball.from_man_exp(1, -20)  # 0.00000095367431640625: 20 digits
        s = dio.to_decimal(x, 4)
        assert s.startswith("[9.537e-7 +/- ")
        assert ball.contains(dio.from_decimal(s), x)

    def test_radius_always_three_digits(self):
        rng = random.Random(12)
        for _ in range(100):
            x = rand_ball(rng)
            s = dio.to_decimal(x, rng.randrange(1, 12))
            if "+/-" in s:
                radpart = s.split("+/-")[1].strip(" ]")
                head = radpart.split("e")[0]
                assert len(head.replace(".", "")) == 3, s


class TestContract:
    def test_midpoint_within_one_ulp_and_contained(self):
        rng = random.Random(77)
        for _ in range(400):
            x = rand_ball(rng, exp_range=30)
            d = rng.randrange(1, 18)
            s = dio.to_decimal(x, d)
            if not s.startswith("["):
                # exact print: must equal the midpoint exactly and rad must be 0
                assert x.rad.is_zero()
                assert _decimal_str_fraction(s) == x.mid.to_fraction()
                continue
            if s.startswith("[+/-"):
                back = dio.from_decimal(s)
                assert ball.contains(back, x)
                continue
            mid_s, rad_s = s[1:-1].split(" +/- ")
            m = _decimal_str_fraction(mid_s)
            ds = mid_s.split("e")[0].replace("-", "").replace(".", "").lstrip("0")
            digits = len(ds.rstrip("0")) or 1  # padding zeros are not significant
            # ulp of the printed midpoint
            e10 = _dec_exponent(mid_s)
            ulp = Fraction(10) ** (e10 - digits + 1)
            assert abs(m - x.mid.to_fraction()) <= ulp, (s, d)
            assert digits <= d
            back = dio.from_decimal(s)
            assert ball.contains(back, x), s

    def test_round_trip_containment_random(self):
        rng = random.Random(3)
        for _ in range(500):
            x = rand_ball(rng, exp_range=120)
            s = dio.to_decimal(x, rng.randrange(1, 25))
            assert ball.contains(dio.from_decimal(s), x), s

    def test_exact_midpoints_preserved_both_ways(self):
        for txt in ("0.125", "-3.25", "17", "0.5e3", "1.0009765625"):
            b = dio.from_decimal(txt)
            assert b.is_exact()
            s = dio.to_decimal(b, 30)
            assert "[" not in s
            assert _decimal_str_fraction(s) == _decimal_str_fraction(txt)


def _dec_exponent(s: str) -> int:
    s = s.strip().lstrip("-")
    if "e" in s:
        head, _, tail = s.partition("e")
        e = int(tail)
    else:
        head, e = s, 0
    if "." in head:
        ip, _, fp = head.partition(".")
    else:
        ip, fp = head, ""
    ip = ip.lstrip("0")
    if ip:
        return e + len(ip) - 1
    z = len(fp) - len(fp.lstrip("0"))
    return e - z - 1


def _decimal_str_fraction(s: str) -> Fraction:
    s = s.strip()
    neg = s.startswith("-")
    if neg:
        s = s[1:]
    if "e" in s:
        head, _, tail = s.partition("e")
        e = int(tail)
    else:
        head, e = s, 0
    if "." in head:
        ip, _, fp = head.partition(".")
        v = Fraction(int(ip + fp), 10 ** len(fp))
    else:
        v = Fraction(int(head))
    v *= Fraction(10) ** e
    return -v if neg else v


class TestParse:
    def test_forms(self):
        assert dio.from_decimal("nan").is_indeterminate()
        assert dio.from_decimal("inf").mid.kind == bf.POS_INF.kind
        assert dio.from_decimal("[+/- inf]").rad.is_inf()
        b = dio.from_decimal("[1.5 +/- 0.25]")
        assert b.mid.to_fraction() == Fraction(3, 2)
        assert b.rad.to_fraction() >= Fraction(1, 4)
        b = dio.from_decimal("[+/- 1.23e-8]")
        assert b.mid.is_zero() and b.rad.to_fraction() >= Fraction(123, 10 ** 10)
        assert dio.from_decimal(".5").mid.to_fraction() == Fraction(1, 2)

    def test_inexact_decimal_is_enclosed(self):
        b = dio.from_decimal("0.1")
        lo, hi = ball_bounds(b)
        assert lo <= Fraction(1, 10) <= hi
        assert hi - lo <= Fraction(1, 10 ** 15)

    def test_denoted_set_contained(self):
        rng = random.Random(4)
        for _ in range(200):
            mn, mk = rng.randrange(-10 ** 12, 10 ** 12), rng.randrange(0, 9)
            rn, rk = rng.randrange(0, 10 ** 6), rng.randrange(0, 9)
            m = Fraction(mn, 10 ** mk)
            r = Fraction(rn, 10 ** rk)
            b = dio.from_decimal(f"[{mn}e-{mk} +/- {rn}e-{rk}]")
            lo, hi = ball_bounds(b)
            assert lo <= m - r and m + r <= hi

    @pytest.mark.parametrize("e10", [3_000_001, 4_000_000, 10 ** 9, 10 ** 18])
    def test_capped_exponents_stay_enclosed(self, e10):
        # past the cap the value d * 10^e10 is bounded through 2^b alone; the
        # bound once fell below 10^e10 for large negative exponents
        with mpmath.workprec(200):
            for e in (e10, -e10):
                b = dio.from_decimal(f"7e{e}")
                assert b.mid.is_zero()
                assert b.rad.exp - 1 > mpmath.log(7, 2) + e * mpmath.log(10, 2)
                r = dio.from_decimal(f"[+/- 7e{e}]").rad
                assert r.exp - 1 >= mpmath.log(7, 2) + e * mpmath.log(10, 2)

    @pytest.mark.parametrize("bad,pos", [
        ("1.2.3", 3),
        ("abc", 0),
        ("[3 +/- ]", 0),
        ("1e", 2),
        ("", 0),
        ("[1 2]", 1),
    ])
    def test_errors_have_positions(self, bad, pos):
        with pytest.raises(dio.ParseError) as ex:
            dio.from_decimal(bad)
        assert ex.value.position >= 0


@given(st.integers(min_value=-(2 ** 60), max_value=2 ** 60).filter(bool),
       st.integers(min_value=-40, max_value=40),
       st.integers(min_value=0, max_value=2 ** 20),
       st.integers(min_value=-50, max_value=10),
       st.integers(min_value=1, max_value=20))
@settings(max_examples=200, deadline=None)
def test_round_trip_hypothesis(man, e, rman, re_, d):
    x = Ball(BigFloat.from_man_exp(man, e),
             mag.from_man_exp_upper(rman, re_) if rman else mag.ZERO)
    s = dio.to_decimal(x, d)
    assert ball.contains(dio.from_decimal(s), x)
