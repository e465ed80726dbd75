import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ball_bounds, contains_fraction, rand_ball
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

    def test_exact_midpoints_print_plain_up_to_digits(self, monkeypatch):
        # an exact midpoint with n significant decimal digits prints as exactly
        # that decimal, without brackets, whenever n <= digits; a huge digit
        # count costs no scaling beyond the midpoint's own digits
        ks = []
        scaled_parts = dio._scaled_parts
        monkeypatch.setattr(dio, "_scaled_parts", lambda m, e2, k: ks.append(k) or scaled_parts(m, e2, k))
        rng = random.Random(21)
        for _ in range(400):
            man = rng.getrandbits(rng.randrange(1, 50)) | 1
            x = Ball(BigFloat.from_man_exp(rng.choice((1, -1)) * man, rng.randrange(-40, 40)))
            n = len(_exact_digits(x.mid.to_fraction()))
            for d in (n, n + rng.randrange(1, 5), max(1, n - 1), 10 ** 5):
                s = dio.to_decimal(x, d)
                if n <= d:
                    assert "[" not in s and _decimal_str_fraction(s) == x.mid.to_fraction(), (s, d)
                else:
                    assert s.startswith("[") and ball.contains(dio.from_decimal(s), x), (s, d)
        assert max(map(abs, ks)) <= 100

    @pytest.mark.parametrize("e", [10 ** 9, -10 ** 9, 4 * 10 ** 7, -4 * 10 ** 7])
    def test_radius_beyond_the_cap_is_never_scaled(self, e, monkeypatch):
        # scaling such a radius exactly needs 5^k for |k| near e log10(2), which
        # takes minutes or more; it prints as a crude 10^K bound instead
        ks = []
        scaled_parts = dio._scaled_parts
        monkeypatch.setattr(dio, "_scaled_parts", lambda m, e2, k: ks.append(k) or scaled_parts(m, e2, k))
        for mid in (bf.ZERO, bf.ONE, BigFloat.from_man_exp(-12345, -9)):
            x = Ball(mid, mag.pow2(e))
            s = dio.to_decimal(x, 15)
            head, _, rad_text = s[1:-1].rpartition("+/- ")
            assert rad_text.startswith("1.00e")
            k = int(rad_text[5:])
            assert _pow10_at_least_pow2(k, e)  # the printed bound holds the radius
            assert k <= e * 30103 // 100000 + abs(e) // 10 ** 8 + 3
            if e < 0 and not mid.is_zero():  # a tiny radius leaves the midpoint digits alone
                assert _decimal_str_fraction(head.strip()) == mid.to_fraction()
            assert ball.contains(dio.from_decimal(s), x)
        assert max(map(abs, ks)) <= 20

    def test_radius_always_three_digits(self):
        rng = random.Random(12)
        for _ in range(100):
            x = rand_ball(rng)
            s = dio.to_decimal(x, rng.randrange(1, 12))
            if "+/-" in s:
                radpart = s.split("+/-")[1].strip(" ]")
                head = radpart.split("e")[0]
                assert len(head.replace(".", "")) == 3, s


class TestCrudeBounds:
    """The crude powers used beyond the caps bound the value, and exceed the
    least bound by at most 1 plus what the 10-digit logarithm brackets lose
    (|e| 10^-10 decades or |e10| 10^-9 bits); checked against 50-digit
    logarithms, without building any 10^k."""

    EXPONENTS = ([s * e for e in (1, 2, 3, 9, 10, 99, 1000, 12345, 10 ** 6, 3 * 10 ** 6 + 1,
                                  4 * 10 ** 8, 1328771240, 10 ** 9 + 7, 10 ** 10) for s in (1, -1)]
                 + random.Random(31).sample(range(-10 ** 10, 10 ** 10), 200))

    def test_pow10_upper(self):
        with mpmath.workdps(50):
            for e in self.EXPONENTS:
                k, t = dio._pow10_upper(e), e * mpmath.log10(2)  # 2^e = 10^t
                assert t <= k <= t + 1 + abs(e) * mpmath.mpf(10) ** -10, e

    def test_crude_pow2_upper_exp(self):
        with mpmath.workdps(50):
            for e10 in self.EXPONENTS:
                for bits in (1, 7, 64):
                    b, t = dio._crude_pow2_upper_exp(bits, e10), e10 * mpmath.log(10, 2)
                    assert bits + t <= b <= bits + t + 1 + abs(e10) * mpmath.mpf(10) ** -9, (bits, e10)


    def test_midpoint_beyond_the_bits_cap(self):
        # 3 * 2^30000000 is not scaled: it prints as the next power of ten,
        # and that text parses back to a ball that still holds the value
        e = 30_000_000
        assert e > dio._BITS_CAP
        s = dio.to_decimal(Ball(BigFloat.from_man_exp(3, e)), 10)
        assert s == "[+/- 1.00e9030901]"
        assert contains_fraction(dio.from_decimal(s), Fraction(3 << e))


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


def _pow10_at_least_pow2(k: int, e: int) -> bool:
    """10^k >= 2^e, decided with integers only (sufficient, and tight enough
    here): 3.321928094 < log2(10) < 3.321928095."""
    if k >= 0:
        return e <= 0 or k * 3321928094 >= e * 10 ** 9
    return e < 0 and k * 3321928095 >= e * 10 ** 9


def _exact_digits(v: Fraction) -> str:
    """Significant decimal digits of a nonzero dyadic rational."""
    v = abs(v)
    while v.denominator != 1:
        v *= 10
    return str(v.numerator).rstrip("0")


def _choose_digits_oracle(rad: Fraction, e10: int, d: int) -> int:
    """Largest q in [1, d] with 2 rad <= 10^(e10 - q + 1), by trying every q."""
    return max([q for q in range(1, d + 1) if 2 * rad <= Fraction(10) ** (e10 - q + 1)], default=0)


class TestChooseDigits:
    def test_against_brute_force(self):
        rng = random.Random(5)
        for _ in range(600):
            e10 = rng.randrange(-60, 60)
            top = int(e10 * 3.3219) - rng.randrange(-10, 130)  # radius about 2^top
            rad = mag.from_man_exp_upper(rng.getrandbits(30) | 1, top - 30)
            d = rng.randrange(1, 40)
            assert dio._choose_digits(rad, e10, d) == _choose_digits_oracle(rad.to_fraction(), e10, d)

    @pytest.mark.parametrize("g", range(13))
    def test_radius_half_a_power_of_ten(self, g):
        rad = mag.from_man_exp_upper(5 ** g, g - 1)  # 2 rad = 10^g exactly
        assert 2 * rad.to_fraction() == 10 ** g
        nxt = mag.from_man_exp_upper(rad.man + 1, rad.exp - 30)  # one ulp wider
        for r in (rad, nxt):
            for e10 in range(g - 3, g + 25):
                for d in (1, 2, 7, 20):
                    assert dio._choose_digits(r, e10, d) == _choose_digits_oracle(r.to_fraction(), e10, d)
        assert dio._choose_digits(rad, g, 5) == 1  # 2 rad = 10^e10: one digit
        assert dio._choose_digits(nxt, g, 5) == 0
        assert dio._choose_digits(rad, g + 30, 5) == 5  # clamped at d
        assert dio._choose_digits(mag.ZERO, g, 5) == 5


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
                assert r == b.rad
                assert ball.contains(dio.from_decimal(dio.to_decimal(b, 10)), b)  # prints back

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
