import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_bigfloat, rand_magnitude, round_fraction_oracle
from midrad import bigfloat as bf
from midrad import magnitude as mag
from midrad.bigfloat import BigFloat, Rounding

TIGHT = 1 + Fraction(1, 2 ** 28)


def F(x):
    return x.to_fraction()


class TestBasicOps:
    def test_add_identity(self):
        x = mag.from_int_upper(7)
        assert mag.add(mag.ZERO, x) == x
        assert mag.add(x, mag.ZERO) == x

    def test_mul_small(self):
        v = F(mag.mul(mag.from_int_upper(3), mag.from_int_upper(5)))
        assert 15 <= v <= 15 * TIGHT

    def test_addmul_tiny_product(self):
        v = F(mag.addmul(mag.ONE, mag.pow2(-200), mag.pow2(-200)))
        assert 1 + Fraction(1, 2 ** 400) <= v <= (1 + Fraction(1, 2 ** 400)) * TIGHT

    def test_inf_absorbs(self):
        assert mag.add(mag.INF, mag.ONE).is_inf()
        assert mag.mul(mag.INF, mag.ONE).is_inf()
        assert mag.mul(mag.INF, mag.ZERO).is_zero()  # a zero bound wins
        assert mag.addmul(mag.ONE, mag.INF, mag.ZERO) == mag.ONE

    def test_soundness_and_tightness_random(self):
        rng = random.Random(42)
        for _ in range(3000):
            x, y, z = (rand_magnitude(rng) for _ in range(3))
            fx, fy, fz = F(x), F(y), F(z)
            s = mag.add(x, y)
            assert fx + fy <= F(s) <= (fx + fy) * TIGHT or (fx + fy) == 0
            p = mag.mul(x, y)
            assert fx * fy <= F(p) <= fx * fy * TIGHT or fx * fy == 0
            am = mag.addmul(z, x, y)
            exact = fz + fx * fy
            assert exact <= F(am) <= exact * TIGHT or exact == 0


def least(exact: Fraction):
    """The least magnitude >= a dyadic rational exact >= 0."""
    return mag.from_man_exp_upper(exact.numerator, 1 - exact.denominator.bit_length())


def exact_sum(terms) -> Fraction:
    return sum((Fraction(m) * Fraction(2) ** l for m, l in terms), Fraction(0))


class TestSumUpper:
    """sum_upper is the least magnitude >= the exact sum of its int terms."""

    def test_least_bound_of_random_sums(self):
        # 1-6 terms of 1-70 bits, exponents spread over 300 bits, some zero
        rng = random.Random(18)
        for _ in range(3000):
            terms = [(rng.getrandbits(rng.randrange(1, 71)) if rng.random() < 0.95 else 0,
                      rng.randrange(-150, 150)) for _ in range(rng.randrange(1, 7))]
            assert mag.sum_upper(terms) == least(exact_sum(terms)), terms

    def test_magnitude_plus_a_term(self):
        # x + man 2^lsb rounded up once, with either term far below the other
        rng = random.Random(17)
        for _ in range(2000):
            x = rand_magnitude(rng) if rng.random() < 0.9 else mag.ZERO
            man = rng.getrandbits(rng.choice((1, 5, 30, 31, 90))) | 1
            lsb = (x.exp if x.is_regular() else 0) + rng.randrange(-160, 100)
            got = mag.sum_upper([(x.man, x.exp - 30), (man, lsb)])
            assert got == least(F(x) + Fraction(man) * Fraction(2) ** lsb), (x, man, lsb)

    def test_short_sum_then_far_terms(self):
        # the sum so far has fewer than 30 bits, so its rounding point lies
        # below its last bit: a sticky bit just below that bit would be exact
        terms = [(414003, 33), (9, -26), (2995, -2)]
        assert mag.sum_upper(terms) == mag.from_man_exp_upper(414003 * 2 ** 20 + 1, 13)
        for order in (terms, terms[::-1], terms[1:] + terms[:1]):
            assert mag.sum_upper(order) == least(exact_sum(terms))

    def test_top_mantissa_carries(self):
        # 2^30 - 1 and any term below its last bit give the next power of two
        top = (1 << 30) - 1
        for lsb in (-1, -31, -100, -10 ** 5):
            assert mag.sum_upper([(top, 0), (1, lsb)]) == mag.pow2(30)
            assert mag.sum_upper([(1, lsb), (top, 0)]) == mag.pow2(30)
        assert mag.sum_upper([(top, 0), (1, -100), (1, -10 ** 4)]) == mag.pow2(30)

    def test_zero_terms(self):
        assert mag.sum_upper([]) == mag.ZERO
        assert mag.sum_upper([(0, 5), (0, -10 ** 6)]) == mag.ZERO
        assert mag.sum_upper([(0, 5), (3, 7), (0, -10 ** 6)]) == mag.from_int_upper(3 * 2 ** 7)

    def test_add_is_the_two_term_sum(self):
        rng = random.Random(19)
        for _ in range(3000):
            x, y = rand_magnitude(rng, 100), rand_magnitude(rng, 100)
            assert mag.add(x, y) == mag.sum_upper([(x.man, x.exp - 30), (y.man, y.exp - 30)]), (x, y)


class TestCarry:
    """One-ulp round-ups at the top mantissa 2^30 - 1 carry into the next binade."""

    TOP = (1 << 30) - 1

    @pytest.mark.parametrize("e", [-100, -1, 0, 1, 77])
    def test_far_term_bumps_give_the_next_power_of_two(self, e):
        z = mag.from_man_exp_upper(self.TOP, e - 30)  # just below 2^e
        tiny = mag.pow2(e - 100)
        assert mag.add(z, tiny) == mag.pow2(e)
        assert mag.add(tiny, z) == mag.pow2(e)
        assert mag.addmul(z, tiny, mag.pow2(-10)) == mag.pow2(e)
        # below the top mantissa the bump is exactly one ulp
        y = mag.from_man_exp_upper(self.TOP - 6, e - 30)
        assert F(mag.add(y, tiny)) == (self.TOP - 5) * Fraction(2) ** (e - 30)
        assert F(mag.addmul(y, tiny, tiny)) == (self.TOP - 5) * Fraction(2) ** (e - 30)

    @pytest.mark.parametrize("e", [-100, -1, 0, 1, 77])
    def test_from_bigfloat_upper_at_the_top_mantissa(self, e):
        x = BigFloat.from_man_exp(self.TOP, e - 30)
        assert F(mag.from_bigfloat_upper(x)) == x.to_fraction()  # fits: exact
        assert mag.from_bigfloat_upper(-x) == mag.from_bigfloat_upper(x)
        for bits in (31, 32, 90):  # 2^bits - 1 rounds up to exactly 2^bits
            y = BigFloat.from_man_exp(-((1 << bits) - 1), e - bits)
            assert mag.from_bigfloat_upper(y) == mag.pow2(e)


class TestDotUpper:
    """dot_upper is the least magnitude >= the exact sum of the products."""

    TOP = (1 << 30) - 1

    @staticmethod
    def check(pairs):
        exact = sum((F(x) * F(y) for x, y in pairs if not (x.is_zero() or y.is_zero())),
                    Fraction(0))
        # magnitudes are the 30-bit floats, so this is the least one >= exact
        assert F(mag.dot_upper(pairs)) == round_fraction_oracle(exact, 30, Rounding.UP)

    def test_one_pair_and_mul(self):
        rng = random.Random(21)
        for _ in range(500):
            x, y = rand_magnitude(rng), rand_magnitude(rng)
            self.check([(x, y)])
            assert F(mag.mul(x, y)) == round_fraction_oracle(F(x) * F(y), 30, Rounding.UP)

    def test_many_pairs(self):
        rng = random.Random(22)
        for n in (2, 3, 17, 500):
            self.check([(rand_magnitude(rng), rand_magnitude(rng)) for _ in range(n)])

    def test_zeros_and_infinities(self):
        x, y = mag.from_int_upper(3), mag.from_int_upper(5)
        assert mag.dot_upper([]).is_zero()
        assert mag.dot_upper([(mag.ZERO, x), (y, mag.ZERO)]).is_zero()
        # 0 * inf adds nothing; inf times anything else is inf
        assert mag.dot_upper([(mag.ZERO, mag.INF), (x, y), (mag.INF, mag.ZERO)]) == mag.mul(x, y)
        assert mag.dot_upper([(x, y), (mag.INF, x)]).is_inf()
        assert mag.dot_upper([(mag.INF, mag.INF)]).is_inf()

    @pytest.mark.parametrize("e", [-100, 0, 77])
    def test_top_mantissas_carry(self, e):
        t = mag.from_man_exp_upper(self.TOP, e - 30)  # just below 2^e
        tiny = mag.pow2(e - 200)
        for pairs in ([(t, t)], [(t, t), (t, t)], [(t, mag.ONE), (tiny, tiny)],
                      [(t, t)] * 7 + [(tiny, t)], [(t, mag.pow2(-k)) for k in range(40)]):
            self.check(pairs)
        # one ulp below the next binade, bumped by a far term: exactly 2^e
        assert mag.dot_upper([(t, mag.ONE), (tiny, mag.ONE)]) == mag.pow2(e)

    def test_terms_far_apart(self):
        rng = random.Random(23)
        near = [(rand_magnitude(rng, 30), rand_magnitude(rng, 30)) for _ in range(8)]
        big = (mag.from_man_exp_upper(self.TOP, 10 ** 4), mag.ONE)
        small = (mag.pow2(-10 ** 4), mag.from_man_exp_upper(self.TOP, -30))
        for pairs in ([big] + near, near + [big], near + [small], [small] + near,
                      [small, big], [big, small], [small] * 499 + near[:1],
                      [big] + [small] * 499, [small, big, small] + near):
            self.check(pairs)
            self.check(pairs[::-1])
        # 500 scattered terms, some 10^4 bits apart
        pairs = [(mag.from_man_exp_upper(rng.getrandbits(30) | 1 << 29,
                                         rng.choice((-10 ** 4, -60, 0, 60, 10 ** 4))
                                         + rng.randrange(-40, 40)),
                  rand_magnitude(rng, 30)) for _ in range(500)]
        self.check(pairs)

    def test_near_sum_just_below_a_grid_point(self):
        # The first three terms sum to 2^98 + 2^69 - 2^9, 2^9 below the 30-bit
        # grid point 2^98 + 2^69; the last term, far below the rounding point,
        # still lifts the exact sum above it.
        top = (1 << 30) - 1
        pairs = [(mag.ONE, mag.pow2(98)), (mag.from_man_exp_upper(top, 39), mag.ONE),
                 (mag.from_man_exp_upper(top, 9), mag.ONE), (mag.pow2(29), mag.ONE)]
        for order in (pairs, pairs[::-1], pairs[2:] + pairs[:2]):
            self.check(order)
        assert mag.dot_upper(pairs) == mag.from_man_exp_upper((1 << 29) + 2, 69)

    def test_small_terms_that_carry_only_together(self):
        # The first two pairs sum to 2^60 - 1, one unit below a grid point; each
        # of the last three is below half a unit, but together they pass it.
        top = (1 << 30) - 1
        half = (mag.from_man_exp_upper(top, -30), mag.from_man_exp_upper(top, -31))
        pairs = [(mag.from_man_exp_upper(top, 0), mag.from_man_exp_upper((1 << 29) + 1, 0)),
                 (mag.from_man_exp_upper(top, 29), mag.ONE)] + [half] * 3
        self.check(pairs)
        assert mag.dot_upper(pairs) == mag.from_man_exp_upper((1 << 29) + 1, 31)
        assert mag.dot_upper(pairs[:3]) == mag.pow2(60)

    def test_bigfloat_factors_and_int_terms(self):
        # a BigFloat factor counts with its absolute value; int terms m 2^l
        # join the same exact sum
        rng = random.Random(25)
        for _ in range(1000):
            x, b = rand_magnitude(rng), rand_bigfloat(rng, rng.choice((5, 64, 200)))
            terms = [(rng.getrandbits(rng.randrange(0, 70)), rng.randrange(-200, 100))
                     for _ in range(rng.randrange(0, 3))]
            exact = F(x) * abs(b.to_fraction()) + sum(Fraction(m) * Fraction(2) ** l for m, l in terms)
            assert F(mag.dot_upper([(x, b)], terms)) == round_fraction_oracle(exact, 30, Rounding.UP)
        assert mag.dot_upper([(bf.NAN, mag.ONE)]).is_inf()
        assert mag.dot_upper([(mag.ONE, bf.NEG_INF)], [(3, 0)]).is_inf()
        assert mag.dot_upper([(bf.NAN, mag.ZERO), (bf.ZERO, mag.INF)], [(3, 0)]) == mag.from_int_upper(3)

    def test_addmul_is_a_two_term_dot(self):
        rng = random.Random(24)
        for _ in range(500):
            x, y, z = (rand_magnitude(rng) for _ in range(3))
            assert mag.addmul(z, x, y) == mag.dot_upper([(z, mag.ONE), (x, y)])
            self.check([(z, mag.ONE), (x, y)])


class TestConversions:
    def test_exact_small_bigfloat(self):
        m = mag.from_bigfloat_upper(BigFloat.from_man_exp(3, -2))
        assert F(m) == Fraction(3, 4)

    def test_long_mantissa_upper(self):
        x = BigFloat.from_man_exp((1 << 100) + 1, -50)
        m = mag.from_bigfloat_upper(x)
        assert x.to_fraction() <= F(m) <= x.to_fraction() * TIGHT

    def test_infinities(self):
        assert mag.from_bigfloat_upper(bf.POS_INF).is_inf()
        assert mag.from_bigfloat_upper(bf.NEG_INF).is_inf()
        with pytest.raises(ValueError):
            mag.from_bigfloat_upper(bf.NAN)

    def test_to_bigfloat_exact(self):
        rng = random.Random(9)
        for _ in range(500):
            m = rand_magnitude(rng)
            if m.is_zero():
                assert mag.to_bigfloat(m).is_zero()
            else:
                assert mag.to_bigfloat(m).to_fraction() == F(m)


class TestDivLower:
    """div_upper over a BigFloat lower bound of a denominator, the way
    ball.div, ball.sqrt and elementary.log call it."""

    def test_simple(self):
        v = F(mag.div_upper(BigFloat.from_int(2), [(mag.ONE, mag.ONE)]))
        assert Fraction(1, 2) <= v <= Fraction(1, 2) * TIGHT

    def test_zero_numerator(self):
        assert mag.div_upper(BigFloat.from_int(5), [(mag.ZERO, mag.ONE)]).is_zero()

    def test_zero_denominator_rejected(self):
        for den in (bf.ZERO, BigFloat.from_int(-1), bf.NAN, bf.NEG_INF, (0, 3), (-1, 0)):
            with pytest.raises(ValueError):
                mag.div_upper(den, [(mag.ONE, mag.ONE)])

    def test_soundness_random(self):
        rng = random.Random(4)
        for _ in range(2000):
            x = rand_magnitude(rng)
            lo = BigFloat.from_man_exp(rng.randrange(1, 1 << 70), rng.randrange(-40, 40))
            got = mag.div_upper(lo, [(x, mag.ONE)])
            assert F(got) >= F(x) / lo.to_fraction()


def below(m):
    """The magnitude one ulp below a regular m, as a Fraction."""
    ulp = Fraction(2) ** (m.exp - 30 - (m.man == 1 << 29))
    return F(m) - ulp


class TestDivUpper:
    """div_upper is the least magnitude >= the exact quotient: the result is
    at or above it, and the magnitude one ulp below is under it."""

    def assert_least(self, got, exact):
        assert got.is_regular() and F(got) >= exact > below(got), (got, exact)

    def test_least_bound_of_random_quotients(self):
        # numerators of 1-4 terms and denominators of 1-200 bits, some of
        # them 2^32 and more, given as an int pair or as a BigFloat
        rng = random.Random(23)
        for i in range(3000):
            terms = [(rng.getrandbits(rng.randrange(1, 201)) | 1, rng.randrange(-120, 120))
                     for _ in range(rng.randrange(1, 5))]
            d, e = rng.getrandbits(rng.randrange(1, 201)) | 1, rng.randrange(-90, 90)
            den = (d, e) if i % 2 else BigFloat.from_man_exp(d, e)
            got = mag.div_upper(den, terms=terms)
            self.assert_least(got, exact_sum(terms) / (d * Fraction(2) ** e))

    def test_pairs_and_terms_sum_exactly(self):
        rng = random.Random(24)
        for _ in range(1000):
            x, y = rand_magnitude(rng, 100), rand_bigfloat(rng, 150, 100)
            term = (rng.getrandbits(rng.randrange(1, 90)), rng.randrange(-300, 100))
            d = rng.getrandbits(rng.randrange(1, 201)) | 1
            got = mag.div_upper((d, -7), [(x, y), (y, mag.ONE)], [term])
            exact = F(x) * abs(F(y)) + abs(F(y)) + exact_sum([term])
            if exact:
                self.assert_least(got, exact / d * 2 ** 7)
            else:
                assert got.is_zero()

    def test_divisors_of_2_to_the_32_and_more(self):
        for n in (2 ** 32 + 1, 3 ** 21, 3 ** 40, 10 ** 30 + 7, (1 << 200) - 1):
            for num in (1, 3, 10 ** 9 + 7, (1 << 30) - 1, 1 << 100):
                self.assert_least(mag.div_upper((n, 0), terms=[(num, 0)]), Fraction(num, n))

    def test_far_apart_terms(self):
        # terms far below the head reach the quotient only as a sticky bit
        for lsb in (-100, -10 ** 4):
            for d in (3, 2 ** 40 + 1, 3 ** 100):
                terms = [((1 << 30) - 1, 0), (1, lsb)]
                self.assert_least(mag.div_upper((d, 0), terms=terms),
                                  exact_sum(terms) / d)
                self.assert_least(mag.div_upper((d, 0), terms=terms[::-1]),
                                  exact_sum(terms) / d)

    def test_infinities(self):
        assert mag.div_upper(BigFloat.from_int(3), [(mag.INF, mag.ONE)]).is_inf()
        assert mag.div_upper(bf.POS_INF, [(mag.INF, mag.ONE)]).is_inf()
        assert mag.div_upper(bf.POS_INF, [(mag.ONE, mag.ONE)]).is_zero()
        assert mag.div_upper((3, 0), [(mag.ZERO, mag.INF)]).is_zero()


class TestCompare:
    def test_examples(self):
        assert mag.compare(mag.ZERO, mag.ONE) == -1
        assert mag.compare(mag.INF, mag.ONE) == 1
        assert mag.compare(mag.from_man_exp_upper(3, -30), mag.from_man_exp_upper(3, -30)) == 0

    def test_total_order_random(self):
        rng = random.Random(77)
        for _ in range(1000):
            x, y = rand_magnitude(rng), rand_magnitude(rng)
            c = mag.compare(x, y)
            fx, fy = F(x), F(y)
            assert c == (0 if fx == fy else (1 if fx > fy else -1))


class TestHelpers:
    def test_pow2(self):
        assert F(mag.pow2(-7)) == Fraction(1, 128)
        assert F(mag.pow2(31)) == 2 ** 31

    def test_mul_div_int(self):
        x = mag.from_int_upper(10)
        assert 30 <= F(mag.mul_int_upper(x, 3)) <= 30 * TIGHT
        assert Fraction(10, 3) <= F(mag.div_upper((3, 0), [(x, mag.ONE)])) <= Fraction(10, 3) * TIGHT
        assert mag.mul_int_upper(x, 0).is_zero()

    def test_min_max(self):
        a, b = mag.from_int_upper(2), mag.from_int_upper(5)
        assert mag.min_(a, b) == a

    def test_text_round_trip(self):
        rng = random.Random(3)
        for _ in range(200):
            m = rand_magnitude(rng)
            assert mag.Magnitude.from_text(m.to_text()) == m
        assert mag.Magnitude.from_text("0").is_zero()
        assert mag.Magnitude.from_text("inf").is_inf()


@given(st.integers(min_value=0, max_value=2 ** 90),
       st.integers(min_value=-90, max_value=90))
@settings(max_examples=300, deadline=None)
def test_from_man_exp_upper_sound(man, e):
    m = mag.from_man_exp_upper(man, e)
    exact = Fraction(man) * Fraction(2) ** e
    if man == 0:
        assert m.is_zero()
    else:
        assert exact <= F(m) <= exact * TIGHT
