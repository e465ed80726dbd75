import random
import threading
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_MODES, round_fraction_oracle
from midrad import bigfloat as bf
from midrad import magnitude as mag
from midrad.bigfloat import NAN, NEG_INF, ONE, POS_INF, ZERO, BigFloat, Rounding

NE = Rounding.NEAREST_EVEN


def F(x):
    return x.to_fraction()


class TestRound:
    def test_five_to_two_bits_ties_even(self):
        r, inexact = bf.round_to(BigFloat.from_int(5), 2, NE)
        assert F(r) == 4 and inexact

    def test_representable_is_exact(self):
        r, inexact = bf.round_to(BigFloat.from_int(3), 10, Rounding.DOWN)
        assert F(r) == 3 and not inexact

    def test_special_passthrough(self):
        r, inexact = bf.round_to(NAN, 53, Rounding.UP)
        assert r.is_nan() and not inexact
        r, inexact = bf.round_to(POS_INF, 2, Rounding.DOWN)
        assert r is POS_INF and not inexact

    @pytest.mark.parametrize("rnd", ALL_MODES)
    def test_against_rational_oracle(self, rnd):
        rng = random.Random(int(rnd) + 17)
        for _ in range(600):
            x = BigFloat.from_man_exp(rng.randrange(1, 1 << 40) * (1 if rng.random() < 0.5 else -1),
                                      rng.randrange(-30, 30))
            prec = rng.randrange(2, 17)
            got, inexact = bf.round_to(x, prec, rnd)
            want = round_fraction_oracle(F(x), prec, rnd)
            assert F(got) == want
            assert inexact == (want != F(x))

    def test_monotonicity(self):
        rng = random.Random(5)
        for _ in range(300):
            x = BigFloat.from_man_exp(rng.randrange(1, 1 << 50), rng.randrange(-40, 40))
            prec = rng.randrange(2, 20)
            lo, el = bf.round_to(x, prec, Rounding.DOWN)
            hi, eh = bf.round_to(x, prec, Rounding.UP)
            assert F(lo) <= F(x) <= F(hi)
            assert (F(lo) == F(x)) == (not el)
            assert (F(hi) == F(x)) == (not eh)


class TestAdd:
    def test_small_exact(self):
        r, inexact = bf.add(BigFloat.from_int(1), BigFloat.from_int(2), 53, NE)
        assert F(r) == 3 and not inexact

    def test_absorbed_term(self):
        big = BigFloat.from_man_exp(1, 100)
        r, inexact = bf.add(big, ONE, 53, NE)
        want = round_fraction_oracle(Fraction(2 ** 100 + 1), 53, NE)
        assert F(r) == want == 2 ** 100 and inexact

    def test_exact_cancellation(self):
        r, inexact = bf.add(BigFloat.from_man_exp(1, 100), BigFloat.from_man_exp(-1, 100),
                            2, Rounding.DOWN)
        assert r.is_zero() and not inexact

    def test_inf_minus_inf(self):
        r, _ = bf.add(POS_INF, NEG_INF, 53, NE)
        assert r.is_nan()

    @pytest.mark.parametrize("rnd", ALL_MODES)
    def test_far_apart_matches_oracle(self, rnd):
        rng = random.Random(int(rnd) + 99)
        for _ in range(300):
            a = BigFloat.from_man_exp(rng.randrange(1, 1 << 30) * rng.choice([1, -1]),
                                      rng.randrange(-20, 20))
            b = BigFloat.from_man_exp(rng.randrange(1, 1 << 30) * rng.choice([1, -1]),
                                      rng.randrange(-2000, 2000))
            prec = rng.randrange(2, 40)
            got, inexact = bf.add(a, b, prec, rnd)
            exact = F(a) + F(b)
            want = round_fraction_oracle(exact, prec, rnd)
            assert F(got) == want
            assert inexact == (want != exact)


class TestMulDivSqrt:
    def test_mul_exact_small(self):
        r, inexact = bf.mul(BigFloat.from_int(3), BigFloat.from_int(5), 53, NE)
        assert F(r) == 15 and not inexact

    def test_div_third_up(self):
        r, inexact = bf.div(ONE, BigFloat.from_int(3), 4, Rounding.UP)
        assert F(r) == Fraction(11, 32) and inexact
        assert F(r) == round_fraction_oracle(Fraction(1, 3), 4, Rounding.UP)

    def test_sqrt_negative_is_nan(self):
        r, inexact = bf.sqrt(BigFloat.from_int(-1), 53, NE)
        assert r.is_nan() and not inexact

    def test_div_by_zero_is_nan(self):
        assert bf.div(ONE, ZERO, 53, NE)[0].is_nan()
        assert bf.div(ZERO, ZERO, 53, NE)[0].is_nan()

    def test_infinite_quotients(self):
        assert bf.div(ONE, POS_INF, 53, NE)[0].is_zero()
        assert bf.div(NEG_INF, BigFloat.from_int(2), 53, NE)[0] is NEG_INF
        assert bf.div(POS_INF, NEG_INF, 53, NE)[0].is_nan()

    def test_zero_times_inf_is_nan(self):
        assert bf.mul(ZERO, POS_INF, 53, NE)[0].is_nan()

    @pytest.mark.parametrize("rnd", ALL_MODES)
    def test_div_oracle(self, rnd):
        rng = random.Random(int(rnd))
        for _ in range(300):
            a = BigFloat.from_man_exp(rng.randrange(1, 1 << 40) * rng.choice([1, -1]),
                                      rng.randrange(-30, 30))
            b = BigFloat.from_man_exp(rng.randrange(1, 1 << 40) * rng.choice([1, -1]),
                                      rng.randrange(-30, 30))
            prec = rng.randrange(2, 30)
            got, inexact = bf.div(a, b, prec, rnd)
            exact = F(a) / F(b)
            assert F(got) == round_fraction_oracle(exact, prec, rnd)
            assert inexact == (F(got) != exact)

    @pytest.mark.parametrize("rnd", ALL_MODES)
    def test_sqrt_oracle(self, rnd):
        rng = random.Random(int(rnd) + 1)
        for _ in range(200):
            a = BigFloat.from_man_exp(rng.randrange(1, 1 << 40), rng.randrange(-30, 30))
            prec = rng.randrange(2, 30)
            got, inexact = bf.sqrt(a, prec, rnd)
            # exact square root may be irrational: verify via the squared bracket
            g = F(got)
            ulp = Fraction(2) ** (got.exp - prec)
            if rnd == Rounding.DOWN or rnd == Rounding.TOWARD_ZERO:
                assert g * g <= F(a) and (g + ulp) ** 2 > F(a)
            elif rnd in (Rounding.UP, Rounding.AWAY_FROM_ZERO):
                assert g * g >= F(a) and (g - ulp) ** 2 < F(a)
            else:
                assert abs(g * g - F(a)) <= ((g + ulp / 2) ** 2 - g * g)
            assert inexact == (g * g != F(a))


class TestVectorSum:
    def test_telescoping(self):
        xs = [BigFloat.from_man_exp(1, 200), ONE, BigFloat.from_man_exp(-1, 200)]
        r, inexact = bf.vector_sum(xs, 53, NE)
        assert F(r) == 1 and not inexact

    def test_empty(self):
        r, inexact = bf.vector_sum([], 53, NE)
        assert r.is_zero() and not inexact

    def test_tiny_tail_rounds(self):
        xs = [ONE, BigFloat.from_man_exp(1, -200), BigFloat.from_man_exp(1, -201)]
        r, inexact = bf.vector_sum(xs, 53, NE)
        want = round_fraction_oracle(1 + Fraction(1, 2 ** 200) + Fraction(1, 2 ** 201), 53, NE)
        assert F(r) == want == 1 and inexact

    def test_mixed_infinities(self):
        assert bf.vector_sum([POS_INF, NEG_INF], 53, NE)[0].is_nan()
        assert bf.vector_sum([POS_INF, ONE], 53, NE)[0] is POS_INF
        assert bf.vector_sum([NAN, ONE], 53, NE)[0].is_nan()

    @pytest.mark.parametrize("rnd", ALL_MODES)
    def test_oracle_random(self, rnd):
        rng = random.Random(int(rnd) + 7)
        for _ in range(200):
            xs = [BigFloat.from_man_exp(rng.randrange(1, 1 << 20) * rng.choice([1, -1]),
                                        rng.randrange(-300, 300))
                  for _ in range(rng.randrange(1, 9))]
            prec = rng.randrange(2, 40)
            got, inexact = bf.vector_sum(xs, prec, rnd)
            exact = sum((F(x) for x in xs), Fraction(0))
            if exact == 0:
                assert got.is_zero() and not inexact
            else:
                assert F(got) == round_fraction_oracle(exact, prec, rnd)
                assert inexact == (F(got) != exact)

    def test_huge_exponent_gaps(self):
        # far beyond anything that could be materialized bit by bit
        xs = [BigFloat.from_man_exp(1, 2 ** 80), BigFloat.from_man_exp(-1, 2 ** 80),
              BigFloat.from_int(7)]
        r, inexact = bf.vector_sum(xs, 53, NE)
        assert F(r) == 7 and not inexact
        xs = [BigFloat.from_man_exp(3, 2 ** 80), BigFloat.from_man_exp(1, -(2 ** 80))]
        r, inexact = bf.vector_sum(xs, 8, Rounding.UP)
        assert inexact and r.exp == 2 ** 80 + 2


    @pytest.mark.parametrize("rnd", ALL_MODES)
    def test_many_far_apart_terms(self, rnd):
        # each term lies 100 bits below the previous one; the tail's sign
        # decides the rounding, and 1500 terms once exhausted the recursion
        for n in (3, 1500):
            xs = [BigFloat.from_man_exp(3 * (-1) ** (k // 3), -100 * k) for k in range(n)]
            got, inexact = bf.vector_sum(xs, 53, rnd)
            exact = sum((F(x) for x in xs), Fraction(0))
            assert F(got) == round_fraction_oracle(exact, 53, rnd) and inexact

def _kernel_term_lists(rng):
    """Signed (m, l) int term lists, in the given order, for each way through
    bigfloat._exact_sum: in-order exact sums; a term far above; far-below
    terms of both signs; cancellation to 0 followed by far terms; and a tiny
    head left by cancellation, with far tails."""
    def term(bits, l):
        return rng.choice((1, -1)) * (rng.getrandbits(bits) | 1), l

    def tails(top, k):
        return [term(rng.randrange(1, 80), top - rng.randrange(70, 3000)) for _ in range(k)]

    l = rng.randrange(-200, 200)
    near = [term(rng.randrange(1, 120), l + rng.randrange(-60, 60)) for _ in range(rng.randrange(1, 8))]
    yield near
    yield near + [term(rng.randrange(1, 60), l + rng.randrange(200, 3000))]
    yield near + tails(l, rng.randrange(1, 6))
    yield tails(l, rng.randrange(2, 6)) + near
    x = term(rng.randrange(1, 200), l)
    yield [x, (-x[0], l)] + tails(l, rng.randrange(2, 6))
    yield tails(l, 2) + [x] + tails(l, 2) + [(-x[0], l)]
    k = l - rng.randrange(1, 300)
    y = ((-x[0] << (l - k)) + rng.choice((1, -1)), k)  # x + y = +-2^k
    yield [x, y] + tails(k, rng.randrange(1, 6))
    yield tails(k, 3) + [y, x]


class TestExactSumKernel:
    """bigfloat._exact_sum, through vector_sum and magnitude.sum_upper,
    against a Fraction oracle."""

    @pytest.mark.parametrize("rnd", ALL_MODES)
    def test_every_branch_against_fractions(self, rnd, monkeypatch):
        seen = {"calls": 0, "sorted": 0, "cut": 0, "up": 0, "down": 0}
        kernel, head_sum = bf._exact_sum, bf._head_sum

        def spy_kernel(terms, prec):
            seen["calls"] += 1
            return kernel(terms, prec)

        def spy_head_sum(terms, i, prec):
            r = head_sum(terms, i, prec)
            if i == 0:
                seen["sorted"] += 1
                seen["cut"] += r[2] < len(terms)
            else:  # the sign of the far terms' nudge
                seen["up" if r[0] > 0 else "down"] += 1
            return r

        monkeypatch.setattr(bf, "_exact_sum", spy_kernel)
        monkeypatch.setattr(bf, "_head_sum", spy_head_sum)
        rng = random.Random(int(rnd) + 1611)
        for _ in range(60):
            for terms in _kernel_term_lists(rng):
                prec = rng.randrange(2, 301)
                exact = sum((Fraction(m) * Fraction(2) ** l for m, l in terms), Fraction(0))
                got, inexact = bf.vector_sum([BigFloat.from_man_exp(m, l) for m, l in terms],
                                             prec, rnd)
                if exact == 0:
                    assert got.is_zero() and not inexact, terms
                else:
                    assert F(got) == round_fraction_oracle(exact, prec, rnd), (terms, prec)
                    assert inexact == (F(got) != exact)
                up = [(abs(m), l) for m, l in terms]
                total = sum((Fraction(m) * Fraction(2) ** l for m, l in up), Fraction(0))
                assert mag.sum_upper(up) == mag.from_man_exp_upper(
                    total.numerator, 1 - total.denominator.bit_length()), up
        assert seen["sorted"] < seen["calls"]  # some sums finish in order
        assert min(seen["cut"], seen["up"], seen["down"]) > 0, seen

    def test_ten_thousand_far_apart_terms(self):
        # 10^4 terms 100 bits apart, in both orders: one sort, no recursion
        terms = [(3 * (-1) ** (k // 3), -100 * k) for k in range(10 ** 4)]
        exact = Fraction(sum(m << (100 * 10 ** 4 + l) for m, l in terms), 2 ** (100 * 10 ** 4))
        for order in (terms, terms[::-1]):
            for rnd in ALL_MODES:
                got, inexact = bf.vector_sum([BigFloat.from_man_exp(m, l) for m, l in order], 53, rnd)
                assert F(got) == round_fraction_oracle(exact, 53, rnd) and inexact
            got = mag.sum_upper([(abs(m), l) for m, l in order])
            assert got == mag.from_man_exp_upper(3 * 2 ** 28 + 1, -28)


class TestCompare:
    def test_exact_across_lengths(self):
        a = BigFloat.from_man_exp(1, 100)
        b = BigFloat.from_man_exp(2 ** 100 + 1, 0)
        assert bf.compare(a, b) == -1

    def test_infinities(self):
        assert bf.compare(NEG_INF, BigFloat.from_int(-10 ** 50)) == -1
        assert bf.compare(POS_INF, POS_INF) == 0

    def test_mixed_exponents(self):
        assert bf.compare(BigFloat.from_man_exp(1, 4), BigFloat.from_man_exp(3, 2)) == 1  # 16 > 12

    def test_nan_unordered(self):
        with pytest.raises(ValueError):
            bf.compare(NAN, ONE)

    def test_compare_abs(self):
        assert bf.compare_abs(BigFloat.from_int(-7), BigFloat.from_int(5)) == 1


class TestInvariants:
    def test_normalization(self):
        rng = random.Random(23)
        for _ in range(500):
            a = BigFloat.from_man_exp(rng.randrange(1, 1 << 40) * rng.choice([1, -1]),
                                      rng.randrange(-40, 40))
            b = BigFloat.from_man_exp(rng.randrange(1, 1 << 40), rng.randrange(-40, 40))
            for r, _ in (bf.add(a, b, 12, NE), bf.mul(a, b, 12, NE), bf.div(a, b, 12, NE)):
                if r.is_regular():
                    assert r.man & 1, "least significant bit must be set"
                    assert Fraction(2) ** (r.exp - 1) <= abs(F(r)) < Fraction(2) ** r.exp

    def test_no_negative_zero(self):
        r, _ = bf.add(BigFloat.from_int(-1), BigFloat.from_int(1), 53, NE)
        assert r is ZERO or (r.is_zero() and r.kind == ZERO.kind)

    def test_statelessness_under_threads(self):
        a = BigFloat.from_man_exp(12345671, -13)
        b = BigFloat.from_man_exp(-9876543211, 7)
        expected = bf.add(a, b, 24, Rounding.DOWN)
        results = []

        def worker():
            for _ in range(300):
                results.append(bf.add(a, b, 24, Rounding.DOWN))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == expected for r in results)


class TestTextAndConversion:
    @pytest.mark.parametrize("s", ["0", "inf", "-inf", "nan", "3*2^0", "-885*2^-48",
                                   "1*2^100000000000"])
    def test_round_trip(self, s):
        assert BigFloat.from_text(s).to_text() == s

    def test_text_is_canonical(self):
        assert BigFloat.from_man_exp(12, -2).to_text() == "3*2^0"

    def test_from_text_rejects_junk(self):
        with pytest.raises(ValueError):
            BigFloat.from_text("3.5")

    def test_to_int_nearest(self):
        assert bf.to_int_nearest(BigFloat.from_man_exp(5, -1)) == 2  # 2.5 ties to even
        assert bf.to_int_nearest(BigFloat.from_man_exp(7, -1)) == 4  # 3.5 ties to even
        assert bf.to_int_nearest(BigFloat.from_int(-3)) == -3

    def test_to_float(self):
        assert BigFloat.from_man_exp(3, -1).to_float() == 1.5
        assert BigFloat.from_man_exp(1, 20000).to_float() == float("inf")


@given(st.integers(min_value=-2 ** 80, max_value=2 ** 80).filter(lambda n: n != 0),
       st.integers(min_value=-80, max_value=80),
       st.integers(min_value=2, max_value=24),
       st.sampled_from(ALL_MODES))
@settings(max_examples=300, deadline=None)
def test_round_matches_oracle_hypothesis(man, e, prec, rnd):
    x = BigFloat.from_man_exp(man, e)
    got, inexact = bf.round_to(x, prec, rnd)
    want = round_fraction_oracle(x.to_fraction(), prec, rnd)
    assert got.to_fraction() == want
    assert inexact == (want != x.to_fraction())


def test_round_int_against_the_fraction_oracle():
    # the int rounding behind ball.can_round and the elementary kernel:
    # ties both ways, a carry to 2^prec, exact values and both signs
    rng = random.Random(77)
    for _ in range(400):
        prec = rng.randrange(2, 70)
        kind = rng.randrange(4)
        if kind == 0:  # halfway between two prec-bit neighbours
            man = (2 * (rng.getrandbits(prec) | 1 << (prec - 1)) + 1) << rng.randrange(0, 20)
        elif kind == 1:  # all ones: every mode but the ones toward 0 carries
            man = (1 << rng.randrange(prec + 1, prec + 30)) - 1
        elif kind == 2:  # fits: exact
            man = rng.getrandbits(prec) | 1
        else:
            man = rng.getrandbits(rng.randrange(prec + 1, 200)) | 1
        for sign in (1, -1):
            for rnd in ALL_MODES:
                got = bf._round_int(sign, man, prec, rnd)
                assert sign * got == round_fraction_oracle(Fraction(sign * man), prec, rnd)


def test_round_from_is_round_int():
    # _round_from is _round_int on the mantissa (after folding in a sticky
    # tail as a low guard bit), inexact exactly when the int changed
    rng = random.Random(24)
    for _ in range(300):
        prec = rng.randrange(2, 70)
        man = rng.getrandbits(rng.randrange(1, prec + 40)) | 1
        lsb = rng.randrange(-100, 100)
        for sign in (1, -1):
            for rnd in ALL_MODES:
                got, inexact = bf._round_from(sign, man, lsb, prec, rnd)
                q = bf._round_int(sign, man, prec, rnd)
                assert F(got) == sign * Fraction(q) * Fraction(2) ** lsb
                assert inexact == (q != man)
                # a tail below 2^lsb rounds as one unit far below it
                got, inexact = bf._round_from(sign, man, lsb, prec, rnd, sticky=1)
                g = prec + 2
                q = bf._round_int(sign, (man << g) + 1, prec, rnd)
                assert F(got) == sign * Fraction(q) * Fraction(2) ** (lsb - g)
                assert inexact


def test_to_int_nearest_below_one_half_builds_nothing():
    x = BigFloat.from_man_exp(3, -10 ** 7)
    tracemalloc.start()
    try:
        got = bf.to_int_nearest(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == 0 and peak < 64 * 1024


def test_to_int_nearest_against_the_fraction_oracle():
    # round() of a Fraction rounds half to even
    rng = random.Random(1611)
    for _ in range(600):
        bits = rng.randrange(1, 100)
        man = rng.getrandbits(bits) | 1 | 1 << (bits - 1)
        e = rng.randrange(-3, 71)  # the binade: 2^(e-1) <= |x| < 2^e
        for sign in (1, -1):
            x = BigFloat.from_man_exp(sign * man, e - bits)
            assert bf.to_int_nearest(x) == round(F(x)), x
    for q, want in ((Fraction(1, 2), 0), (Fraction(-1, 2), 0), (Fraction(3, 2), 2),
                    (Fraction(-5, 2), -2)):
        x = BigFloat.from_man_exp(q.numerator, -1)
        assert bf.to_int_nearest(x) == want == round(q)
