import random
from fractions import Fraction

import mpmath
import pytest

from conftest import (ALL_MODES, ball_bounds, contains_fraction, mpf_fraction, rand_ball,
                      round_fraction_oracle, sample_in_ball)
from midrad import ball, bigfloat as bf, elementary as el, magnitude as mag
from midrad.ball import Ball
from midrad.bigfloat import BigFloat, Rounding

TIGHT26 = 1 + Fraction(1, 2 ** 26)


def B(m, r=None):
    mid = BigFloat.from_int(m) if isinstance(m, int) else m
    if r is None:
        return Ball(mid)
    return Ball(mid, r)


def least_radius(b: Ball, pairs, prec: int):
    """The least magnitude >= the exact radius of a rounded sum of products:
    sum |x| ry + |y| rx + rx ry over the (x, y) pairs, plus half an ulp of
    b.mid at prec bits when b.mid is not the exact sum."""
    F = Fraction
    err = sum((abs(x.mid.to_fraction()) * y.rad.to_fraction()
               + abs(y.mid.to_fraction()) * x.rad.to_fraction()
               + x.rad.to_fraction() * y.rad.to_fraction() for x, y in pairs), F(0))
    if b.mid.to_fraction() != sum((x.mid.to_fraction() * y.mid.to_fraction() for x, y in pairs), F(0)):
        err += F(2) ** (b.mid.exp - prec - 1)
    q = round_fraction_oracle(err, 30, Rounding.UP)
    return mag.from_man_exp_upper(q.numerator, 1 - q.denominator.bit_length())


def spread_ball(rng) -> Ball:
    """A ball of up to 100 midpoint bits whose radius lies anywhere from 2^-200
    to 2^20 times it; sometimes a zero midpoint or radius."""
    mid = BigFloat.from_man_exp(rng.getrandbits(rng.randrange(1, 101)) * rng.choice((1, -1)),
                                rng.randrange(-60, 60)) if rng.random() < 0.9 else bf.ZERO
    e = (mid.exp if mid.is_regular() else 0) + rng.randrange(-200, 20)
    rad = mag.from_man_exp_upper(rng.getrandbits(30), e - 30) if rng.random() < 0.85 else mag.ZERO
    return Ball(mid, rad)


class TestLeastRadius:
    """Every radius is the exact propagated error plus the midpoint's half
    ulp, rounded up once to 30 bits: the least magnitude that bounds it."""

    def test_add_sub_mul_fma(self):
        rng = random.Random(44)
        one, neg = ball.ONE, B(-1)
        for _ in range(1500):
            x, y, z = spread_ball(rng), spread_ball(rng), spread_ball(rng)
            prec = rng.choice((2, 10, 53, 64, 200))
            assert ball.add(x, y, prec).rad == least_radius(ball.add(x, y, prec), [(x, one), (y, one)], prec)
            d = ball.sub(x, y, prec)
            assert d.rad == least_radius(d, [(x, one), (y, neg)], prec)
            p = ball.mul(x, y, prec)
            assert p.rad == least_radius(p, [(x, y)], prec)
            f = ball.fma(z, x, y, prec)
            assert f.rad == least_radius(f, [(x, y), (z, one)], prec)

    def test_dot(self):
        rng = random.Random(45)
        for _ in range(400):
            n = rng.randrange(1, 10)
            xs, ys = [spread_ball(rng) for _ in range(n)], [spread_ball(rng) for _ in range(n)]
            prec = rng.choice((2, 53, 128))
            d = ball.dot(xs, ys, prec)
            assert d.rad == least_radius(d, list(zip(xs, ys)), prec)

    def test_schoolbook_complex_product(self):
        from midrad import ballpoly as bp
        rng = random.Random(46)
        for _ in range(40):
            fr, fi, gr, gi = (bp.BallPoly([spread_ball(rng) for _ in range(rng.randrange(1, 7))])
                              for _ in range(4))
            prec = rng.choice((20, 53, 128))
            hr, hi = bp.mul_complex(fr, fi, gr, gi, prec)
            neg_gi = [ball.neg(c) for c in gi]
            for h, (a, b), (c, d) in ((hr, (fr, fi), (gr, neg_gi)), (hi, (fr, fi), (gi, gr))):
                for k, coef in enumerate(h):
                    pairs = [(p[i], q[k - i]) for p, q in ((a, c), (b, d))
                             for i in range(len(p)) if 0 <= k - i < len(q)]
                    assert coef.rad == least_radius(coef, pairs, prec), k


class TestRounded:
    def test_nan_midpoint_is_indeterminate(self):
        assert ball.rounded((bf.NAN, False), [(mag.ONE, mag.ONE)], 53) == ball.indeterminate()
        assert ball.rounded((bf.NAN, True), [], 53) == ball.indeterminate()
        assert ball.rounded((bf.NAN, True), [(mag.INF, mag.ONE)], 53) == ball.indeterminate()

    def test_exact_midpoint_keeps_the_radius(self):
        m = BigFloat.from_man_exp(3, -1)
        r = mag.from_man_exp_upper(5, -70)
        assert ball.rounded((m, False), [(r, mag.ONE)], 53) == Ball(m, r)
        assert ball.rounded((m, False), [], 2) == Ball(m)
        # a zero factor adds nothing, even beside an infinite one
        assert ball.rounded((m, False), [(mag.ZERO, mag.INF), (bf.ZERO, r)], 2) == Ball(m)
        assert ball.rounded((m, True), [(mag.INF, mag.ONE)], 2) == Ball(m, mag.INF)
        assert ball.rounded((m, True), [(bf.POS_INF, r)], 2) == Ball(m, mag.INF)

    def test_radius_is_the_exact_sum_rounded_up_once(self):
        m = BigFloat.from_man_exp(3, -1)
        terms = [(1, 0), (1, -100), (3, -29)]
        pairs = [(BigFloat.from_man_exp(-3, -29), mag.ONE), (mag.pow2(-100), mag.ONE)]
        want = mag.from_man_exp_upper((1 << 29) + 4, -29)
        assert ball.rounded((m, False), [], 53, terms=terms).rad == want
        assert ball.rounded((m, False), pairs, 53, terms=terms[:1]).rad == want
        # with the half ulp 2^-54 as one more term, still a single rounding
        assert ball.rounded((m, True), [(mag.ONE, mag.ONE)], 53).rad == mag.from_man_exp_upper(1 << 29 | 1, -29)
        # an exact value rounded on ints adds its actual error 2^-100 instead
        b = ball._round_exact((3 << 99) + 1, -100, [(mag.ONE, mag.ONE)], 53)
        assert b == Ball(m, mag.from_man_exp_upper(1 << 29 | 1, -29))

    def test_inexact_midpoint_adds_half_an_ulp(self):
        for prec in (2, 53, 300):
            m, inexact = bf.div(BigFloat.from_int(1), BigFloat.from_int(3), prec, Rounding.NEAREST_EVEN)
            assert inexact
            b = ball.rounded((m, inexact), [], prec)
            # 1/3 lies in [1/4, 1/2), where one ulp of a prec-bit float is 2^(-1-prec)
            assert b.mid == m and b.rad.to_fraction() == Fraction(1, 2 ** (prec + 2))
            assert contains_fraction(b, Fraction(1, 3))
            r = mag.from_man_exp_upper(7, -prec - 9)
            # one magnitude plus the exact half ulp: one rounding either way
            assert ball.rounded((m, True), [(r, mag.ONE)], prec).rad == mag.add(r, b.rad)

    def test_ties_stay_contained(self):
        # 1 + k 2^-prec for odd k lies halfway between two prec-bit floats, as
        # far from the rounded midpoint as rounding to nearest goes: half an ulp
        for prec in (3, 53, 300):
            for k in (1, 3):
                x = 1 + Fraction(k, 2 ** prec)
                for sign in (1, -1):
                    b = ball.add(B(sign), B(BigFloat.from_man_exp(sign * k, -prec)), prec)
                    assert b.mid.to_fraction() != sign * x
                    assert abs(b.mid.to_fraction() - sign * x) == b.rad.to_fraction()
                    assert contains_fraction(b, sign * x), (prec, k, sign)


class TestRoundTo:
    def test_radius_is_the_least_bound_of_the_exact_sum(self):
        # the old radius plus |mid - rounded mid|, rounded up once to 30 bits;
        # rounding the distance up before adding it can come out one unit above
        rng = random.Random(41)
        for _ in range(600):
            w = rng.choice((85, 1064))
            mid = BigFloat.from_man_exp(rng.getrandbits(w) | 1 << (w - 1), -rng.randrange(w - 5, w + 5))
            rad = mag.from_man_exp_upper(rng.getrandbits(30), -w - rng.randrange(10, 200))
            x = Ball(mid, rad if rng.random() < 0.9 else mag.ZERO)
            prec = w - 32
            r = ball.round_to(x, prec)
            assert r.mid == bf.round_to(x.mid, prec, Rounding.NEAREST_EVEN)[0]
            exact = abs(x.mid.to_fraction() - r.mid.to_fraction()) + x.rad.to_fraction()
            least = mag.from_man_exp_upper(exact.numerator, 1 - exact.denominator.bit_length())
            assert r.rad == least, (x, prec)

    def test_specials_and_exact_midpoints_keep_the_radius(self):
        for x in (Ball(bf.POS_INF, mag.ONE), ball.indeterminate(), B(3, mag.ONE)):
            assert ball.round_to(x, 53) == x


class TestAdd:
    def test_exact(self):
        s = ball.add(B(1), B(2), 53)
        assert s.mid.to_fraction() == 3 and s.is_exact()

    def test_radii_add(self):
        q = Ball(BigFloat.from_int(1), mag.pow2(-2))
        s = ball.add(q, q, 53)
        assert s.mid.to_fraction() == 2
        assert Fraction(1, 2) <= s.rad.to_fraction() <= Fraction(1, 2) * TIGHT26

    def test_absorbed_rounding_goes_to_radius(self):
        s = ball.add(B(BigFloat.from_man_exp(1, 100)), B(1), 53)
        assert s.mid.to_fraction() == 2 ** 100
        assert 1 <= s.rad.to_fraction() <= 2 ** 48

    def test_containment_random(self):
        rng = random.Random(101)
        for _ in range(400):
            x, y = rand_ball(rng), rand_ball(rng)
            prec = rng.choice([16, 32, 53])
            s = ball.add(x, y, prec)
            p = sample_in_ball(x, rng) + sample_in_ball(y, rng)
            assert contains_fraction(s, p)


class TestMul:
    def test_example(self):
        x = Ball(BigFloat.from_int(2), mag.pow2(-1))
        y = Ball(BigFloat.from_int(3), mag.pow2(-1))
        p = ball.mul(x, y, 128)
        assert p.mid.to_fraction() == 6
        assert Fraction(11, 4) <= p.rad.to_fraction() <= Fraction(11, 4) * TIGHT26

    def test_exact_zero_annihilates(self):
        p = ball.mul(Ball(BigFloat.from_int(7), mag.ONE), B(0), 53)
        assert p.mid.is_zero() and p.is_exact()

    def test_containment_random(self):
        rng = random.Random(55)
        for _ in range(400):
            x, y = rand_ball(rng), rand_ball(rng)
            p = ball.mul(x, y, rng.choice([16, 32, 53]))
            pt = sample_in_ball(x, rng) * sample_in_ball(y, rng)
            assert contains_fraction(p, pt)


    def test_radius_sum_just_below_a_grid_point(self):
        # |mx| ry + |my| rx lies just below a 30-bit grid point and rx ry,
        # far below the rounding point, lifts the radius sum above it.
        x = Ball(BigFloat.from_int(805306369), mag.from_man_exp_upper(805306367, -55))
        y = Ball(BigFloat.from_int(1 << 60), mag.from_man_exp_upper(805306367, -49))
        mx, rx = x.mid.to_fraction(), x.rad.to_fraction()
        my, ry = y.mid.to_fraction(), y.rad.to_fraction()
        p = ball.mul(x, y, 128)
        assert p.mid.to_fraction() == mx * my
        assert p.rad.to_fraction() >= mx * ry + my * rx + rx * ry
        assert ball.contains_point(p, (mx + rx) * (my + ry))

    def test_sqr_of_a_ball_holding_zero(self):
        # [0, (|mid| + rad)^2], the whole line included
        line = ball.sqr(ball.whole_line(), 53)
        assert line.mid.is_zero() and line.rad.is_inf()
        assert ball.overlaps(line, B(4))
        for x in (Ball(bf.ZERO, mag.ONE), Ball(BigFloat.from_int(-1), mag.TWO)):
            lo, hi = ball_bounds(ball.sqr(x, 53))
            xlo, xhi = ball_bounds(x)
            assert lo <= 0 and hi >= max(xlo * xlo, xhi * xhi)


class TestFma:
    def test_exact(self):
        r = ball.fma(B(0), B(2), B(3), 53)
        assert r.mid.to_fraction() == 6 and r.is_exact()

    def test_matches_add_mul_midpoint_when_exact(self):
        z, x, y = B(5), B(7), B(-3)
        a = ball.fma(z, x, y, 53)
        b = ball.add(z, ball.mul(x, y, 53), 53)
        assert a.mid == b.mid

    def test_containment_random(self):
        rng = random.Random(66)
        for _ in range(400):
            z, x, y = rand_ball(rng), rand_ball(rng), rand_ball(rng)
            r = ball.fma(z, x, y, rng.choice([16, 32, 53]))
            pt = sample_in_ball(z, rng) + sample_in_ball(x, rng) * sample_in_ball(y, rng)
            assert contains_fraction(r, pt)


class TestDot:
    """initial + sum x*y: the midpoint rounded once, the radius bounded once."""

    @staticmethod
    def rand_terms(rng):
        n = rng.randrange(1, 20)
        xs = [rand_ball(rng, 80, 30, 0.6) for _ in range(n)]
        ys = [rand_ball(rng, 80, 30, 0.6) for _ in range(n)]
        return xs, ys, rng.choice([None, rand_ball(rng, 80, 30, 0.6)])

    def test_midpoint_is_the_rounded_exact_sum(self):
        rng = random.Random(71)
        for _ in range(300):
            xs, ys, z = self.rand_terms(rng)
            prec = rng.choice([2, 10, 53, 200])
            d = ball.dot(xs, ys, prec, z)
            exact = sum((x.mid.to_fraction() * y.mid.to_fraction() for x, y in zip(xs, ys)),
                        z.mid.to_fraction() if z else Fraction(0))
            assert d.mid.to_fraction() == round_fraction_oracle(exact, prec, Rounding.NEAREST_EVEN)
            pairs = list(zip(xs, ys)) + ([(z, ball.ONE)] if z else [])
            assert d.rad == least_radius(d, pairs, prec)

    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            ball.dot([B(1), B(2)], [B(3)], 53)

    def test_sampled_points_contained(self):
        rng = random.Random(72)
        for _ in range(200):
            xs, ys, z = self.rand_terms(rng)
            d = ball.dot(xs, ys, rng.choice([10, 53]), z)
            for _ in range(3):
                pt = sum((sample_in_ball(x, rng) * sample_in_ball(y, rng) for x, y in zip(xs, ys)),
                         sample_in_ball(z, rng) if z else Fraction(0))
                assert contains_fraction(d, pt)

    # x*y and x*y + 3*[1 +/- 1] over these balls, as mul_schoolbook gave them
    # when it folded its radii with addmul
    SPECIALS = [ball.indeterminate(), Ball(bf.POS_INF), Ball(bf.NEG_INF), ball.whole_line(),
                Ball(bf.ONE, mag.INF), Ball(bf.ZERO), B(3), Ball(bf.ONE, mag.ONE)]
    ONE_TERM = """
        nan nan nan nan nan nan nan nan
        nan inf;0 -inf;0 nan inf;inf nan inf;0 inf;inf
        nan -inf;0 inf;0 nan -inf;inf nan -inf;0 -inf;inf
        nan nan nan 0;inf 0;inf 0;0 0;inf 0;inf
        nan inf;inf -inf;inf 0;inf 1;inf 0;0 3;inf 1;inf
        nan nan nan 0;0 0;0 0;0 0;0 0;0
        nan inf;0 -inf;0 0;inf 3;inf 0;0 9;0 3;3
        nan inf;inf -inf;inf 0;inf 1;inf 0;0 3;3 1;3"""
    TWO_TERMS = """
        nan nan nan nan nan nan nan nan
        nan inf;3 -inf;3 nan inf;inf nan inf;3 inf;inf
        nan -inf;3 inf;3 nan -inf;inf nan -inf;3 -inf;inf
        nan nan nan 3;inf 3;inf 3;3 3;inf 3;inf
        nan inf;inf -inf;inf 3;inf 4;inf 3;3 6;inf 4;inf
        nan nan nan 3;3 3;3 3;3 3;3 3;3
        nan inf;3 -inf;3 3;inf 6;inf 3;3 12;3 6;6
        nan inf;inf -inf;inf 3;inf 4;inf 3;3 6;6 4;6"""

    @staticmethod
    def expected(table):
        def ball_of(cell):
            if cell == "nan":
                return ball.indeterminate()
            m, r = cell.split(";")
            mid = {"inf": bf.POS_INF, "-inf": bf.NEG_INF}.get(m) or BigFloat.from_int(int(m))
            return Ball(mid, mag.INF if r == "inf" else mag.from_int_upper(int(r)))
        return [[ball_of(c) for c in row.split()] for row in table.strip().splitlines()]

    def test_nan_and_infinite_inputs(self):
        s, three, wide = self.SPECIALS, B(3), Ball(bf.ONE, mag.ONE)
        initial = B(3, mag.from_int_upper(3))  # 3 * [1 +/- 1]
        one, two = self.expected(self.ONE_TERM), self.expected(self.TWO_TERMS)
        for i, x in enumerate(s):
            for j, y in enumerate(s):
                assert ball.dot([x], [y], 53) == ball.mul(x, y, 53) == one[i][j], (i, j)
                assert ball.dot([x, three], [y, wide], 53) == two[i][j], (i, j)
                assert ball.dot([x], [y], 53, initial) == two[i][j], (i, j)

    @staticmethod
    def two_path(xs, ys, prec: int) -> Ball:
        """sum x*y as dot formed it with a separate path for exact operands:
        the exact BigFloat products summed by vector_sum, the radius from
        all three radius products of every pair."""
        pairs = [p for x, y in zip(xs, ys) for p in ((x.mid, y.rad), (y.mid, x.rad), (x.rad, y.rad))]
        mids = [bf.mul_exact(x.mid, y.mid) for x, y in zip(xs, ys)]
        return ball.rounded(bf.vector_sum(mids, prec, Rounding.NEAREST_EVEN), pairs, prec)

    def test_one_loop_matches_the_two_path_formula(self):
        rng = random.Random(2301)
        special = [bf.POS_INF, bf.NEG_INF, bf.NAN, bf.ZERO]
        kinds = {"inf": 0, "nan": 0, "wide": 0, "exact": 0}
        for _ in range(1500):
            n = rng.randrange(1, 7)
            balls = [rand_ball(rng, 80, 30, rng.choice((0.0, 0.3, 0.9))) for _ in range(2 * n + 1)]
            for _ in range(rng.choice((0, 0, 1, 2))):
                i = rng.randrange(len(balls))
                balls[i] = Ball(rng.choice(special), balls[i].rad)
            if rng.random() < 0.1:
                i = rng.randrange(len(balls))
                balls[i] = Ball(balls[i].mid, mag.INF)
            xs, ys, z = balls[:n], balls[n:2 * n], balls[-1]
            prec = rng.choice((2, 10, 53, 200))
            d = ball.dot(xs, ys, prec)
            assert d == self.two_path(xs, ys, prec), (xs, ys, prec)
            assert ball.dot(xs, ys, prec, z) == self.two_path([*xs, z], [*ys, ball.ONE], prec)
            assert ball.fma(z, xs[0], ys[0], prec) == self.two_path([xs[0], z], [ys[0], ball.ONE], prec)
            kinds["inf"] += d.mid.is_inf()
            kinds["nan"] += d.is_indeterminate()
            kinds["wide"] += d.mid.is_finite() and d.rad.is_inf()
            kinds["exact"] += d.is_exact()
        assert min(kinds.values()) > 20, kinds


class TestExactOperands:
    """Exact operands take a path on ints in mul, dot, add and sub.  Its
    results must be bit for bit the general path's: the midpoint the
    nearest-even rounding of the exact value, the radius exactly the half
    ulp 2^(mid.exp - prec - 1) when that rounding is inexact, else zero."""

    NE = Rounding.NEAREST_EVEN
    PRECS = range(2, 131)

    @classmethod
    def check(cls, r: Ball, exact: Fraction, prec: int) -> bool:
        """r against the Fraction oracle; returns whether r is inexact."""
        assert r.mid.to_fraction() == round_fraction_oracle(exact, prec, cls.NE)
        inexact = r.mid.to_fraction() != exact
        half = Fraction(2) ** (r.mid.exp - prec - 1) if inexact else 0
        assert r.rad.to_fraction() == half, (r, exact, prec)
        return inexact

    @staticmethod
    def summed(result, prec: int) -> Ball:
        # the rounding error through magnitude.sum_upper, as every ball
        # operation folded it before exact operands had a path of their own
        return ball.rounded(result, [(mag.ZERO, mag.ONE)], prec)

    @staticmethod
    def odd(rng, bits: int) -> int:
        return rng.getrandbits(bits) | 1 | (1 << (bits - 1))

    @classmethod
    def operand_pairs(cls, rng, prec: int):
        """(a, b) mantissa pairs: products of exactly prec and prec + 1 bits,
        carries to a power of two, powers of two, and random sizes."""
        for want in (prec, prec + 1):
            while True:
                ka = rng.randrange(1, want + 1)
                a, b = cls.odd(rng, ka), cls.odd(rng, max(1, want - ka + rng.randrange(2)))
                if (a * b).bit_length() == want:
                    yield a, b
                    break
        k = (prec + 1) // 2 + rng.randrange(3)
        yield (1 << k) - 1, (1 << k) + 1  # 2^2k - 1: a carry below 2k bits
        yield (1 << k) - 1, (1 << k) - 1
        yield 1, 1
        yield 1, cls.odd(rng, prec + 3)
        yield cls.odd(rng, rng.randrange(1, 2 * prec)), cls.odd(rng, rng.randrange(1, 2 * prec))

    def balls(self, rng, a: int, b: int) -> tuple[Ball, Ball]:
        far = rng.choice((0, 5000, -5000))
        return (Ball(BigFloat.from_man_exp(rng.choice((1, -1)) * a, rng.randrange(-40, 40) + far)),
                Ball(BigFloat.from_man_exp(rng.choice((1, -1)) * b, rng.randrange(-40, 40) - far)))

    def test_mul_against_the_oracle_and_the_general_path(self):
        rng = random.Random(2201)
        seen = set()
        for prec in self.PRECS:
            for a, b in self.operand_pairs(rng, prec):
                x, y = self.balls(rng, a, b)
                r = ball.mul(x, y, prec)
                exact = x.mid.to_fraction() * y.mid.to_fraction()
                inexact = self.check(r, exact, prec)
                general = bf.mul(x.mid, y.mid, prec, self.NE)
                assert r == ball.rounded(general, [], prec) == self.summed(general, prec)
                assert r == ball.dot([x], [y], prec) == ball.fma(Ball(bf.ZERO), x, y, prec)
                seen.add(("inexact", inexact))
                seen.add(("carry", inexact and r.mid.man == 1))
                seen.add(("bits", (a * b).bit_length() - prec))
        assert {("inexact", True), ("inexact", False), ("carry", True), ("bits", 0),
                ("bits", 1)} <= seen

    def test_dot_add_sub_against_the_oracle_and_the_general_path(self):
        rng = random.Random(2202)
        cancelled = 0
        for prec in self.PRECS:
            for _ in range(4):
                pairs = [self.balls(rng, *next(self.operand_pairs(rng, prec)))
                         for _ in range(rng.randrange(1, 6))]
                if rng.random() < 0.3:  # cancels to exactly 0
                    pairs += [(x, -y) for x, y in pairs]
                if rng.random() < 0.2:
                    pairs.append((Ball(bf.ZERO), pairs[0][1]))
                rng.shuffle(pairs)
                xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
                exact = sum((x.mid.to_fraction() * y.mid.to_fraction() for x, y in pairs), Fraction(0))
                r = ball.dot(xs, ys, prec)
                self.check(r, exact, prec)
                cancelled += exact == 0 and r == Ball(bf.ZERO)
                general = bf.vector_sum([bf.mul_exact(x.mid, y.mid) for x, y in pairs], prec, self.NE)
                assert r == ball.rounded(general, [], prec) == self.summed(general, prec)
                x, y = xs[0], ys[0]
                assert ball.fma(x, x, y, prec) == ball.dot([x, x], [y, ball.ONE], prec)
                for op, fn, sign in ((ball.add, bf.add, 1), (ball.sub, bf.sub, -1)):
                    r = op(x, y, prec)
                    self.check(r, x.mid.to_fraction() + sign * y.mid.to_fraction(), prec)
                    assert r == self.summed(fn(x.mid, y.mid, prec, self.NE), prec)
        assert cancelled > 20

    def test_zero_inf_and_nan_midpoints_take_the_general_path(self, monkeypatch):
        calls = []
        for name in ("mul", "vector_sum"):
            fn = getattr(bf, name)
            monkeypatch.setattr(bf, name, lambda *a, _fn=fn, _n=name: calls.append(_n) or _fn(*a))
        three = B(3)
        for m in (bf.ZERO, bf.POS_INF, bf.NEG_INF, bf.NAN):
            calls.clear()
            ball.mul(Ball(m), three, 53), ball.mul(three, Ball(m), 53)
            assert calls == ["mul", "mul"], m
        for m in (bf.POS_INF, bf.NEG_INF, bf.NAN):
            calls.clear()
            ball.dot([three, Ball(m)], [three, three], 53)
            assert calls == ["vector_sum"], m
        calls.clear()
        assert ball.mul(three, three, 53) == B(9) == ball.dot([three], [three], 53)
        assert ball.dot([Ball(bf.ZERO), three], [three, three], 53) == B(9)
        wide = B(3, mag.ONE)
        assert ball.mul(three, wide, 53) == ball.mul(wide, three, 53) == B(9, mag.from_int_upper(3))
        assert calls == ["mul", "mul"]  # only the inexact operand left the int path
        assert ball.dot([three], [wide], 53) == ball.dot([wide], [three], 53) == \
            B(9, mag.from_int_upper(3))
        assert ball.fma(three, three, wide, 53) == B(12, mag.from_int_upper(3))
        assert ball.fma(wide, three, three, 53) == B(12, mag.ONE)
        for x, y in ((three, wide), (wide, three)):
            assert ball.add(x, y, 53) == B(6, mag.ONE) and ball.sub(x, y, 53) == B(0, mag.ONE)
        assert ball.mul(Ball(bf.ZERO), three, 53) == Ball(bf.ZERO)
        assert ball.mul(Ball(bf.POS_INF), Ball(bf.ZERO), 53).is_indeterminate()

    def test_precision_1_and_unequal_lengths_raise(self):
        one = B(1)
        for call in (lambda: ball.mul(one, one, 1), lambda: ball.dot([one], [one], 1),
                     lambda: ball.dot([], [], 1), lambda: ball.fma(one, one, one, 1),
                     lambda: ball.add(one, one, 1), lambda: ball.sub(one, one, 1),
                     lambda: ball.dot([one, one], [one], 53),
                     lambda: ball.dot([one], [one, B(1, mag.ONE)], 53)):
            with pytest.raises(ValueError):
                call()


class TestDivSqrt:
    def test_sqrt_of_an_infinite_radius_holds_every_root(self):
        for mid in (bf.POS_INF, bf.NEG_INF, bf.ZERO):
            r = ball.sqrt(Ball(mid, mag.INF), 53)
            assert r.is_indeterminate()  # the ball reaches below zero
            assert ball.contains_point(r, mpf_fraction(mpmath.sqrt(3)))
        assert ball.sqrt(Ball(bf.POS_INF), 53).mid == bf.POS_INF
        assert ball.sqrt(Ball(bf.NEG_INF), 53).is_indeterminate()

    def test_sqrt_exact(self):
        r = ball.sqrt(B(4), 53)
        assert r.mid.to_fraction() == 2 and r.is_exact()

    def test_div_third(self):
        r = ball.div(B(1), B(3), 53)
        assert contains_fraction(r, Fraction(1, 3))
        assert r.rad.to_fraction() <= Fraction(1, 3) / 2 ** 50

    def test_div_zero_in_denominator(self):
        assert ball.div(B(1), Ball(bf.ZERO, mag.ONE), 53).is_indeterminate()
        assert ball.div(B(1), B(0), 53).is_indeterminate()

    def test_sqrt_negative_reach(self):
        assert ball.sqrt(B(-4), 53).is_indeterminate()
        assert ball.sqrt(Ball(BigFloat.from_int(1), mag.TWO), 53).is_indeterminate()
        # touching zero from above is fine
        r = ball.sqrt(Ball(BigFloat.from_int(1), mag.ONE), 53)
        assert not r.is_indeterminate()
        assert contains_fraction(r, Fraction(0)) and contains_fraction(r, Fraction(1414, 1000))

    def test_containment_random(self):
        rng = random.Random(77)
        for _ in range(400):
            x, y = rand_ball(rng), rand_ball(rng)
            d = ball.div(x, y, 53)
            if d.is_indeterminate():
                continue
            py = sample_in_ball(y, rng)
            if py == 0:
                continue
            assert contains_fraction(d, sample_in_ball(x, rng) / py)

    def test_div_radius_is_one_quotient(self):
        # every corner quotient is inside, and the radius is the propagated
        # (rx |my| + |mx| ry) / (|my| (|my| - ry)) plus the half ulp, up to
        # the 32-bit lower bound of |my| - ry and one rounding to 30 bits
        rng = random.Random(79)
        for _ in range(600):
            x, y = spread_ball(rng), spread_ball(rng)
            prec = rng.choice((2, 53, 64, 333))
            d = ball.div(x, y, prec)
            if d.is_indeterminate():
                continue
            mx, my = x.mid.to_fraction(), y.mid.to_fraction()
            rx, ry = x.rad.to_fraction(), y.rad.to_fraction()
            assert d.mid == bf.div(x.mid, y.mid, prec, Rounding.NEAREST_EVEN)[0]
            for s in (mx - rx, mx + rx):
                for t in (my - ry, my + ry):
                    assert contains_fraction(d, s / t), (x, y, prec)
            prop = (rx * abs(my) + abs(mx) * ry) / (abs(my) * (abs(my) - ry))
            half = Fraction(2) ** (d.mid.exp - prec - 1) if d.mid.to_fraction() != mx / my else 0
            assert d.rad.to_fraction() <= (prop * (1 + Fraction(1, 2 ** 29)) + half) * TIGHT26

    def test_div_int_by_a_divisor_above_2_to_the_32(self):
        # the radius stays the propagated bound plus the half ulp, rounded up
        # to 30 bits, for divisors of any size
        TIGHT = 1 + Fraction(1, 2 ** 28)
        for n in (3 ** 40, -(3 ** 40), 2 ** 32 + 1, 10 ** 30 + 7):
            for x in (Ball(bf.ONE, mag.pow2(-40)), Ball(BigFloat.from_int(10 ** 9 + 7), mag.ONE)):
                r = ball.div_int(x, n, 64)
                prop = x.rad.to_fraction() / abs(n)
                half = Fraction(2) ** (r.mid.exp - 65)
                assert prop <= r.rad.to_fraction() <= (prop + half) * TIGHT, (x, n)

    def test_sqrt_containment_random(self):
        rng = random.Random(88)
        for _ in range(300):
            x = rand_ball(rng)
            r = ball.sqrt(x, 53)
            if r.is_indeterminate():
                continue
            pt = sample_in_ball(x, rng)
            if pt < 0:
                continue
            # compare via squaring: pt in sqrt-ball iff some s in ball with s^2 == pt
            lo, hi = ball_bounds(r)
            assert lo * abs(lo) <= pt <= hi * hi


class TestPredicates:
    def test_examples(self):
        assert ball.contains(Ball(bf.ZERO, mag.TWO), Ball(BigFloat.from_int(1), mag.ONE))
        assert not ball.overlaps(Ball(bf.ZERO, mag.ONE), Ball(BigFloat.from_int(3), mag.ONE))
        x = Ball(BigFloat.from_int(5), mag.pow2(-3))
        assert ball.contains_point(x, Fraction(5) + Fraction(1, 8))  # closed boundary
        assert not ball.contains_point(x, Fraction(5) + Fraction(1, 8) + Fraction(1, 2 ** 80))

    def test_exactness_vs_fractions(self):
        rng = random.Random(31)
        for _ in range(800):
            x, y = rand_ball(rng, exp_range=200), rand_ball(rng, exp_range=200)
            xlo, xhi = ball_bounds(x)
            ylo, yhi = ball_bounds(y)
            assert ball.contains(x, y) == (xlo <= ylo and yhi <= xhi)
            assert ball.overlaps(x, y) == (max(xlo, ylo) <= min(xhi, yhi))
            q = sample_in_ball(y, rng)
            assert ball.contains_point(x, q) == (xlo <= q <= xhi)

    def test_wild_exponents_structural(self):
        big = Ball(bf.ZERO, mag.pow2(2 ** 80))
        small = Ball(BigFloat.from_man_exp(1, 2 ** 79), mag.ONE)
        assert ball.contains(big, small)
        assert not ball.contains(small, big)
        assert ball.overlaps(big, small)
        a = Ball(BigFloat.from_man_exp(1, 2 ** 70))
        b = Ball(BigFloat.from_man_exp(1, 2 ** 70), mag.pow2(-(2 ** 70)))
        assert ball.contains(b, a) and ball.contains(a, a)

    def test_specials(self):
        indet = ball.indeterminate()
        line = ball.whole_line()
        assert ball.contains(indet, B(3)) and ball.contains(line, B(3))
        assert not ball.contains(B(3), line)
        assert ball.overlaps(indet, B(3)) and ball.overlaps(line, B(3))
        assert ball.contains_point(line, Fraction(10 ** 100))
        assert ball.contains(Ball(bf.POS_INF), Ball(bf.POS_INF))
        assert not ball.contains(Ball(bf.POS_INF), Ball(bf.NEG_INF))

    def test_infinite_radius_means_every_real_in_each_predicate(self):
        # (inf; inf) comes out of ball.mul(Ball(+inf), Ball(1, inf), 53)
        inf_inf = ball.mul(Ball(bf.POS_INF), Ball(bf.ONE, mag.INF), 53)
        assert inf_inf.mid == bf.POS_INF and inf_inf.rad.is_inf()
        balls = [inf_inf, Ball(bf.NEG_INF, mag.INF), ball.whole_line(), Ball(bf.POS_INF),
                 Ball(bf.NEG_INF), B(3), Ball(bf.ZERO, mag.ONE)]
        for x in balls:
            assert ball.contains_point(x, 3) == ball.overlaps(x, B(3)) == ball.contains(x, B(3))
            for y in balls:
                # a ball that contains another overlaps it
                if ball.contains(x, y):
                    assert ball.overlaps(x, y) and ball.overlaps(y, x), (x, y)
        assert ball.overlaps(inf_inf, B(3)) and ball.overlaps(inf_inf, ball.whole_line())
        assert not ball.overlaps(inf_inf, Ball(bf.POS_INF))
        assert not ball.overlaps(ball.whole_line(), Ball(bf.NEG_INF))


class TestAccuracy:
    def test_examples(self):
        assert ball.rel_accuracy_bits(Ball(BigFloat.from_int(1), mag.pow2(-54))) == 53
        assert ball.rel_accuracy_bits(B(5)) == ball.ACC_EXACT
        assert ball.rel_accuracy_bits(Ball(bf.ZERO, mag.ONE)) == ball.ACC_NONE
        assert ball.rel_accuracy_bits(ball.indeterminate()) == ball.ACC_NONE
        assert ball.rel_accuracy_bits(Ball(BigFloat.from_int(1), mag.TWO)) == ball.ACC_NONE


class TestCanRound:
    def test_tight_pi(self):
        p = el.const_pi(120)
        assert ball.can_round(p, 53, Rounding.NEAREST_EVEN)

    def test_straddling_tie(self):
        # midpoint exactly between the 53-bit neighbours 1 and 1 + 2^-52
        mid = bf.add(BigFloat.from_int(1), BigFloat.from_man_exp(1, -53), 60,
                     Rounding.NEAREST_EVEN)[0]
        x = Ball(mid, mag.pow2(-80))
        assert not ball.can_round(x, 53, Rounding.NEAREST_EVEN)

    def test_exact_point(self):
        assert ball.can_round(B(2), 7, Rounding.DOWN)

    @staticmethod
    def near_grid(x: Ball, rng) -> Ball:
        """x moved so that its upper endpoint lies on a 12-bit grid point, or
        2^-40 of the radius' scale below or above it."""
        hi = ball_bounds(x)[1]
        step = Fraction(2) ** (x.mid.exp - 12)
        shift = round(hi / step) * step - hi + rng.choice((-1, 0, 1)) * Fraction(2) ** (x.rad.exp - 40)
        m = x.mid.to_fraction() + shift
        k = m.denominator.bit_length() - 1
        return Ball(BigFloat.from_man_exp(m.numerator, -k), x.rad)

    def test_certifies_common_rounding(self):
        # exact both ways: True exactly when both endpoints round alike, at
        # 12 bits and at the least precision, 2
        rng = random.Random(13)
        seen = set()
        for _ in range(300):
            x = rand_ball(rng, rad_chance=1.0)
            for y in (x, self.near_grid(x, rng)):
                seen |= self.check(y, precs=(2, 12))
        assert seen == {True, False}

    def test_endpoint_just_below_a_rounding_boundary(self):
        # hi = 1 - 2^-160 lies 2^-160 below 1, far below the radius' own
        # 2^-120 scale; every point rounds DOWN to 1 - 2^-53
        r = mag.from_man_exp_upper(2 ** 30 - 1, -150)
        x = Ball(BigFloat.from_man_exp(2 ** 160 - ((2 ** 30 - 1) << 10) - 1, -160), r)
        lo, hi = ball_bounds(x)
        assert hi == 1 - Fraction(1, 2 ** 160)
        expected = 1 - Fraction(1, 2 ** 53)
        assert round_fraction_oracle(lo, 53, Rounding.DOWN) == expected
        assert ball.can_round(x, 53, Rounding.DOWN)
        assert bf.round_to(x.mid, 53, Rounding.DOWN)[0].to_fraction() == expected

    # -- against the Fraction oracle on the int path's branches ----------------

    @staticmethod
    def alike(x: Ball, prec: int, rnd) -> bool:
        lo, hi = ball_bounds(x)
        return round_fraction_oracle(lo, prec, rnd) == round_fraction_oracle(hi, prec, rnd)

    @staticmethod
    def dyadic(q: Fraction) -> BigFloat:
        return BigFloat.from_man_exp(q.numerator, 1 - q.denominator.bit_length())

    def check(self, x: Ball, precs=(2, 3, 10, 53, 64), modes=ALL_MODES) -> set:
        seen = set()
        for prec in precs:
            for rnd in modes:
                want = self.alike(x, prec, rnd)
                assert ball.can_round(x, prec, rnd) == want, (x, prec, rnd)
                seen.add(want)
        return seen

    def test_precision_below_2_raises_for_every_ball(self):
        for x in (B(3), B(3, mag.pow2(-20)), ball.indeterminate(), Ball(bf.POS_INF)):
            for rnd in ALL_MODES:
                with pytest.raises(ValueError):
                    ball.can_round(x, 1, rnd)
        assert ball.can_round(B(3), 2, Rounding.DOWN)  # 3 = 0b11 fits in 2 bits

    def test_endpoint_at_zero_and_balls_across_zero(self):
        for e in (-60, -3, 0, 40):
            r = mag.pow2(e)
            for mid in (BigFloat.from_man_exp(1, e), BigFloat.from_man_exp(-1, e)):
                assert self.check(Ball(mid, r)) == {False}  # one endpoint is 0
            for mid in (BigFloat.from_man_exp(1, e - 1), BigFloat.from_man_exp(-3, e - 2)):
                assert self.check(Ball(mid, r)) == {False}  # 0 lies inside
            # the radius a hair below, at and above |mid|
            for rm in ((1 << 30) - 1, 1 << 29):
                rad = mag.from_man_exp_upper(rm, e - 30)
                self.check(Ball(BigFloat.from_man_exp(1, e), rad))
            assert self.check(Ball(BigFloat.from_man_exp(-1, e), mag.pow2(e + 50))) == {False}

    def test_radius_far_above_and_far_below_the_midpoint_lsb(self):
        rng = random.Random(22)
        seen = set()
        for _ in range(60):
            mid = BigFloat.from_man_exp(rng.choice((1, -1)) * (rng.getrandbits(60) | 1),
                                        rng.randrange(-80, 20))
            for d in (-400, -120, -70, rng.randrange(-70, -1), rng.randrange(1, 40), 50):
                e = mid.lsb + d  # d above the lsb, or -d below it
                if e >= mid.exp - 1:
                    continue
                x = Ball(mid, mag.from_man_exp_upper(rng.getrandbits(30) | 1 << 29, e - 30))
                for y in (x, self.near_grid(x, rng)):
                    seen |= self.check(y)
        assert seen == {True, False}

    def test_nearest_even_tie_at_either_endpoint(self):
        # an endpoint exactly halfway between the prec-bit neighbours m and
        # m + 1 (times 2^(e - prec)) rounds to the even one; the other
        # endpoint lies 2^-39 of an ulp away, so it rounds to the neighbour
        # on its side; both signs, and m + 1 = 2^prec, where rounding carries
        seen = set()
        for prec in (2, 5, 53):
            ulp = Fraction(2) ** (3 - prec)  # numbers in [4, 8)
            for m in ((1 << (prec - 1)) + 1, (1 << prec) - 2, (1 << prec) - 1):
                tie = (m + Fraction(1, 2)) * ulp
                r = Fraction(ulp) / 2 ** 40
                for sign in (1, -1):
                    for inner in (True, False):  # the tie is the endpoint nearer 0
                        mid = self.dyadic(sign * (tie + r if inner else tie - r))
                        x = Ball(mid, mag.from_man_exp_upper(r.numerator, 1 - r.denominator.bit_length()))
                        # the other endpoint rounds to m + 1 (inner) or m
                        want = (m % 2 == 1) == inner
                        assert ball.can_round(x, prec, Rounding.NEAREST_EVEN) == want
                        assert self.alike(x, prec, Rounding.NEAREST_EVEN) == want
                        seen.add(want)
        assert seen == {True, False}

    def test_negative_midpoints_down_and_up(self):
        rng = random.Random(23)
        seen = set()
        for _ in range(300):
            x = rand_ball(rng, rad_chance=1.0)
            x = Ball(-abs(x.mid), x.rad)
            for y in (x, self.near_grid(x, rng)):
                seen |= self.check(y, modes=(Rounding.DOWN, Rounding.UP))
                for prec in (2, 12, 53):  # DOWN of -x is -(UP of x)
                    assert (ball.can_round(y, prec, Rounding.DOWN)
                            == ball.can_round(ball.neg(y), prec, Rounding.UP))
        assert seen == {True, False}


class TestPi:
    def test_paper_scale_enclosure(self):
        # consistent with a 30-digit decimal enclosure of pi: both contain pi,
        # so the two intervals must intersect
        p = el.const_pi(100)
        lo, hi = ball_bounds(p)
        dec = Fraction(314159265358979323846264338328, 10 ** 29)
        eps = Fraction(107, 10 ** 32)
        assert lo <= dec + eps and hi >= dec - eps
        assert hi - lo <= Fraction(1, 2 ** 95)

    def test_contains_pi_bracket(self):
        # independent rational bracket: alternating partial sums of Machin's form
        def atan_bracket(inv, terms):
            s = Fraction(0)
            x = Fraction(1, inv)
            lo = hi = None
            for k in range(terms):
                t = x ** (2 * k + 1) / (2 * k + 1)
                s = s + t if k % 2 == 0 else s - t
                if k % 2 == 0:
                    hi = s
                else:
                    lo = s
            return lo, hi

        a5 = atan_bracket(5, 40)
        a239 = atan_bracket(239, 20)
        pi_lo = 16 * a5[0] - 4 * a239[1]
        pi_hi = 16 * a5[1] - 4 * a239[0]
        assert pi_hi - pi_lo < Fraction(1, 2 ** 100)
        for prec in (10, 24, 53, 80):
            p = el.const_pi(prec)
            lo, hi = ball_bounds(p)
            # the rational bracket is far tighter than the ball, so containment
            # of the bracket certifies containment of pi itself
            assert lo <= pi_lo and pi_hi <= hi

    def test_radius_contract(self):
        for prec in (8, 16, 53, 200, 1000):
            p = el.const_pi(prec)
            assert p.rad.to_fraction() <= Fraction(2) ** (4 - prec) * 4

    def test_successive_precisions_overlap(self):
        prev = el.const_pi(16)
        for prec in (17, 31, 64, 129):
            cur = el.const_pi(prec)
            assert ball.overlaps(prev, cur)
            prev = cur

    def test_cache_transparency(self):
        el._compute_pi.cache_clear()
        cold = el.const_pi(70)
        warm = el.const_pi(70)
        assert cold == warm
        el._compute_pi.cache_clear()
        assert el.const_pi(70) == warm



class TestLog2:
    def test_radius_contract(self):
        # the same contract as pi: log 2 is accurate to about its precision
        for prec in (53, 333, 1000, 4000):
            p = el.const_log2(prec)
            assert p.rad.to_fraction() <= Fraction(2) ** (4 - prec) * 4, prec
            assert ball.rel_accuracy_bits(p) >= prec - 2, prec

    def test_contains_log2(self):
        with mpmath.workprec(4200):
            ref = mpf_fraction(mpmath.log(2))
        eps = Fraction(1, 2 ** 4190)  # far below every radius checked
        for prec in (10, 53, 333, 1000, 4000):
            lo, hi = ball_bounds(el.const_log2(prec))
            assert lo <= ref - eps and ref + eps <= hi, prec

class TestMisc:
    def test_scale_and_int_ops(self):
        x = Ball(BigFloat.from_int(3), mag.ONE)
        y = ball.scale_2exp(x, 5)
        assert y.mid.to_fraction() == 96 and y.rad.to_fraction() == 32
        z = ball.mul_int(x, 7, 53)
        assert z.mid.to_fraction() == 21 and z.rad.to_fraction() >= 7
        w = ball.div_int(B(10), 4, 53)
        assert w.mid.to_fraction() == Fraction(5, 2) and w.is_exact()

    def test_exact_text_round_trip(self):
        rng = random.Random(2)
        for _ in range(200):
            x = rand_ball(rng)
            assert Ball.from_exact_text(x.to_exact_text()) == x
        assert Ball.from_exact_text(ball.indeterminate().to_exact_text()).is_indeterminate()
