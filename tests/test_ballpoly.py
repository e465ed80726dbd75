import random
from fractions import Fraction

import pytest

from conftest import contains_fraction, round_fraction_oracle, sample_in_ball
from midrad import ball, ballpoly as bp, bigfloat as bf, intpoly, magnitude as mag
from midrad.ball import Ball
from midrad.bigfloat import BigFloat, Rounding
from midrad.ballpoly import BallPoly


def rand_poly(rng, n, slope=0, rad=True):
    cs = []
    for k in range(n):
        man = (rng.getrandbits(rng.randrange(1, 50)) | 1) * rng.choice([1, -1])
        e = rng.randrange(-16, 17) + slope * k
        r = mag.ZERO
        if rad and rng.random() < 0.8:
            r = mag.from_man_exp_upper(rng.getrandbits(12) + 1, e - rng.randrange(10, 40))
        cs.append(Ball(BigFloat.from_man_exp(man, e), r))
    return BallPoly(cs)


def exact_conv(fp, gp):
    out = [Fraction(0)] * (len(fp) + len(gp) - 1)
    for i, a in enumerate(fp):
        for j, b in enumerate(gp):
            out[i + j] += a * b
    return out


class TestSchoolbook:
    def test_difference_of_squares(self):
        h = bp.mul_schoolbook(BallPoly.from_ints([1, 1]), BallPoly.from_ints([1, -1]), 53)
        assert [c.mid.to_fraction() for c in h] == [1, 0, -1]
        assert all(c.is_exact() for c in h)

    def test_integer_product(self):
        h = bp.mul_schoolbook(BallPoly.from_ints([1, 2]), BallPoly.from_ints([3, 4]), 53)
        assert [c.mid.to_fraction() for c in h] == [3, 10, 8]
        assert all(c.is_exact() for c in h)

    def test_sampled_containment(self):
        rng = random.Random(21)
        for _ in range(80):
            f = rand_poly(rng, rng.randrange(1, 12))
            g = rand_poly(rng, rng.randrange(1, 12))
            h = bp.mul_schoolbook(f, g, 32)
            fp = [sample_in_ball(c, rng) for c in f]
            gp = [sample_in_ball(c, rng) for c in g]
            for k, want in enumerate(exact_conv(fp, gp)):
                assert ball.contains_point(h[k], want)

    def test_empty(self):
        assert len(bp.mul_schoolbook(BallPoly([]), BallPoly.from_ints([1]), 53)) == 0


class TestBlockPlan:
    def test_flat_single_block(self):
        rng = random.Random(1)
        flat = BallPoly([Ball(BigFloat.from_man_exp(rng.getrandbits(20) | (1 << 19), 0))
                         for _ in range(40)])
        plan = bp.plan_blocks(flat, flat, 64)
        assert plan.scale == 0
        assert len(plan.blocks_f) == 1 and len(plan.blocks_g) == 1

    def test_exp_prefix_heights_hold(self):
        # x^k/k! at prec 64: every block satisfies the 3p+512 height bound
        n, prec = 100, 64
        fact = 1
        cs = [Ball.from_int(1)]
        for k in range(1, n):
            fact *= k
            cs.append(ball.div(Ball.from_int(1), Ball.from_int(fact), prec))
        f = BallPoly(cs)
        plan = bp.plan_blocks(f, f, prec)
        cap = 3 * prec + 512
        for s, e in plan.blocks_f:
            es = [f[i].mid.exp + plan.scale * i for i in range(s, e) if f[i].mid.is_regular()]
            assert max(es) - min(es) <= cap
        # the scale flattens the decay (between the mean and the tail slope)
        assert 4 <= plan.scale <= 8

    @staticmethod
    def fraction_scale(f, g):
        # the scale rule in Fraction arithmetic: the reference for the int one
        globs, tails = [], []
        for p in (f, g):
            idx = [i for i, c in enumerate(p.coeffs) if c.mid.is_regular()]
            if len(idx) < 2:
                continue
            a, b = idx[0], idx[-1]
            globs.append((p[b].mid.exp - p[a].mid.exp, b - a))
            mi = next((i for i in idx if (a + b + 1) // 2 <= i < b), None)
            if mi is not None and b - mi >= 2:
                tails.append((p[b].mid.exp - p[mi].mid.exp, b - mi))
        if not globs:
            return 0
        s = Fraction(sum(r for r, _ in globs), sum(d for _, d in globs))
        if tails:
            st = Fraction(sum(r for r, _ in tails), sum(d for _, d in tails))
            if abs(st) > abs(s):
                s = st
        fl = s.numerator // s.denominator
        fr = s - fl
        if fr == Fraction(1, 2):  # ties toward zero
            return -(fl if s > 0 else fl + 1)
        return -(fl + 1 if fr > Fraction(1, 2) else fl)

    def test_scale_matches_the_fraction_rule(self):
        rng = random.Random(20)
        specials = [bf.ZERO, bf.NAN, bf.POS_INF, bf.NEG_INF]

        def poly(n, slope):
            cs = []
            for k in range(n):
                if rng.random() < 0.2:
                    cs.append(Ball(rng.choice(specials)))
                else:
                    e = rng.randrange(-3, 4) + (slope * k).__floor__()
                    cs.append(Ball(BigFloat.from_man_exp(rng.choice([1, -3, 5]), e)))
            return BallPoly(cs)

        def exp_poly(exps):  # one regular midpoint per exponent, None for zero
            return BallPoly([Ball(bf.ZERO) if e is None else Ball(BigFloat.from_man_exp(1, e))
                             for e in exps])

        # exact half slopes of both signs, through the whole range and the tail
        cases = [(exp_poly([0, None, 1]), exp_poly([])), (exp_poly([1, None, 0]), exp_poly([0])),
                 (exp_poly([0, None, 5]), exp_poly([None])), (exp_poly([0, None, -5]), exp_poly([])),
                 (exp_poly([0, 0, 0, 1, 3]), exp_poly([7])), (exp_poly([0, 0, 0, -1, -3]), exp_poly([7])),
                 (exp_poly([0, None, None, 1, None, 3]), exp_poly([0, None, 1]))]
        assert [self.fraction_scale(f, g) for f, g in cases] == [0, 0, -2, 2, -1, 1, -1]
        for _ in range(10_000):
            f = poly(rng.randrange(0, 9), Fraction(rng.randrange(-12, 13), rng.randrange(1, 5)))
            g = f if rng.random() < 0.1 else poly(rng.randrange(0, 9),
                                                   Fraction(rng.randrange(-12, 13), rng.randrange(1, 5)))
            cases.append((f, g))
        seen = set()
        for f, g in cases:
            want = self.fraction_scale(f, g)
            assert bp._scale_heuristic(f, g) == want
            seen.add(want)
        assert {-1, 0, 1} <= seen and min(seen) < -3 and max(seen) > 3

    def test_plan_soundness_blockwise_equals_direct(self):
        # reconstructing and multiplying blockwise must equal the exact
        # midpoint product; checked via the exact integer oracle
        rng = random.Random(33)
        for _ in range(40):
            f = rand_poly(rng, rng.randrange(17, 40), slope=rng.choice([-9, 0, 9]), rad=False)
            g = rand_poly(rng, rng.randrange(17, 40), slope=rng.choice([-9, 0, 9]), rad=False)
            h = bp.mul_block(f, g, 4096)  # high enough that nothing rounds
            fp = [c.mid.to_fraction() for c in f]
            gp = [c.mid.to_fraction() for c in g]
            for k, want in enumerate(exact_conv(fp, gp)):
                assert h[k].mid.to_fraction() == want and h[k].is_exact()


class TestBlockMul:
    def test_matches_schoolbook_quality(self):
        rng = random.Random(5)
        for _ in range(40):
            nf, ng = rng.randrange(17, 40), rng.randrange(17, 40)
            slope = rng.choice([-8, -3, 0, 3, 8])
            f, g = rand_poly(rng, nf, slope), rand_poly(rng, ng, -slope)
            prec = rng.choice([32, 64, 128])
            hs = bp.mul_schoolbook(f, g, prec)
            hb = bp.mul_block(f, g, prec)
            for k in range(nf + ng - 1):
                assert ball.overlaps(hs[k], hb[k])
                rs, rb = hs[k].rad, hb[k].rad
                if rs.is_zero():
                    continue
                assert rb.to_fraction() <= 16 * rs.to_fraction(), (k, prec)

    def test_exact_integer_product_stays_exact(self):
        rng = random.Random(6)
        vals_f = [rng.randrange(-1000, 1000) for _ in range(30)]
        vals_g = [rng.randrange(-1000, 1000) for _ in range(25)]
        h = bp.mul_block(BallPoly.from_ints(vals_f), BallPoly.from_ints(vals_g), 64)
        ref = intpoly.mul_schoolbook(vals_f, vals_g)
        assert [c.mid.to_fraction() for c in h] == ref
        assert all(c.is_exact() for c in h)

    def test_exact_inputs_skip_the_radius_pass(self, monkeypatch):
        # exact coefficients (ints, 53-bit mantissas, some zero) of degree 16
        # and up: no radius product runs, and each output is the two-pass
        # result, the nearest-even rounding of its exact sum with the half
        # ulp as radius only when inexact, and the schoolbook ball
        rng = random.Random(10)
        runs = []
        conv = bp._conv_sums
        monkeypatch.setattr(bp, "_conv_sums", lambda products, n: runs.append(len(products))
                            or conv(products, n))
        for n, bits, prec, rounds in ((17, 10, 64, False), (30, 53, 64, True), (40, 53, 2, True),
                                      (64, 53, 200, False), (100, 40, 53, True)):
            vals = [[(rng.getrandbits(bits) | 1) * rng.choice((1, -1)) if rng.random() < 0.9
                     else 0 for _ in range(n)] for _ in range(2)]
            f, g = BallPoly.from_ints(vals[0]), BallPoly.from_ints(vals[1])
            runs.clear()
            h = bp.mul_block(f, g, prec)
            assert runs == [1]  # the midpoint pass only
            plan = bp.plan_blocks(f, g, prec)
            mids = [bf._round_sum(t, prec, Rounding.NEAREST_EVEN)
                    for t in conv([plan], 2 * n - 1)]
            two_pass = [ball.rounded(m, (), prec, terms=r) for m, r in zip(mids, conv([], 2 * n - 1))]
            assert h.coeffs == two_pass == bp.mul_schoolbook(f, g, prec).coeffs
            for c, exact in zip(h, exact_conv(vals[0], vals[1])):
                assert c.mid.to_fraction() == round_fraction_oracle(exact, prec,
                                                                    Rounding.NEAREST_EVEN)
                half = Fraction(2) ** (c.mid.exp - prec - 1) if c.mid.to_fraction() != exact else 0
                assert c.rad.to_fraction() == half
            assert any(not c.is_exact() for c in h) == rounds

    def test_preserves_sparsity(self):
        vals = [k + 1 if k % 2 == 0 else 0 for k in range(25)]
        f = BallPoly.from_ints(vals)
        fr = BallPoly([Ball(c.mid, mag.pow2(-40) if not c.mid.is_zero() else mag.ZERO)
                       for c in f])
        h = bp.mul_block(fr, fr, 64)
        for k in range(1, len(h), 2):
            assert h[k].mid.is_zero() and h[k].is_exact()

    def test_square_passes_each_block_twice(self, monkeypatch):
        # mul_block(f, f) gives the same balls as the product with a copy of f,
        # and its diagonal block products reach intpoly.mul as one list twice
        rng = random.Random(8)
        f = rand_poly(rng, 60, slope=-40)
        copy = BallPoly(list(f.coeffs))
        squares = []
        mul = intpoly.mul
        monkeypatch.setattr(intpoly, "mul", lambda a, b: squares.append(a is b) or mul(a, b))
        h = bp.mul_block(f, f, 64)
        assert any(squares) and not all(squares)
        assert [c.to_exact_text() for c in h] == \
            [c.to_exact_text() for c in bp.mul_block(f, copy, 64)]

    def test_shared_terms_with_other_blocks_are_no_square(self):
        # a square is one terms list and one blocks list; the same terms with
        # other blocks (here one run over the first half) multiply as two factors
        rng = random.Random(9)
        f = rand_poly(rng, 60, slope=-40)
        plan = bp.plan_blocks(f, f, 64)
        assert plan.blocks_g is plan.blocks_f
        terms, c = plan.terms_f, plan.scale
        other = [(0, len(f) // 2)]
        shared = bp._conv_sums([bp.BlockPlan(terms, plan.blocks_f, terms, other, c)], 2 * len(f) - 1)
        copied = bp._conv_sums([bp.BlockPlan(terms, plan.blocks_f, list(terms), other, c)],
                               2 * len(f) - 1)
        assert shared == copied

    def test_precision_below_2_rejected(self):
        for n in (5, 40):  # schoolbook and block route
            f = BallPoly.from_ints(range(1, n))
            with pytest.raises(ValueError):
                bp.mul_block(f, f, 1)

    def test_small_degree_dispatches_to_schoolbook(self):
        f = rand_poly(random.Random(7), 5)
        g = rand_poly(random.Random(8), 5)
        assert [c.to_exact_text() for c in bp.mul_block(f, g, 53)] == \
               [c.to_exact_text() for c in bp.mul_schoolbook(f, g, 53)]

    def test_powering_stability(self):
        # squaring the exponential series prefix must not blow up radii
        n, prec = 64, 128
        fact = 1
        cs = [Ball.from_int(1)]
        for k in range(1, n):
            fact *= k
            cs.append(ball.div(Ball.from_int(1), Ball.from_int(fact), prec))
        a = BallPoly(cs)
        def min_acc(p):
            worst = ball.ACC_EXACT
            for c in p.coeffs:
                if not c.mid.is_zero():
                    worst = min(worst, ball.rel_accuracy_bits(c))
            return worst
        prev = min_acc(a)
        cur = a
        for _ in range(4):
            cur = bp.BallPoly(bp.mul_block(cur, cur, prec).coeffs[:n])
            acc = min_acc(cur)
            assert acc >= prev - 8, (prev, acc)
            prev = acc



def wide_poly(rng, n):
    """Zeros of every kind, a slope that changes sign, and far-off exponents."""
    slope, bend = rng.choice([-12, -3, 0, 3, 12]), rng.randrange(n)
    cs = []
    for k in range(n):
        e = (slope * k if k < bend else slope * (2 * bend - k)) + rng.randrange(-20, 21)
        if rng.random() < 0.1:
            e += rng.choice([-1, 1]) * rng.randrange(200, 3000)
        u = rng.random()
        mid = bf.ZERO if u < 0.2 else BigFloat.from_man_exp(
            (rng.getrandbits(rng.randrange(1, 70)) | 1) * rng.choice([1, -1]), e)
        r = mag.ZERO if 0.1 < u < 0.4 else mag.from_man_exp_upper(
            rng.getrandbits(30) | 1, e - rng.randrange(0, 300))
        cs.append(Ball(mid, r))
    return BallPoly(cs)


def up30(q):
    return round_fraction_oracle(q, 30, Rounding.UP)


def mag_of(q):
    """The magnitude of a dyadic rational of at most 30 bits."""
    return mag.from_man_exp_upper(q.numerator, 1 - q.denominator.bit_length())


class TestBlockRadius:
    def test_radius_sums_round_up_once(self):
        # each radius is the exact sum |A| b + a (|B| + b), with |A| and
        # |B| + b 30-bit magnitudes, plus the midpoint's half ulp when it is
        # inexact, rounded up once
        rng = random.Random(41)
        for _ in range(25):
            f, g = wide_poly(rng, rng.randrange(17, 60)), wide_poly(rng, rng.randrange(17, 60))
            prec = rng.choice([32, 64, 200])
            h = bp.mul_block(f, g, prec)
            mids = exact_conv([c.mid.to_fraction() for c in f], [c.mid.to_fraction() for c in g])
            rad1 = exact_conv([mag.from_bigfloat_upper(c.mid).to_fraction() for c in f],
                              [c.rad.to_fraction() for c in g])
            rad2 = exact_conv([c.rad.to_fraction() for c in f],
                              [mag.add(mag.from_bigfloat_upper(c.mid), c.rad).to_fraction()
                               for c in g])
            for k, c in enumerate(h):
                half = Fraction(2) ** (c.mid.exp - prec - 1) if c.mid.to_fraction() != mids[k] else 0
                assert c.rad == mag_of(up30(rad1[k] + rad2[k] + half)), k

    def test_far_apart_terms_still_round_up(self):
        # the two radius terms of coefficients 1..16 are 1000 bits apart, in
        # either order, and their exact sum rounds up once
        one, tiny = mag.ONE, mag.pow2(-1000)
        g = BallPoly.from_ints([1] * 17)
        for x in ([one, tiny], [tiny, one]):
            f = BallPoly([Ball(bf.ZERO, r) for r in x] + [Ball(bf.ZERO)] * 15)
            h = bp.mul_block(f, g, 64)
            assert all(c.mid.is_zero() for c in h)
            want = [x[0]] + [mag.add(one, tiny)] * 16 + [x[1]] + [mag.ZERO] * 15
            assert [c.rad for c in h] == want
            assert h[1].rad.to_fraction() == 1 + Fraction(1, 2 ** 29)

    def test_midpoints_round_once_with_far_apart_terms(self):
        rng = random.Random(42)
        for _ in range(20):
            f = wide_poly(rng, rng.randrange(17, 50))
            g = wide_poly(rng, rng.randrange(17, 50))
            h = bp.mul_block(f, g, 64)
            exact = exact_conv([c.mid.to_fraction() for c in f], [c.mid.to_fraction() for c in g])
            for k, q in enumerate(exact):
                assert h[k].mid.to_fraction() == round_fraction_oracle(q, 64, Rounding.NEAREST_EVEN)
                assert contains_fraction(h[k], q)

    def test_infinite_radius(self):
        rng = random.Random(43)
        f, g = rand_poly(rng, 20), rand_poly(rng, 24)
        f.coeffs[3] = Ball(f[3].mid, mag.INF)
        h = bp.mul_block(f, g, 64)
        assert [c.rad.is_inf() for c in h] == [3 <= k < 3 + len(g) for k in range(len(h))]
        h = bp.mul_block(g, f, 64)
        assert [c.rad.is_inf() for c in h] == [3 <= k < 3 + len(g) for k in range(len(h))]

    def test_figure_product_makes_no_addmul_calls(self, monkeypatch):
        # the radii of the n = 1000 figure-regime product need no O(n^2)
        # magnitude arithmetic: neither addmul nor the product-sum, and the
        # exact upward sum only once per output coefficient
        n, prec = 1000, 333
        fact = 1
        cs = [Ball.from_int(1)]
        for k in range(1, n):
            fact *= k
            cs.append(ball.div(Ball.from_int(1), Ball.from_int(fact), prec))
        f = BallPoly(cs)
        calls = []
        for name in ("addmul", "dot_upper", "sum_upper"):
            fn = getattr(mag, name)
            monkeypatch.setattr(mag, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        h = bp.mul_block(f, f, prec)
        assert len(h) == 2 * n - 1 == calls.count("sum_upper") == len(calls)
        calls.clear()
        bp.mul_schoolbook(BallPoly(cs[2:5]), BallPoly(cs[2:5]), prec)
        # the spies do see the schoolbook's radii: each output coefficient
        # but the exact (1/2)^2 has one, and without them none would reach
        # sum_upper (an exact or plain half-ulp radius needs no sum)
        assert calls == ["sum_upper"] * 4

class TestAddSub:
    def test_exact(self):
        f, g = BallPoly.from_ints([1, 2, 3]), BallPoly.from_ints([4, -5])
        assert [c.mid.to_fraction() for c in bp.add(f, g, 53)] == [5, -3, 3]
        assert [c.mid.to_fraction() for c in bp.sub(f, g, 53)] == [-3, 7, 3]
        assert [c.mid.to_fraction() for c in bp.sub(g, f, 53)] == [3, -7, -3]

    def test_containment(self):
        rng = random.Random(12)
        f, g = rand_poly(rng, 7), rand_poly(rng, 11)
        fp = [sample_in_ball(c, rng) for c in f] + [0] * 4
        gp = [sample_in_ball(c, rng) for c in g]
        for op, sign in ((bp.add, 1), (bp.sub, -1)):
            h = op(f, g, 20)
            assert len(h) == 11
            for k in range(11):
                assert ball.contains_point(h[k], fp[k] + sign * gp[k])


class TestMullow:
    def test_zero_length(self):
        assert len(bp.mullow(BallPoly.from_ints([1, 2]), BallPoly.from_ints([3]), 0, 53)) == 0

    def test_agrees_with_truncated_full(self):
        rng = random.Random(9)
        f, g = rand_poly(rng, 20), rand_poly(rng, 20)
        full = bp.mul(f, g, 64)
        low = bp.mullow(f, g, 7, 64)
        assert len(low) == 7
        for a, b in zip(low, full.coeffs):
            assert a == b

    def test_containment(self):
        rng = random.Random(10)
        f, g = rand_poly(rng, 18), rand_poly(rng, 22)
        low = bp.mullow(f, g, 10, 64)
        fp = [sample_in_ball(c, rng) for c in f]
        gp = [sample_in_ball(c, rng) for c in g]
        conv = exact_conv(fp, gp)
        for k in range(10):
            assert ball.contains_point(low[k], conv[k])


class TestEvalDeriv:
    def test_evaluate(self):
        p = BallPoly.from_ints([1, 0, 1])
        v = bp.evaluate(p, Ball.from_int(2), 53)
        assert v.mid.to_fraction() == 5 and v.is_exact()

    def test_derivative_exact(self):
        d = bp.derivative(BallPoly.from_ints([0, 0, 0, 1]))
        assert [c.mid.to_fraction() for c in d] == [0, 0, 3]
        assert all(c.is_exact() for c in d)

    def test_evaluate_containment(self):
        rng = random.Random(11)
        for _ in range(100):
            f = rand_poly(rng, rng.randrange(1, 10))
            x = rand_poly(rng, 1)[0]
            v = bp.evaluate(f, x, 64)
            pt = sample_in_ball(x, rng)
            want = sum((sample_in_ball(c, rng) * 0 + c.mid.to_fraction()) * pt ** k
                       for k, c in enumerate(f.coeffs))
            # midpoints evaluated at a sampled point of x must be inside
            assert ball.contains_point(v, want)


class TestProductTree:
    def test_four_factors(self):
        factors = [(Ball.from_int(-k), Ball.from_int(1)) for k in range(4)]
        t = bp.product_tree(factors, 64)
        assert [c.mid.to_fraction() for c in t] == [0, -6, 11, -6, 1]

    def test_single_factor(self):
        t = bp.product_tree([(Ball.from_int(3), Ball.from_int(2))], 64)
        assert [c.mid.to_fraction() for c in t] == [3, 2]

    def test_stirling_accuracy(self):
        n = 100
        t = bp.product_tree([(Ball.from_int(-k), Ball.from_int(1)) for k in range(n)], 64)
        row = stirling_row(n)
        for k in range(n + 1):
            assert ball.contains_point(t[k], row[k])
            if row[k]:
                assert ball.rel_accuracy_bits(t[k]) >= 48

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bp.product_tree([], 64)


def stirling_row(n):
    # signed Stirling numbers of the first kind via s(m+1,k) = s(m,k-1) - m s(m,k)
    row = [0] * (n + 1)
    row[0] = 1
    for m in range(n):
        new = [0] * (n + 1)
        for k in range(m + 1, 0, -1):
            new[k] = row[k - 1] - m * row[k]
        new[0] = -m * row[0]
        row = new
    return row


class TestComplexPolyMul:
    def test_sampled_containment(self):
        rng = random.Random(12)
        fr, fi = rand_poly(rng, 8), rand_poly(rng, 8)
        gr, gi = rand_poly(rng, 9), rand_poly(rng, 9)
        hr, hi = bp.mul_complex(fr, fi, gr, gi, 64)
        a = [sample_in_ball(c, rng) for c in fr]
        b = [sample_in_ball(c, rng) for c in fi]
        c_ = [sample_in_ball(c, rng) for c in gr]
        d = [sample_in_ball(c, rng) for c in gi]
        re = [x - y for x, y in zip(exact_conv(a, c_), exact_conv(b, d))]
        im = [x + y for x, y in zip(exact_conv(a, d), exact_conv(b, c_))]
        for k in range(len(hr)):
            assert ball.contains_point(hr[k], re[k])
            assert ball.contains_point(hi[k], im[k])


    @staticmethod
    def exact_poly(rng, n):
        return BallPoly([Ball(BigFloat.from_man_exp(rng.randrange(1, 1 << 24) * rng.choice([1, -1]),
                                                    rng.randrange(-12, 12))) for _ in range(n)])

    def test_parts_round_once(self):
        # exact inputs: every part is the correctly rounded exact value, exact
        # iff its radius is 0, and otherwise carries half an ulp
        rng = random.Random(14)
        for n, prec in [(1, 8)] * 50 + [(rng.randrange(17, 40), 53) for _ in range(10)]:
            fr, fi, gr, gi = (self.exact_poly(rng, n) for _ in range(4))
            a, b, c_, d = ([x.mid.to_fraction() for x in p] for p in (fr, fi, gr, gi))
            re = [x - y for x, y in zip(exact_conv(a, c_), exact_conv(b, d))]
            im = [x + y for x, y in zip(exact_conv(a, d), exact_conv(b, c_))]
            for part, want in zip(bp.mul_complex(fr, fi, gr, gi, prec), (re, im)):
                assert len(part) == len(want)
                for x, q in zip(part, want):
                    m = x.mid.to_fraction()
                    assert m == round_fraction_oracle(q, prec, Rounding.NEAREST_EVEN)
                    assert x.is_exact() == (m == q)
                    if m != q:
                        assert x.rad == mag.pow2(x.mid.exp - prec - 1)


class TestDot:
    def test_non_finite_coefficients_match_ball_dot(self):
        rng = random.Random(15)
        for bad in (Ball(bf.NAN), Ball(bf.POS_INF), Ball(bf.ONE, mag.INF)):
            fs = [rand_poly(rng, rng.randrange(17, 30)) for _ in range(3)]
            gs = [rand_poly(rng, rng.randrange(17, 30)) for _ in range(3)]
            fs[1].coeffs[rng.randrange(len(fs[1]))] = bad
            h = bp.dot(fs, gs, 64)
            for k, c in enumerate(h):
                xs, ys = [], []
                for f, g in zip(fs, gs):
                    for i in range(len(f)):
                        if 0 <= k - i < len(g):
                            xs.append(f[i])
                            ys.append(g[k - i])
                assert c == ball.dot(xs, ys, 64), k

    def test_sum_of_two_products(self):
        rng = random.Random(16)
        f1, g1, f2, g2 = (rand_poly(rng, rng.randrange(17, 40), rad=False) for _ in range(4))
        h = bp.dot([f1, f2], [g1, g2], 64)
        assert len(h) == max(len(f1) + len(g1), len(f2) + len(g2)) - 1
        full = [Fraction(0)] * len(h)
        for f, g in ((f1, g1), (f2, g2)):
            for k, q in enumerate(exact_conv([c.mid.to_fraction() for c in f],
                                             [c.mid.to_fraction() for c in g])):
                full[k] += q
        for c, q in zip(h, full):
            assert c.mid.to_fraction() == round_fraction_oracle(q, 64, Rounding.NEAREST_EVEN)
            assert contains_fraction(c, q)

    def test_mismatched_lengths_raise(self):
        f = BallPoly.from_ints([1, 2])
        with pytest.raises(ValueError):
            bp.dot([f, f], [f], 53)
        with pytest.raises(ValueError):
            bp.dot([], [f], 53)

    def test_empty_polynomials(self):
        rng = random.Random(17)
        f, g = rand_poly(rng, 20), rand_poly(rng, 25)
        empty = BallPoly([])
        assert len(bp.dot([], [], 53)) == 0
        assert len(bp.dot([empty, f], [g, empty], 53)) == 0
        assert bp.dot([empty, f], [f, g], 53).coeffs == bp.mul_block(f, g, 53).coeffs


class TestText:
    def test_round_trip(self):
        rng = random.Random(13)
        f = rand_poly(rng, 9)
        assert BallPoly.from_text(f.to_text()).coeffs == f.coeffs
