"""Print the exact results of a fixed-seed suite over every midrad layer.

Usage: python tools/same_results.py SRC_DIR
       python tools/same_results.py --compare A.txt B.txt

SRC_DIR is the directory that holds the ``midrad`` package (``src`` in a
checkout).  Each line is one result in exact text (``M*2^E`` midpoints and
radii, predicate answers, decimal strings, or the exception raised); the
last line is the SHA-256 of all the others.  Running it on two checkouts and
comparing the outputs (or just the hashes) shows whether a change kept every
result bit-identical.  It calls only public functions.  The magnitude
section calls ``magnitude.div_upper``, which older checkouts lack: there the
section stops with the exception as its last line, and that section is read
from the checkout's own copy of the tool, whose quotients sit on the same
lines.

``--compare`` reads two such outputs and prints, per section, how many
results are identical, keep their midpoints with a narrower or a wider
radius, moved, or changed otherwise (a printed digit, an answer).  A result
has moved when a midpoint changed, no radius is wider, and every new
midpoint lies inside its old ball (exact ``M*2^E`` and printed decimal
balls alike).  A result that is a bare magnitude on both sides (``0``,
``inf`` or ``M*2^E`` with M below 2^30, such as ``ball.upper_mag``'s) counts
as narrower or wider by its value.  It parses only the text, so it compares
outputs of any checkout.  It exits 1 when any result is wider or changed,
else 0.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
import sys
from decimal import Decimal


def _rand_bigfloat(rng, BigFloat, max_bits=64, exp_range=60):
    man = rng.getrandbits(rng.randrange(1, max_bits + 1)) | 1
    if rng.random() < 0.5:
        man = -man
    return BigFloat.from_man_exp(man, rng.randrange(-exp_range, exp_range + 1))


def _rand_mag(rng, mag, exp_range=60):
    if rng.random() < 0.05:
        return mag.ZERO
    if rng.random() < 0.1:  # the top mantissa, where rounding up carries
        man = (1 << 30) - 1
    else:
        man = rng.getrandbits(30) | (1 << 29)
    return mag.from_man_exp_upper(man, rng.randrange(-exp_range, exp_range + 1) - 30)


def _rand_ball(rng, m, max_bits=64, exp_range=40):
    mid = _rand_bigfloat(rng, m.BigFloat, max_bits, exp_range)
    u = rng.random()
    if u < 0.25:
        rad = m.magnitude.ZERO
    elif u < 0.3:  # radius above |mid|
        rad = m.magnitude.from_man_exp_upper(rng.getrandbits(20) + 1, mid.exp - 18)
    else:
        rad = m.magnitude.from_man_exp_upper(rng.getrandbits(16) + 1,
                                             mid.exp - rng.randrange(8, 120))
    return m.Ball(mid, rad)


def _bigfloat(rng, m, out):
    bf = m.bigfloat
    modes = list(m.Rounding)
    for _ in range(400):
        x, y = _rand_bigfloat(rng, m.BigFloat, 200), _rand_bigfloat(rng, m.BigFloat, 200)
        p, r = rng.randrange(2, 300), rng.choice(modes)
        for f in (bf.add, bf.sub, bf.mul, bf.div):
            out(f(x, y, p, r))
        out(bf.sqrt(abs(x), p, r), bf.round_to(x, p, r))
        xs = [_rand_bigfloat(rng, m.BigFloat, 100, 2000) for _ in range(rng.randrange(1, 12))]
        out(bf.vector_sum(xs, p, r))
    # last, so that every line above keeps its random draws: near
    # cancellation, x + (-x +- 2^k), and sums with tails of both signs far
    # below their heads, in any order
    for _ in range(300):
        x = _rand_bigfloat(rng, m.BigFloat, 200)
        p, r = rng.randrange(2, 300), rng.choice(modes)
        k = x.exp - rng.randrange(0, 400)
        lsb = min(x.lsb, k)
        y = m.BigFloat.from_man_exp((-x.sign * x.man << (x.lsb - lsb))
                                    + (rng.choice((-1, 1)) << (k - lsb)), lsb)
        out(bf.add(x, y, p, r), bf.sub(x, -y, p, r), bf.sub(y, -x, p, r))
        tails = [m.BigFloat.from_man_exp(rng.choice((-1, 1)) * (rng.getrandbits(60) | 1),
                                         k - rng.randrange(70, 3000))
                 for _ in range(rng.randrange(1, 6))]
        xs = [x, y] + tails
        rng.shuffle(xs)
        out(bf.vector_sum(xs, p, r), bf.vector_sum([x] + tails, p, r),
            bf.vector_sum([x, -x] + tails, p, r), bf.vector_sum(tails[::-1] + [x, y], p, r))


def _magnitude(rng, m, out):
    mag = m.magnitude
    for _ in range(1500):
        x, y, z = (_rand_mag(rng, mag) for _ in range(3))
        out(mag.add(x, y), mag.mul(x, y), mag.addmul(z, x, y), mag.compare(x, y))
        out(mag.mul_int_upper(x, rng.randrange(0, 10 ** 12)),
            mag.div_upper((rng.randrange(1, 10 ** 12), 0), [(x, mag.ONE)]))
        b = _rand_bigfloat(rng, m.BigFloat, 100)
        out(mag.from_bigfloat_upper(b), mag.div_upper(abs(b), [(x, mag.ONE)]))
    top = (1 << 30) - 1
    for e in range(-3, 4):
        t = mag.from_man_exp_upper(top, e)
        for d in (0, 1, 2, 31, 32, 33, 34, 60, 61, 62, 63, 200):
            out(mag.add(t, mag.pow2(e - d)), mag.add(mag.pow2(e - d), t),
                mag.addmul(t, mag.pow2(e - d), mag.pow2(-3)))
        for bits in (29, 30, 31, 45):
            out(mag.from_bigfloat_upper(m.BigFloat.from_man_exp((1 << bits) - 1, e)))


def _ball(rng, m, out):
    b = m.ball
    for _ in range(1500):
        x, y, z = (_rand_ball(rng, m) for _ in range(3))
        p = rng.choice((2, 3, 10, 53, 64, 100, 333, 1000))
        out(b.add(x, y, p), b.sub(x, y, p), b.mul(x, y, p), b.sqr(x, p),
            b.fma(z, x, y, p), b.div(x, y, p), b.sqrt(x, p), b.round_to(x, p))
        n = rng.randrange(-10 ** 9, 10 ** 9) or 7
        out(b.mul_int(x, n, p), b.div_int(x, n, p), b.scale_2exp(x, rng.randrange(-99, 99)))
        # near-touching pairs exercise the exact predicates
        w = m.Ball(x.mid, m.magnitude.add(x.rad, y.rad))
        q = x.mid.to_fraction() + rng.choice((-1, 1)) * x.rad.to_fraction()
        out(b.contains(x, y), b.contains(w, x), b.contains(x, w), b.overlaps(x, y),
            b.overlaps(w, y), b.contains_point(x, q), b.contains_point(x, q / 3),
            b.contains_point(w, x.mid.to_fraction()))
        out(b.rel_accuracy_bits(x), b.can_round(x, rng.randrange(2, 60), rng.choice(list(m.Rounding))),
            b.upper_mag(x), b.lower_bound(x), b.upper_bound(x))
    specials = [b.indeterminate(), b.whole_line(), m.Ball(m.bigfloat.POS_INF),
                m.Ball(m.bigfloat.NEG_INF), m.Ball(m.bigfloat.ZERO), b.ONE]
    for x in specials:
        for y in specials:
            out(b.add(x, y, 53), b.mul(x, y, 53), b.fma(x, y, y, 53), b.div(x, y, 53),
                b.contains(x, y), b.overlaps(x, y))
        out(b.sqrt(x, 53), b.mul_int(x, 3, 53), b.div_int(x, 3, 53))
    # last, so that every line above keeps its random draws: long radius
    # sums, with radius exponents spread over 300 bits
    for _ in range(400):
        xs, ys = ([m.Ball(_rand_bigfloat(rng, m.BigFloat, 100, 40), _rand_mag(rng, m.magnitude, 150))
                   for _ in range(n)] for n in [rng.randrange(2, 10)] * 2)
        out(b.dot(xs, ys, rng.choice((2, 53, 64, 333)), _rand_ball(rng, m) if rng.random() < 0.3 else None))
    # last as well: division by ints from 2^30 to 3^40, and quotients and
    # roots of balls whose radii reach half their midpoints
    for _ in range(300):
        x = _rand_ball(rng, m, 200)
        n = rng.randrange(1 << 30, 3 ** 40) * rng.choice((-1, 1))
        out(b.div_int(x, n, rng.choice((2, 53, 64, 333))))
        x, y = (m.Ball(v, m.magnitude.from_man_exp_upper(rng.getrandbits(30) | 1,
                                                         v.exp - 32 - rng.randrange(0, 40)))
                for v in (_rand_bigfloat(rng, m.BigFloat, 200, 40) for _ in range(2)))
        p = rng.choice((2, 53, 64, 333))
        out(b.div(x, y, p), b.div(y, x, p), b.sqrt(m.Ball(abs(x.mid), x.rad), p))


def _elementary(rng, m, out):
    el, b = m.elementary, m.ball
    for p in (53, 333, 1000):
        for _ in range(60):
            x = _rand_ball(rng, m, 80, 12)
            out(el.exp(x, p), el.log(x, p), el.sin_cos(x, p), el.atan(x, p),
                el.sinh_cosh(x, p), el.power(x, m.Ball.from_int(rng.randrange(-9, 9)), p),
                el.power(b.sqrt(b.mul(x, x, p), p), _rand_ball(rng, m, 20, 3), p))
        for v in (1, 2, 3, -1, 10 ** 6, 12345):
            x = m.Ball.from_int(v)
            out(el.exp(x, p), el.log(x, p), el.sin_cos(x, p), el.atan(x, p))
        for e in (-5000, -200, 200, 5000, 10 ** 5):  # large multiples of log 2 and pi
            x = m.Ball.from_man_exp(rng.getrandbits(60) | 1, e - 60)
            out(el.log(x, p), el.exp(b.scale_2exp(x, -e + rng.randrange(1, 14)), p),
                el.sin_cos(x, p) if e < 2000 else el.atan(x, p))
    for p in (2, 10, 53, 64, 100, 200, 333, 500, 1000, 2000, 4000, 8000, 16000, 20000):
        out(el.const_pi(p), el.const_log2(p))
    # last, so that every line above keeps its random draws: the widths of
    # 1000- and 3000-digit evaluation, where the argument reductions halve
    # and double many times
    for p in (3400, 10 ** 4):
        for x in (m.Ball.from_int(3), m.Ball.from_man_exp(5, -3), m.Ball.from_man_exp(12345, -20)):
            out(el.exp(x, p), el.log(x, p), el.sin_cos(x, p), el.atan(x, p))
    # last as well: cos of balls around 0 and sin of balls around +-pi/2,
    # where |mid| + rad passes 1, with radii from 2^-200 to 2^-10
    half_pi = b.scale_2exp(el.const_pi(64), -1).mid
    for p in (53, 333):
        for _ in range(20):
            rad = m.magnitude.pow2(-rng.randrange(10, 201))
            d = m.BigFloat.from_man_exp(rng.getrandbits(30) - (1 << 29), -rng.randrange(30, 230))
            out(el.cos(m.Ball(d, rad), p), el.sin(m.Ball(half_pi, rad), p),
                el.sin(m.Ball(-half_pi, rad), p))
    # last as well: 20-digit literals, which carry about 95 bits, at the
    # working precisions of 300-, 1000- and 5000-digit evaluation
    for _ in range(5):
        digits = str(rng.randrange(10 ** 19, 10 ** 20))
        x = m.decimal_io.from_decimal(digits[0] + "." + digits[1:])
        for p in (1032, 4128, 16384):
            out(el.exp(x, p), el.log(x, p), el.sin_cos(x, p), el.atan(x, p))


def _poly(rng, m, out):
    bp, mag = m.ballpoly, m.magnitude
    for i in range(300):
        p = rng.choice((20, 53, 64, 128, 300))

        def rand_poly(n):
            cs = []
            for _ in range(n):
                if rng.random() < 0.05:
                    cs.append(m.Ball(m.bigfloat.ZERO))
                    continue
                mid = _rand_bigfloat(rng, m.BigFloat, rng.choice((8, 64, 200)), 30)
                rad = (mag.from_man_exp_upper(rng.getrandbits(20) + 1, mid.exp - rng.randrange(5, 90))
                       if rng.random() < 0.6 else mag.ZERO)
                cs.append(m.Ball(mid, rad))
            return bp.BallPoly(cs)

        f = rand_poly(rng.randrange(1, 70 if i % 3 else 8))
        g = rand_poly(rng.randrange(1, 70 if i % 3 else 8))
        out(*bp.mul_block(f, g, p).coeffs)
        if i % 10 == 0:
            out(*bp.mul_schoolbook(f, g, p).coeffs, *bp.add(f, g, p).coeffs,
                *bp.sub(f, g, p).coeffs, bp.evaluate(f, _rand_ball(rng, m, 30, 2), p))
    out(*bp.product_tree([(m.Ball.from_int(-k), m.Ball.from_int(1)) for k in range(60)], 64).coeffs)
    for i in range(40):  # last, so that every line above keeps its random draws
        p = rng.choice((20, 53, 128))
        fr, fi, gr, gi = (rand_poly(rng.randrange(1, 8) if i % 2 else rng.randrange(17, 50))
                          for _ in range(4))
        hr, hi = bp.mul_complex(fr, fi, gr, gi, p)
        out(*hr.coeffs, *hi.coeffs)
    # last as well: block products that pack to a megabit and more, the
    # square of the 1000 coefficients 1/k! at 333 bits, the falling factorial
    # at n = 1000 and one signed product of 500 coefficients of 500 bits
    fact, cs = 1, []
    for k in range(1000):
        fact *= k or 1
        shift = 332 + fact.bit_length()
        q, r = divmod(1 << shift, fact)
        if 2 * r > fact:
            q += 1
        cs.append(m.Ball(m.BigFloat.from_man_exp(q, -shift),
                         mag.from_man_exp_upper(1, -shift - 1) if r else mag.ZERO))
    f = bp.BallPoly(cs)
    out(*bp.mul_block(f, f, 333).coeffs)
    out(*bp.product_tree([(m.Ball.from_int(-k), m.Ball.from_int(1)) for k in range(1000)], 64).coeffs)
    f, g = (bp.BallPoly([m.Ball(m.BigFloat.from_man_exp(rng.getrandbits(500) - (1 << 499), -500))
                         for _ in range(500)]) for _ in range(2))
    out(*bp.mul_block(f, g, 500).coeffs)


def _complex(rng, m, out):
    cb = m.complexbox
    for _ in range(80):
        x = cb.ComplexBox(_rand_ball(rng, m, 12, 4), _rand_ball(rng, m, 12, 4))
        y = cb.ComplexBox(_rand_ball(rng, m, 60, 6), _rand_ball(rng, m, 60, 6))
        for p in (53, 200):
            for r in (cb.mul(x, y, p), cb.div(x, y, p), cb.sqrt(x, p), cb.exp(x, p),
                      cb.log(x, p), *cb.sin_cos(x, p), cb.tan(x, p)):
                out(r.to_exact_text(), cb.to_decimal(r, 20))


def _decimal(rng, m, out):
    dio = m.decimal_io
    for _ in range(20000):
        x = _rand_ball(rng, m, rng.choice((8, 64, 300)), rng.choice((30, 120, 3000)))
        s = dio.to_decimal(x, rng.randrange(1, 40))
        out(s, dio.from_decimal(s))
    for g in range(13):  # radii with 2 rad = 10^g exactly, and one ulp either side
        for dm in (-1, 0, 1):
            rad = m.magnitude.from_man_exp_upper(5 ** g + dm, g - 1)
            for e10 in range(g - 2, g + 18, 3):
                x = m.Ball(m.BigFloat.from_man_exp(rng.getrandbits(70) | 1, int(e10 * 3.33) - 70), rad)
                out(dio.to_decimal(x, rng.randrange(1, 25)))
    for s in ("0.1", "-3.25", "1e-300", "[1.5 +/- 0.25]", "[+/- 1.23e-8]", "7e30000",
              "7e3000001", "[1 +/- 7e-300001]", "12345678901234567890e-25", ".5"):
        x = dio.from_decimal(s)
        out(x, dio.to_decimal(x, 30), dio.to_decimal(x, 10 ** 4))


def _expreval(rng, m, out):
    ev = m.expreval
    for src in ("exp(1)", "log(2)", "pi", "sin(pi + exp(-100))", "atan(1) * 4 - pi",
                "sqrt(2) ^ 2", "pow(2, 0.5)", "1/3 + 2/3", "exp(-1000) + 1", "x * x - 2"):
        e = ev.parse_expr(src)
        env = {"x": m.decimal_io.from_decimal("1.4142135623730950488")}
        for digits in (5, 30, 300):
            r = ev.eval_adaptive(e, env, ev.EvalConfig.for_digits(digits, max_prec=1 << 14))
            out(r.value, r.prec, r.converged, m.decimal_io.to_decimal(r.value, digits))
        for rnd in m.Rounding:
            try:
                out(ev.eval_correctly_rounded(e, env, 53, rnd, ev.EvalConfig(max_prec=1 << 12)))
            except ev.UnconvergedError as ex:
                out(f"UnconvergedError: {ex}")


def _can_round(rng, m, out):
    """ball.can_round where it decides on a single unit: balls with an
    endpoint on, one unit below or one unit above a prec-bit grid point or
    a point halfway between two, for every prec from 2 to 64, both signs
    and radii from half a grid step down to 2^-120 of one, each line the
    answers in the five modes."""
    mag, modes = m.magnitude, list(m.Rounding)
    for p in range(2, 65):
        for _ in range(6):
            g = rng.choice((1 << (p - 1), (1 << p) - 1, rng.getrandbits(p) | 1 << (p - 1)))
            e = rng.randrange(-80, 80)  # the point (2 g + half) 2^(e - 1)
            half = rng.randrange(2)
            rm, rl = rng.getrandbits(30) | 1 << 29, e - 30 - rng.randrange(1, 121)
            t = min(e - 1, rl) - rng.randrange(0, 8)  # the unit 2^t
            point, rad = (2 * g + half) << (e - 1 - t), rm << (rl - t)
            for sign in (1, -1):
                for d in (-1, 0, 1):
                    for mid in (point + rad + d, point - rad + d):  # lo or hi at the point
                        x = m.Ball(m.BigFloat.from_man_exp(sign * mid, t),
                                   mag.from_man_exp_upper(rm, rl))
                        out(tuple(m.ball.can_round(x, p, r) for r in modes))


def _exact_ops(rng, m, out):
    """Exact operands: mul, dot, fma, add and sub of balls with zero radii
    at every prec from 2 to 200, their products just below, at and above
    prec bits, some of them powers of two or zero and some summing to 0;
    block products of exact 53-bit polynomials (n = 20 and 200) at three
    precisions; and the falling factorial x (x-1) ... (x-19)."""
    b, bp, zero = m.ball, m.ballpoly, m.Ball(m.bigfloat.ZERO)

    def exact(bits):
        if rng.random() < 0.05:
            return zero
        man = 1 if rng.random() < 0.1 else rng.getrandbits(bits) | 1 | 1 << (bits - 1)
        return m.Ball(m.BigFloat.from_man_exp(rng.choice((1, -1)) * man, rng.randrange(-80, 80)))

    for p in range(2, 201):
        for _ in range(4):
            ka = rng.randrange(1, p + 1)
            x, y, z = exact(ka), exact(max(1, p - ka + rng.randrange(-1, 3))), exact(p)
            xs = [exact(rng.randrange(1, p + 1)) for _ in range(rng.randrange(1, 6))]
            ys = [exact(rng.randrange(1, p + 1)) for _ in xs]
            if rng.random() < 0.3:  # a sum that cancels to exactly 0
                xs, ys = xs + xs, ys + [-v for v in ys]
            out(b.mul(x, y, p), b.fma(z, x, y, p), b.add(x, y, p), b.sub(x, z, p),
                b.dot(xs, ys, p), b.dot(xs, ys, p, z))
    for n in (20, 200):
        f, g = ([m.Ball(m.BigFloat.from_man_exp(rng.choice((1, -1)) * (rng.getrandbits(53) | 1), -53))
                 for _ in range(n)] for _ in range(2))
        for p in (53, 64, 200):
            out(*bp.mul_block(bp.BallPoly(f), bp.BallPoly(g), p))
    out(*m.bench.falling_factorial_poly(20, 64))


def _mixed_dot(rng, m, out):
    """dot, fma, add and sub over operands that mix exact balls, balls with
    radii, zero and infinite radii and zero, infinite and NaN midpoints, at
    precisions from 2 to 333."""
    b, bf, mag = m.ball, m.bigfloat, m.magnitude
    mids = (bf.ZERO, bf.POS_INF, bf.NEG_INF, bf.NAN)

    def operand():
        x = _rand_ball(rng, m, rng.choice((8, 64, 200)), 40)
        u = rng.random()
        if u < 0.3:
            x = m.Ball(x.mid)
        elif u < 0.35:
            x = m.Ball(x.mid, mag.INF)
        if rng.random() < 0.1:
            x = m.Ball(rng.choice(mids), x.rad)
        return x

    for _ in range(1500):
        n = rng.randrange(1, 9)
        xs, ys = [operand() for _ in range(n)], [operand() for _ in range(n)]
        z = operand()
        p = rng.choice((2, 3, 10, 53, 64, 333))
        out(b.dot(xs, ys, p), b.dot(xs, ys, p, z), b.fma(z, xs[0], ys[0], p),
            b.add(xs[0], ys[0], p), b.sub(xs[0], z, p))


def _rounding(rng, m, out):
    """Every rounding on ints: to_int_nearest at, and one unit beside, the
    ties k + 1/2 of both signs; ball.round_to at every prec from 2 to 200,
    with and without a radius, of midpoints at a tie, one bit longer and far
    longer; atan at |x| >= 2^(prec+8) and at +-inf, with zero, small, large
    and infinite radii; and bf.round_to, div and sqrt in all five modes,
    rounded and exact."""
    b, bf, mag, el = m.ball, m.bigfloat, m.magnitude, m.elementary
    BigFloat, modes = m.BigFloat, list(m.Rounding)
    for _ in range(300):
        k, t = rng.getrandbits(rng.randrange(0, 80)), rng.randrange(1, 60)
        for d in (-1, 0, 1):
            out(*(bf.to_int_nearest(BigFloat.from_man_exp(s * (((2 * k + 1) << (t - 1)) + d), -t))
                  for s in (1, -1)))
    for p in range(2, 201):
        for bits in (p + 1, p + 1, 2 * p + 10, 400):
            man = rng.getrandbits(bits) | 1 << (bits - 1) | 1  # bits = p + 1: a tie
            x = _rand_ball(rng, m, 8, 60)
            x = m.Ball(BigFloat.from_man_exp(rng.choice((1, -1)) * man, x.mid.lsb), x.rad)
            out(b.round_to(x, p), b.round_to(m.Ball(x.mid), p))
        out(*(b.round_to(m.Ball(v, _rand_mag(rng, mag)), p)
              for v in (bf.ZERO, bf.POS_INF, bf.NEG_INF, bf.NAN)))
    rads = (mag.ZERO, mag.pow2(-200), mag.pow2(-10), mag.pow2(3), mag.pow2(40), mag.INF)
    for p in (2, 3, 10, 53, 64, 200, 333):
        for e in (p + 9, p + 10, p + rng.randrange(11, 200), 10 ** 6):
            man = rng.getrandbits(rng.randrange(1, 100)) | 1
            for s in (1, -1):
                mid = BigFloat.from_man_exp(s * man, e - man.bit_length())
                out(*(el.atan(m.Ball(mid, r), p) for r in rads))
        out(*(el.atan(m.Ball(v, r), p) for v in (bf.POS_INF, bf.NEG_INF) for r in rads))
    for _ in range(300):
        x, y = _rand_bigfloat(rng, BigFloat, 200), _rand_bigfloat(rng, BigFloat, 100)
        p = rng.randrange(2, 300)
        xy = bf.mul_exact(x, y)
        for r in modes:
            out(bf.round_to(x, p, r), bf.div(x, y, p, r), bf.div(xy, y, p, r),
                bf.sqrt(abs(x), p, r), bf.sqrt(bf.mul_exact(x, x), p, r))


SECTIONS = (_bigfloat, _magnitude, _ball, _elementary, _poly, _complex, _decimal, _expreval,
            _can_round, _exact_ops, _mixed_dot, _rounding)


def _text(v) -> str:
    if isinstance(v, tuple):
        return "(" + ", ".join(_text(t) for t in v) + ")"
    for attr in ("to_exact_text", "to_text"):
        if hasattr(v, attr):
            return getattr(v, attr)()
    return repr(v)


def results(sections=SECTIONS, seed: int = 1611):
    """Yield one text line per result of the given sections."""
    import midrad as m
    for section in sections:
        rng = random.Random(f"{seed}:{section.__name__}")
        lines = []

        def out(*values):
            for v in values:
                lines.append(f"{section.__name__[1:]} {_text(v)}")

        try:
            section(rng, m, out)
        except Exception as ex:  # the failure itself is a result to compare
            lines.append(f"{section.__name__[1:]} raised {type(ex).__name__}: {ex}")
        yield from lines


def digest(sections=SECTIONS, seed: int = 1611, echo=None) -> str:
    """SHA-256 hex digest of the result lines, each passed to echo first."""
    h = hashlib.sha256()
    for line in results(sections, seed):
        if echo:
            echo(line)
        h.update(line.encode() + b"\n")
    return h.hexdigest()


# (mid; rad) in exact text, and [mid +/- rad] printed in decimal
_BALL = re.compile(r"\(([^()\[\];]+); ([^()\[\];]+)\)|\[([^\[\]]*?) ?\+/- ([^\[\]]+)\]")
# a bare magnitude: 0, inf or M*2^E with M below 2^30
_MAG = re.compile(r"0|inf|(\d{1,10})\*2\^-?\d+")
CLASSES = ("identical", "narrower", "wider", "moved", "changed")
# the widest exponent spread (bits, decimal digits) at which _inside still
# compares a midpoint with an old ball exactly; beyond it the result counts
# as changed
_SPREAD_LIMIT = {2: 1 << 25, 10: 10 ** 5}


def _rad_key(text: str) -> tuple:
    """A sort key with the order of the radius values, exact and cheap for
    any exponent: M*2^E, 0 and inf, or a decimal such as 1.23e-5."""
    if text in ("0", "inf"):
        return (text == "inf") * 2,
    if "*2^" not in text:
        return 1, Decimal(text)
    m, _, e = text.partition("*2^")
    m = int(m)
    return 1, int(e) + m.bit_length(), m << (64 - m.bit_length())


def _scaled(text: str):
    """(m, base, e) with value m base^e for M*2^E (base 2), 0 or a decimal
    such as -1.5e-7 (base 10); None for any other text."""
    if "*2^" in text:
        m, _, e = text.partition("*2^")
        return int(m), 2, int(e)
    try:
        d = Decimal(text or "0")
    except ArithmeticError:
        return None
    if not d.is_finite():
        return None
    sign, digits, e = d.as_tuple()
    return (-1) ** sign * int("".join(map(str, digits))), 10, e


def _inside(mid: str, old_mid: str, old_rad: str) -> bool:
    """Does the new midpoint lie in the old ball?  Decided exactly on ints
    scaled to the least exponent, within _SPREAD_LIMIT."""
    vs = [_scaled(t) for t in (mid, old_mid, old_rad)]
    if None in vs[:2]:
        return False
    if old_rad == "inf":
        return True
    if vs[2] is None:
        return False
    bases = {b for m, b, _ in vs if m}
    if not bases:
        return True
    if len(bases) > 1:
        return False
    base = bases.pop()
    # |b - a| < 2 base^t <= r when both lie below base^t and r >= base^(t+1)
    size = (lambda m: m.bit_length()) if base == 2 else (lambda m: len(str(abs(m))))
    tops = [e + size(m) if m else -math.inf for m, _, e in vs]
    if vs[2][0] and max(tops[:2]) + 2 <= tops[2]:
        return True
    es = [e for m, _, e in vs if m]
    e0 = min(es)
    if max(es) - e0 > _SPREAD_LIMIT[base]:
        return False
    b, a, r = (m * base ** (e - e0) if m else 0 for m, _, e in vs)
    return abs(b - a) <= r


def _is_mag(text: str) -> bool:
    t = _MAG.fullmatch(text)
    return bool(t) and (t[1] is None or int(t[1]) < 1 << 30)


def classify(a: str, b: str) -> str:
    """One of CLASSES for the same result in two outputs: narrower or wider
    when only radii differ (wider if any radius grew) or when both are bare
    magnitudes (wider if it grew); moved when midpoints changed too but no
    radius grew and each new midpoint lies in its old ball; changed
    otherwise."""
    if a == b:
        return "identical"
    if _is_mag(a) and _is_mag(b):
        return "wider" if _rad_key(b) > _rad_key(a) else "narrower"
    balls_a, balls_b = _BALL.findall(a), _BALL.findall(b)
    if not balls_a or _BALL.sub("", a) != _BALL.sub("", b) or len(balls_a) != len(balls_b):
        return "changed"
    # each ball as (mid, rad): groups 0 and 1 in exact text, 2 and 3 printed
    pairs = [(x[0::2], x[1] or x[3], y[0::2], y[1] or y[3]) for x, y in zip(balls_a, balls_b)]
    wider = any(_rad_key(rb) > _rad_key(ra) for _, ra, _, rb in pairs)
    if all(ma == mb for ma, _, mb, _ in pairs):
        return "wider" if wider else "narrower"
    if wider or not all(ma == mb or _inside("".join(mb), "".join(ma), ra)
                        for ma, ra, mb, _ in pairs):
        return "changed"
    return "moved"


def compare(lines_a, lines_b) -> dict:
    """{section: {class: count}}, pairing the results of a section in order;
    a result present on one side only counts as changed."""
    def by_section(lines):
        out = {}
        for line in lines:
            section, _, text = line.rstrip("\n").partition(" ")
            if section != "sha256":
                out.setdefault(section, []).append(text)
        return out
    sa, sb = by_section(lines_a), by_section(lines_b)
    counts = {}
    for section in list(sa) + [s for s in sb if s not in sa]:
        ra, rb = sa.get(section, []), sb.get(section, [])
        c = counts[section] = dict.fromkeys(CLASSES, 0)
        for x, y in zip(ra, rb):
            c[classify(x, y)] += 1
        c["changed"] += abs(len(ra) - len(rb))
    return counts


def main(argv) -> int:
    sys.set_int_max_str_digits(0)
    if len(argv) == 4 and argv[1] == "--compare":
        with open(argv[2]) as fa, open(argv[3]) as fb:
            counts = compare(fa, fb)
        print(f"{'section':<12}" + "".join(f"{c:>11}" for c in CLASSES))
        for section, c in counts.items():
            print(f"{section:<12}" + "".join(f"{c[k]:>11}" for k in CLASSES))
        return 1 if any(c["wider"] or c["changed"] for c in counts.values()) else 0
    if len(argv) != 2:
        print("\n".join(__doc__.strip().splitlines()[2:4]), file=sys.stderr)
        return 1
    sys.path.insert(0, argv[1])
    print(f"sha256 {digest(echo=print)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
