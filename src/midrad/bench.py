"""Benchmark kernels for the CLI: measurement scaffolding, not claims.

Emits CSV rows ``name,param,prec,seconds,metric`` where the metric is the
worst relative accuracy in bits (factorials, elementary functions), the
largest relative radius (polynomial multiplication) or the roundings per
second (correct rounding).
"""

from __future__ import annotations

import math
import random
import time

from . import ball
from . import ballpoly as bp
from . import elementary as el
from . import expreval
from .ball import Ball
from .bigfloat import BigFloat, Rounding


def ball_factorial(n: int, prec: int) -> Ball:
    """n! as a ball, by recursive halving of the product 1*2*...*n."""
    def fac(a: int, b: int) -> Ball:
        if b - a == 1:
            return Ball.from_int(b)
        m = a + (b - a) // 2
        return ball.mul(fac(a, m), fac(m, b), prec)

    if n < 1:
        return Ball.from_int(1)
    return fac(0, n)


def falling_factorial_poly(n: int, prec: int) -> bp.BallPoly:
    """x (x-1) ... (x-n+1) expanded with a balanced product tree; 1 for n < 1."""
    if n < 1:
        return bp.BallPoly([Ball.from_int(1)])
    factors = [(Ball.from_int(-k), Ball.from_int(1)) for k in range(n)]
    return bp.product_tree(factors, prec)


def _acc_to_relrad(acc) -> float:
    if acc == math.inf:
        return 0.0
    if acc == -math.inf:
        return math.inf
    try:
        return math.ldexp(1.0, -int(acc))
    except OverflowError:
        return math.inf


def bench_factorial(ns, precs, out):
    for n in ns:
        for prec in precs:
            t0 = time.perf_counter()
            r = ball_factorial(n, prec)
            dt = time.perf_counter() - t0
            out.write(f"factorial,{n},{prec},{dt:.6f},{ball.rel_accuracy_bits(r)}\n")


def bench_falling_factorial(ns, precs, out):
    for n in ns:
        for prec in precs:
            t0 = time.perf_counter()
            p = falling_factorial_poly(n, prec)
            dt = time.perf_counter() - t0
            worst = math.inf
            for c in p.coeffs:
                if not c.mid.is_zero():
                    worst = min(worst, ball.rel_accuracy_bits(c))
            out.write(f"falling-factorial,{n},{prec},{dt:.6f},{worst}\n")


def _unit_poly(n: int, seed: int) -> bp.BallPoly:
    import random
    rng = random.Random(seed)
    return bp.BallPoly([Ball(BigFloat.from_man_exp(rng.getrandbits(53) | 1, -53))
                        for _ in range(n)])


def bench_polymul(ns, precs, out):
    for n in ns:
        f = _unit_poly(n, seed=n)
        g = _unit_poly(n, seed=n + 1)
        for prec in precs:
            for name, fn in (("polymul-block", bp.mul_block),
                             ("polymul-schoolbook", bp.mul_schoolbook)):
                if name == "polymul-schoolbook" and n > 2000:
                    continue
                t0 = time.perf_counter()
                h = fn(f, g, prec)
                dt = time.perf_counter() - t0
                worst = 0.0
                for c in h.coeffs:
                    if not c.mid.is_zero():
                        worst = max(worst, _acc_to_relrad(ball.rel_accuracy_bits(c)))
                out.write(f"{name},{n},{prec},{dt:.6f},{worst:.3e}\n")


def bench_elementary(precs, out):
    """exp, log, sin and atan of 0.7 cut to prec bits, a full-width argument
    as the evaluator passes one: the best of three calls, the first of which
    also fills the constant caches."""
    for prec in precs:
        x = Ball(BigFloat.from_man_exp(7 * (1 << prec) // 10, -prec))
        for name in ("exp", "log", "sin", "atan"):
            fn = getattr(el, name)
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                r = fn(x, prec)
                best = min(best, time.perf_counter() - t0)
            out.write(f"{name},0.7,{prec},{best:.6f},{ball.rel_accuracy_bits(r)}\n")


# fn -> the range of e for arguments man 2^(e - 53), and whether they take both signs
_ROUND_DRAWS = {"exp": (-60, 8, True), "log": (-60, 60, False), "sin": (-12, 32, True),
                "atan": (-60, 60, True), "sqrt": (-60, 60, False)}


def round_args(n: int) -> dict:
    """fn -> n exact arguments man * 2^(e - 53) with 53-bit man, by the seeded
    draw of acceptance criterion 9 with n draws per function."""
    rng = random.Random(90210)
    args = {}
    for fn, (lo, hi, signed) in _ROUND_DRAWS.items():
        xs = args[fn] = []
        for _ in range(n):
            man = rng.getrandbits(53) | (1 << 52)
            e = rng.randrange(lo, hi)
            if signed and rng.random() < 0.5:
                man = -man
            xs.append(Ball(BigFloat.from_man_exp(man, e - 53)))
    return args


def bench_round(n: int, precs, out):
    """Correct rounding of f(x) to prec bits under all five modes for the n
    arguments of each function from ``round_args``, after one rounding that
    fills the constant caches: one row per function and precision, its
    metric the roundings per second."""
    if n < 1:
        raise ValueError("bench round needs --n of at least 1")
    args = round_args(n)
    for prec in precs:
        for fn in _ROUND_DRAWS:
            expr = expreval.parse_expr(fn + "(x)")
            expreval.eval_correctly_rounded(expr, {"x": args[fn][0]}, prec, Rounding.NEAREST_EVEN)
            t0 = time.perf_counter()
            for x in args[fn]:
                env = {"x": x}
                for rnd in Rounding:
                    expreval.eval_correctly_rounded(expr, env, prec, rnd)
            dt = time.perf_counter() - t0
            out.write(f"{fn},{5 * n},{prec},{dt:.6f},{5 * n / dt:.0f}\n")
