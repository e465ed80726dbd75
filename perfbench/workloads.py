"""Turns the plain specs into midrad inputs and runs one op through the public API.

Building inputs happens outside the timed region; the returned thunk is the
op itself.  The product and factorial routines are rebuilt here from public
functions so that the benchmark does not depend on ``midrad.bench``.
"""

from __future__ import annotations

from midrad import ball, ballpoly, decimal_io, expreval
from midrad import magnitude as mag
from midrad.ball import Ball
from midrad.ballpoly import BallPoly
from midrad.bigfloat import BigFloat, Rounding


def ball_factorial(n: int, prec: int) -> Ball:
    """n! as a ball, by recursive halving of the product 1*2*...*n."""
    def fac(a: int, b: int) -> Ball:
        if b - a == 1:
            return Ball.from_int(b)
        m = (a + b) // 2
        return ball.mul(fac(a, m), fac(m, b), prec)
    return fac(0, n)


def exp_series_poly(n: int, prec: int) -> BallPoly:
    """sum_{k<n} x^k/k! with each 1/k! rounded to prec bits and its error in the radius."""
    coeffs, fact = [], 1
    for k in range(n):
        if k:
            fact *= k
        shift = prec - 1 + fact.bit_length()
        q, r = divmod(1 << shift, fact)
        if 2 * r > fact:
            q += 1
        rad = mag.from_man_exp_upper(1, -shift - 1) if r else mag.ZERO
        coeffs.append(Ball(BigFloat.from_man_exp(q, -shift), rad))
    return BallPoly(coeffs)


class Preparer:
    """Prepares ops; caches what does not depend on the seed."""

    def __init__(self):
        self._exprs = {}
        self._figure = {}

    def _expr(self, text: str):
        if text not in self._exprs:
            self._exprs[text] = expreval.parse_expr(text)
        return self._exprs[text]

    def prepare(self, op: tuple):
        """(input, thunk): the input the checker needs, and the op to time."""
        kind = op[0]
        if kind == "round":
            _, fn, man, e, mode = op
            expr = self._expr(f"{fn}(x)")
            x = {"x": Ball(BigFloat.from_man_exp(man, e - 53))}
            rnd = Rounding(mode)
            return x, lambda: expreval.eval_correctly_rounded(expr, x, 53, rnd)
        if kind == "eval":
            _, _, text, digits, max_prec, binding, _ = op
            expr = self._expr(text)
            cfg = (expreval.EvalConfig.for_digits(digits) if max_prec is None
                   else expreval.EvalConfig.for_digits(digits, max_prec=max_prec))
            env = {} if binding is None else {"x": decimal_io.from_decimal(binding)}

            def evaluate():
                r = expreval.eval_adaptive(expr, env, cfg)
                return r, decimal_io.to_decimal(r.value, digits)
            return env, evaluate
        if kind == "factorial":
            return None, lambda: ball_factorial(op[1], op[2])
        if kind == "falling":
            factors = [(Ball.from_int(-k), Ball.from_int(1)) for k in range(op[1])]
            return factors, lambda: ballpoly.product_tree(factors, op[2])
        if kind == "block_unit":
            f = BallPoly([Ball(BigFloat.from_man_exp(c, -53)) for c in op[1]])
            g = BallPoly([Ball(BigFloat.from_man_exp(c, -53)) for c in op[2]])
            return (f, g), lambda: ballpoly.mul_block(f, g, op[3])
        if kind == "block_figure":
            key = (op[1], op[2])
            if key not in self._figure:
                self._figure[key] = exp_series_poly(*key)
            f = self._figure[key]
            return f, lambda: ballpoly.mul_block(f, f, op[2])
        if kind == "write":
            _, man, exp2, rad_man, rad_exp2, digits = op
            x = Ball(BigFloat.from_man_exp(man, exp2),
                     mag.from_man_exp_upper(rad_man, rad_exp2) if rad_man else mag.ZERO)
            return x, lambda: decimal_io.to_decimal(x, digits)
        if kind == "read":
            return None, lambda: decimal_io.from_decimal(op[1])
        raise ValueError(f"unknown op kind {kind!r}")
