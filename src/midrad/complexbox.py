"""Complex intervals in Cartesian form: a rectangle re x im of two balls.

mul, fma and div (through mul) are one ``ball.dot`` per part, so each part
is rounded once.

Functions follow the principal branch with -pi < im(log z) <= pi and the
phase of a negative real equal to +pi.  When a box crosses the cut, the
returned enclosure includes both one-sided limits (the jump is absorbed
into the imaginary radius) rather than silently picking a branch.

tan avoids the unstable sin/cos quotient for large |im z| by switching to
exponential forms that only ever evaluate small exponentials, so the result
stays finite (close to +-i) no matter how large the imaginary part is.
"""

from __future__ import annotations

from . import ball
from . import bigfloat as bf
from . import decimal_io
from . import elementary as el
from . import magnitude as mag
from .ball import Ball

__all__ = [
    "ComplexBox",
    "indeterminate",
    "add",
    "sub",
    "neg",
    "conj",
    "mul",
    "fma",
    "div",
    "sqrt",
    "exp",
    "log",
    "sin_cos",
    "tan",
    "to_decimal",
    "from_decimal",
]


class ComplexBox:
    """Immutable complex rectangle re + im*i."""

    __slots__ = ("re", "im")

    def __init__(self, re: Ball, im: Ball = ball.ZERO):
        self.re = re
        self.im = im

    @classmethod
    def from_int(cls, re: int, im: int = 0) -> "ComplexBox":
        return cls(Ball.from_int(re), Ball.from_int(im))

    def is_exact(self) -> bool:
        return self.re.is_exact() and self.im.is_exact()

    def is_indeterminate(self) -> bool:
        return self.re.is_indeterminate() or self.im.is_indeterminate()

    def to_exact_text(self) -> str:
        return f"({self.re.to_exact_text()}; {self.im.to_exact_text()})"

    def __eq__(self, other):
        if not isinstance(other, ComplexBox):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"ComplexBox<{self.to_exact_text()}>"


def indeterminate() -> ComplexBox:
    return ComplexBox(ball.indeterminate(), ball.indeterminate())


def add(x: ComplexBox, y: ComplexBox, prec: int) -> ComplexBox:
    return ComplexBox(ball.add(x.re, y.re, prec), ball.add(x.im, y.im, prec))


def sub(x: ComplexBox, y: ComplexBox, prec: int) -> ComplexBox:
    return ComplexBox(ball.sub(x.re, y.re, prec), ball.sub(x.im, y.im, prec))


def neg(x: ComplexBox) -> ComplexBox:
    return ComplexBox(ball.neg(x.re), ball.neg(x.im))


def conj(x: ComplexBox) -> ComplexBox:
    return ComplexBox(x.re, ball.neg(x.im))


def mul(x: ComplexBox, y: ComplexBox, prec: int) -> ComplexBox:
    return fma(ComplexBox(ball.ZERO), x, y, prec)


def fma(z: ComplexBox, x: ComplexBox, y: ComplexBox, prec: int) -> ComplexBox:
    """z + x*y: re = z.re + ac - bd and im = z.im + ad + bc, one ball.dot each."""
    xs = [x.re, x.im]
    return ComplexBox(ball.dot(xs, [y.re, ball.neg(y.im)], prec, z.re),
                      ball.dot(xs, [y.im, y.re], prec, z.im))


def _abs_sq(x: ComplexBox, prec: int) -> Ball:
    return ball.add(ball.sqr(x.re, prec), ball.sqr(x.im, prec), prec)


def div(x: ComplexBox, y: ComplexBox, prec: int) -> ComplexBox:
    """Multiply by the conjugate over a certified |y|^2 lower bound."""
    wp = prec + 8
    den = _abs_sq(y, wp)
    if den.mid.is_nan() or ball.lower_bound(den, 32).signum() <= 0:
        return indeterminate()
    num = mul(x, conj(y), wp)
    return ComplexBox(ball.div(num.re, den, prec), ball.div(num.im, den, prec))


def sqrt(x: ComplexBox, prec: int) -> ComplexBox:
    """Principal square root; boxes meeting 0 give an indeterminate result."""
    wp = prec + 8
    a, b = x.re, x.im
    if a.mid.is_nan() or b.mid.is_nan():
        return indeterminate()
    if ball.contains_point(a, 0) and ball.contains_point(b, 0):
        return indeterminate()
    if ball.upper_bound(b, 32).signum() < 0:
        return conj(sqrt(conj(x), prec))  # below the real axis: the mirror image
    r = ball.sqrt(_abs_sq(x, wp), wp)  # |z|
    if r.is_indeterminate():
        return indeterminate()
    if ball.lower_bound(a, 32).signum() >= 0:
        # right half-plane: u = sqrt((|z|+a)/2), v = b/(2u)
        u = ball.sqrt(ball.scale_2exp(ball.add(r, a, wp), -1), wp)
        v = ball.div(b, ball.scale_2exp(u, 1), wp)
        return ComplexBox(ball.round_to(u, prec), ball.round_to(v, prec))
    v2 = ball.sqrt(ball.scale_2exp(ball.sub(r, a, wp), -1), wp)
    if v2.is_indeterminate():
        return indeterminate()
    if ball.lower_bound(b, 32).signum() > 0 or (b.mid.is_zero() and b.rad.is_zero()):
        # upper half-plane, or exactly the negative real axis (phase +pi):
        # the root is on the +i side
        u = ball.div(b, ball.scale_2exp(v2, 1), wp)
        return ComplexBox(ball.round_to(u, prec), ball.round_to(v2, prec))
    # box crosses the cut: include both one-sided limits
    vhi = ball.upper_mag(v2)
    v2lo = ball.lower_bound(v2, 32)
    if v2lo.signum() <= 0:
        return indeterminate()
    uhi = mag.div_upper(bf.mul_exact(v2lo, bf.BigFloat.from_int(2)),
                        [(b.mid, mag.ONE), (b.rad, mag.ONE)])
    return ComplexBox(Ball(bf.ZERO, uhi), Ball(bf.ZERO, vhi))


def exp(x: ComplexBox, prec: int) -> ComplexBox:
    wp = prec + 8
    ea = el.exp(x.re, wp)
    s, c = el.sin_cos(x.im, wp)
    return ComplexBox(ball.mul(ea, c, prec), ball.mul(ea, s, prec))


def _principal_arg(x: ComplexBox, wp: int) -> Ball:
    """Principal argument of a box not containing 0."""
    a, b = x.re, x.im
    if ball.lower_bound(a, 32).signum() > 0:
        return el.atan(ball.div(b, a, wp), wp)
    pih = ball.scale_2exp(el._pi_ball(wp), -1)
    if ball.lower_bound(b, 32).signum() > 0:
        return ball.sub(pih, el.atan(ball.div(a, b, wp), wp), wp)
    if ball.upper_bound(b, 32).signum() < 0:
        return ball.sub(ball.neg(pih), el.atan(ball.div(a, b, wp), wp), wp)
    if ball.upper_bound(a, 32).signum() < 0:
        if b.mid.is_zero() and b.rad.is_zero():
            return ball.scale_2exp(pih, 1)  # phase of a negative real is +pi
        # crossing the cut: the image includes both limits, so enclose [-pi, pi]
        pi_hi = ball.upper_mag(ball.scale_2exp(pih, 1))
        return Ball(bf.ZERO, pi_hi)
    return ball.indeterminate()


def log(x: ComplexBox, prec: int) -> ComplexBox:
    """log|z| + i arg(z), principal branch."""
    wp = prec + 8
    if x.re.mid.is_nan() or x.im.mid.is_nan():
        return indeterminate()
    if ball.contains_point(x.re, 0) and ball.contains_point(x.im, 0):
        return indeterminate()
    m2 = _abs_sq(x, wp)
    re = ball.scale_2exp(el.log(m2, wp), -1)
    im = _principal_arg(x, wp)
    return ComplexBox(ball.round_to(re, prec), ball.round_to(im, prec))


def sin_cos(x: ComplexBox, prec: int) -> tuple[ComplexBox, ComplexBox]:
    wp = prec + 8
    sa, ca = el.sin_cos(x.re, wp)
    shb, chb = el.sinh_cosh(x.im, wp)
    s = ComplexBox(ball.mul(sa, chb, prec), ball.mul(ca, shb, prec))
    c = ComplexBox(ball.mul(ca, chb, prec), ball.neg(ball.mul(sa, shb, prec)))
    return s, c


def _mul_2i(x: ComplexBox) -> ComplexBox:
    # 2*i*(a+bi) = -2b + 2a i (exact)
    return ComplexBox(ball.scale_2exp(ball.neg(x.im), 1), ball.scale_2exp(x.re, 1))


def tan(x: ComplexBox, prec: int) -> ComplexBox:
    """Three-case tangent: quotient near the real axis, stable exponential
    forms when |mid(im z)| >= 1 (ties take the exponential branch)."""
    wp = prec + 8
    bm = x.im.mid
    if bm.is_nan() or x.re.mid.is_nan():
        return indeterminate()
    if bm.is_regular() or bm.is_inf():
        big = bm.is_inf() or bm.exp >= 1  # |mid(im z)| >= 1
    else:
        big = False
    if not big:
        s, c = sin_cos(x, wp)
        return div(s, c, prec)
    if bm.signum() < 0:
        return conj(tan(conj(x), prec))       # tan(conj z) = conj(tan z)
    w = exp(_mul_2i(x), wp)                   # e^(2iz), small: |w| = e^(-2 im z)
    q = div(w, add(ComplexBox(ball.ONE), w, wp), wp)  # tan z = i - 2i w/(1+w)
    re = ball.scale_2exp(q.im, 1)
    im = ball.sub(ball.ONE, ball.scale_2exp(q.re, 1), prec)
    return ComplexBox(ball.round_to(re, prec), im)


def to_decimal(x: ComplexBox, digits: int) -> str:
    return f"({decimal_io.to_decimal(x.re, digits)}; {decimal_io.to_decimal(x.im, digits)})"


def from_decimal(s: str) -> ComplexBox:
    t = s.strip()
    if not (t.startswith("(") and t.endswith(")")):
        raise decimal_io.ParseError("expected '(re; im)'", 0)
    re_s, sep, im_s = t[1:-1].partition(";")
    if not sep:
        raise decimal_io.ParseError("missing ';'", len(t))
    return ComplexBox(decimal_io.from_decimal(re_s), decimal_io.from_decimal(im_s))
