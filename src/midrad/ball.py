"""Real ball arithmetic: rigorous enclosures [mid +/- rad].

The midpoint is a :class:`~midrad.bigfloat.BigFloat`, the radius a
:class:`~midrad.magnitude.Magnitude`.  Every operation preserves containment:
for any points chosen from the input balls, the exact result lies in the
output ball.  Midpoints are rounded to the requested precision (nearest,
ties to even) and a one-ulp bound on that rounding error is folded into the
radius whenever rounding was inexact; ``round_to`` adds the actual error.

A NaN midpoint means "indeterminate / whole extended line"; an infinite
radius with a finite midpoint means "the whole real line".  Predicates
(contains / overlaps / contains_point) are decided exactly via exact
mixed-exponent sums, so rounding can never flip an answer.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import bigfloat as bf
from . import magnitude as mag
from .bigfloat import BigFloat, Rounding
from .magnitude import Magnitude

__all__ = [
    "Ball",
    "ACC_EXACT",
    "ACC_NONE",
    "indeterminate",
    "whole_line",
    "add",
    "sub",
    "neg",
    "mul",
    "sqr",
    "fma",
    "div",
    "sqrt",
    "scale_2exp",
    "mul_int",
    "div_int",
    "round_to",
    "contains",
    "overlaps",
    "contains_point",
    "rel_accuracy_bits",
    "can_round",
    "upper_mag",
    "lower_bound",
    "upper_bound",
]

_NE = Rounding.NEAREST_EVEN

ACC_EXACT = math.inf
ACC_NONE = -math.inf


class Ball:
    """Immutable real enclosure ``{t : |t - mid| <= rad}``."""

    __slots__ = ("mid", "rad")

    def __init__(self, mid: BigFloat, rad: Magnitude = mag.ZERO):
        self.mid = mid
        self.rad = rad

    @classmethod
    def from_int(cls, n: int) -> "Ball":
        return cls(BigFloat.from_int(n))

    @classmethod
    def from_man_exp(cls, man: int, exp2: int) -> "Ball":
        return cls(BigFloat.from_man_exp(man, exp2))

    def is_exact(self) -> bool:
        return self.rad.is_zero()

    def is_indeterminate(self) -> bool:
        return self.mid.is_nan()

    def is_finite(self) -> bool:
        return self.mid.is_finite() and not self.rad.is_inf()

    def to_exact_text(self) -> str:
        return f"({self.mid.to_text()}; {self.rad.to_text()})"

    @classmethod
    def from_exact_text(cls, s: str) -> "Ball":
        s = s.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise ValueError(f"bad ball literal: {s!r}")
        m, sep, r = s[1:-1].partition(";")
        if not sep:
            raise ValueError(f"bad ball literal: {s!r}")
        return cls(BigFloat.from_text(m), Magnitude.from_text(r))

    def __neg__(self) -> "Ball":
        return Ball(-self.mid, self.rad)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ball):
            return NotImplemented
        return self.mid == other.mid and self.rad == other.rad

    def __hash__(self):
        return hash((self.mid, self.rad))

    def __repr__(self):
        return f"Ball.from_exact_text({self.to_exact_text()!r})"


ZERO = Ball(bf.ZERO)
ONE = Ball(bf.ONE)


def indeterminate() -> Ball:
    """Nothing known: [nan +/- inf]."""
    return Ball(bf.NAN, mag.INF)


def whole_line() -> Ball:
    """The whole real line: [0 +/- inf]."""
    return Ball(bf.ZERO, mag.INF)


def _with_ulp(rad: Magnitude, mid: BigFloat, prec: int, inexact: bool) -> Magnitude:
    if inexact:
        return mag.add(rad, mag.pow2(mid.exp - prec))
    return rad


# -- arithmetic ---------------------------------------------------------------

def neg(x: Ball) -> Ball:
    return Ball(-x.mid, x.rad)


def add(x: Ball, y: Ball, prec: int) -> Ball:
    mid, inexact = bf.add(x.mid, y.mid, prec, _NE)
    if mid.is_nan():
        return indeterminate()
    return Ball(mid, _with_ulp(mag.add(x.rad, y.rad), mid, prec, inexact))


def sub(x: Ball, y: Ball, prec: int) -> Ball:
    mid, inexact = bf.sub(x.mid, y.mid, prec, _NE)
    if mid.is_nan():
        return indeterminate()
    return Ball(mid, _with_ulp(mag.add(x.rad, y.rad), mid, prec, inexact))


def mul(x: Ball, y: Ball, prec: int) -> Ball:
    mid, inexact = bf.mul(x.mid, y.mid, prec, _NE)
    if mid.is_nan():
        return indeterminate()
    rx, ry = x.rad, y.rad
    if rx.is_zero() and ry.is_zero():
        return Ball(mid, _with_ulp(mag.ZERO, mid, prec, inexact))
    rad = mag.mul(rx, ry)
    if not ry.is_zero():
        rad = mag.addmul(rad, mag.from_bigfloat_upper(x.mid), ry)
    if not rx.is_zero():
        rad = mag.addmul(rad, mag.from_bigfloat_upper(y.mid), rx)
    return Ball(mid, _with_ulp(rad, mid, prec, inexact))


def sqr(x: Ball, prec: int) -> Ball:
    """Enclosure of {t*t : t in x}; tighter than mul(x, x) around zero."""
    if x.mid.is_regular() and not x.rad.is_zero() and not x.rad.is_inf():
        if bf.compare_abs(mag.to_bigfloat(x.rad), x.mid) >= 0:
            # 0 inside: range is [0, (|mid|+rad)^2]
            m = mag.mul(upper_mag(x), upper_mag(x))
            half = mag.mul_2exp(m, -1)
            return Ball(mag.to_bigfloat(half), half)
    elif x.mid.is_zero():
        if x.rad.is_zero():
            return Ball(bf.ZERO)
        m = mag.mul(x.rad, x.rad)
        half = mag.mul_2exp(m, -1)
        return Ball(mag.to_bigfloat(half), half)
    return mul(x, x, prec)


def fma(z: Ball, x: Ball, y: Ball, prec: int) -> Ball:
    """z + x*y with a single midpoint rounding."""
    p = bf.mul_exact(x.mid, y.mid)
    mid, inexact = bf.add(z.mid, p, prec, _NE)
    if mid.is_nan():
        return indeterminate()
    rad = mag.mul(x.rad, y.rad)
    if not y.rad.is_zero():
        rad = mag.addmul(rad, mag.from_bigfloat_upper(x.mid), y.rad)
    if not x.rad.is_zero():
        rad = mag.addmul(rad, mag.from_bigfloat_upper(y.mid), x.rad)
    rad = mag.add(z.rad, rad) if not z.rad.is_zero() else rad
    return Ball(mid, _with_ulp(rad, mid, prec, inexact))


def _sign_sum(terms) -> int:
    """Exact sign of an exact sum of BigFloats."""
    r, _ = bf.vector_sum(terms, 4, Rounding.TOWARD_ZERO)
    return r.signum()


def _abs_lower(x: Ball) -> BigFloat:
    """Certified lower bound of inf |t| over the ball, or <= 0 if 0 may be inside."""
    m = x.mid
    if m.is_zero():
        return bf.ZERO if x.rad.is_zero() else bf.NEG_INF
    if x.rad.is_zero():
        return abs(m)
    lo, _ = bf.add(abs(m), -mag.to_bigfloat(x.rad), 32, Rounding.DOWN)
    return lo


def div(x: Ball, y: Ball, prec: int) -> Ball:
    if x.mid.is_nan() or y.mid.is_nan():
        return indeterminate()
    if y.mid.is_inf():
        return Ball(bf.ZERO) if x.is_finite() else indeterminate()
    lo = _abs_lower(y)
    if lo.signum() <= 0:
        return indeterminate()  # 0 possibly in the denominator
    if x.mid.is_inf():
        q, _ = bf.div(x.mid, y.mid, prec, _NE)
        return Ball(q)
    mid, inexact = bf.div(x.mid, y.mid, prec, _NE)
    rx, ry = x.rad, y.rad
    if rx.is_zero() and ry.is_zero():
        return Ball(mid, _with_ulp(mag.ZERO, mid, prec, inexact))
    num = rx
    if not ry.is_zero():
        qu = mag.div_lower_denominator(mag.from_bigfloat_upper(x.mid), abs(y.mid))
        num = mag.addmul(rx, qu, ry)
    rad = mag.div_lower_denominator(num, lo)
    return Ball(mid, _with_ulp(rad, mid, prec, inexact))


def sqrt(x: Ball, prec: int) -> Ball:
    m = x.mid
    if m.is_nan():
        return indeterminate()
    if m.is_inf():
        return Ball(bf.POS_INF) if m.signum() > 0 else indeterminate()
    if m.is_zero():
        return Ball(bf.ZERO) if x.rad.is_zero() else indeterminate()
    if m.signum() < 0:
        return indeterminate()
    if not x.rad.is_zero():
        if x.rad.is_inf():
            return indeterminate()
        if _sign_sum([m, -mag.to_bigfloat(x.rad)]) < 0:
            return indeterminate()  # the ball reaches below zero
    mid, inexact = bf.sqrt(m, prec, _NE)
    if x.rad.is_zero():
        return Ball(mid, _with_ulp(mag.ZERO, mid, prec, inexact))
    # |sqrt(t) - sqrt(m)| = |t - m| / (sqrt(t) + sqrt(m)) <= rad / sqrt(m)
    root_lo, _ = bf.sqrt(m, 32, Rounding.DOWN)
    rad = mag.div_lower_denominator(x.rad, root_lo)
    return Ball(mid, _with_ulp(rad, mid, prec, inexact))


def scale_2exp(x: Ball, k: int) -> Ball:
    """Exact multiplication by 2**k."""
    m = x.mid
    if m.is_regular():
        m = BigFloat.from_man_exp(m.sign * m.man, m.lsb + k)
    return Ball(m, mag.mul_2exp(x.rad, k))


def mul_int(x: Ball, n: int, prec: int) -> Ball:
    """x * n for an int n, with the usual midpoint rounding."""
    mid, inexact = bf.mul(x.mid, BigFloat.from_int(n), prec, _NE)
    if mid.is_nan():
        return indeterminate()
    rad = mag.mul_int_upper(x.rad, abs(n))
    return Ball(mid, _with_ulp(rad, mid, prec, inexact))


def div_int(x: Ball, n: int, prec: int) -> Ball:
    """x / n for a nonzero int n."""
    mid, inexact = bf.div(x.mid, BigFloat.from_int(n), prec, _NE)
    if mid.is_nan():
        return indeterminate()
    rad = mag.div_int_upper(x.rad, abs(n)) if not x.rad.is_zero() else mag.ZERO
    return Ball(mid, _with_ulp(rad, mid, prec, inexact))


def round_to(x: Ball, prec: int) -> Ball:
    """x with its midpoint rounded to prec bits and the rounding error added."""
    mid, inexact = bf.round_to(x.mid, prec, _NE)
    if not inexact:
        return Ball(mid, x.rad)
    d, _ = bf.sub(x.mid, mid, 32, Rounding.AWAY_FROM_ZERO)
    return Ball(mid, mag.add(x.rad, mag.from_bigfloat_upper(d)))


def upper_mag(x: Ball) -> Magnitude:
    """Upper bound of sup |t| over the ball."""
    if x.mid.is_nan():
        return mag.INF
    return mag.add(mag.from_bigfloat_upper(x.mid), x.rad)


def lower_bound(x: Ball, prec: int = 64) -> BigFloat:
    """Certified lower bound of the ball (rounded down)."""
    if x.mid.is_nan() or x.rad.is_inf():
        return bf.NEG_INF
    lo, _ = bf.add(x.mid, -mag.to_bigfloat(x.rad), prec, Rounding.DOWN)
    return lo


def upper_bound(x: Ball, prec: int = 64) -> BigFloat:
    """Certified upper bound of the ball (rounded up)."""
    if x.mid.is_nan() or x.rad.is_inf():
        return bf.POS_INF
    hi, _ = bf.add(x.mid, mag.to_bigfloat(x.rad), prec, Rounding.UP)
    return hi


# -- predicates (decided exactly) ---------------------------------------------

def contains(x: Ball, y: Ball) -> bool:
    """Is every point of y a point of x?  Decided exactly."""
    if x.mid.is_nan():
        return True  # whole extended line
    if y.mid.is_nan():
        return False
    if x.rad.is_inf():
        return y.mid.is_finite()
    if y.rad.is_inf():
        return False
    if x.mid.is_inf() or y.mid.is_inf():
        return x.mid.kind == y.mid.kind
    s = _sign_sum([y.mid, -x.mid])
    terms = [mag.to_bigfloat(x.rad), -mag.to_bigfloat(y.rad)]
    if s > 0:
        terms += [x.mid, -y.mid]
    elif s < 0:
        terms += [y.mid, -x.mid]
    return _sign_sum(terms) >= 0


def overlaps(x: Ball, y: Ball) -> bool:
    """Do x and y share a point?  Decided exactly."""
    if x.mid.is_nan() or y.mid.is_nan():
        return True
    if x.mid.is_inf() or y.mid.is_inf():
        return x.mid.kind == y.mid.kind
    if x.rad.is_inf() or y.rad.is_inf():
        return True
    s = _sign_sum([x.mid, -y.mid])
    terms = [mag.to_bigfloat(x.rad), mag.to_bigfloat(y.rad)]
    if s > 0:
        terms += [y.mid, -x.mid]
    elif s < 0:
        terms += [x.mid, -y.mid]
    return _sign_sum(terms) >= 0


def contains_point(x: Ball, q) -> bool:
    """Is the rational (or int) q inside the closed ball?  Decided exactly."""
    if x.mid.is_nan() or x.rad.is_inf():
        return True
    if x.mid.is_inf():
        return False
    q = Fraction(q)
    qd = BigFloat.from_int(q.denominator)
    qn = BigFloat.from_int(q.numerator)
    md = bf.mul_exact(x.mid, qd)
    s = _sign_sum([qn, -md])
    terms = [bf.mul_exact(mag.to_bigfloat(x.rad), qd)]
    if s > 0:
        terms += [md, -qn]
    elif s < 0:
        terms += [qn, -md]
    return _sign_sum(terms) >= 0


# -- accuracy and rounding certification ---------------------------------------

def rel_accuracy_bits(x: Ball):
    """Relative accuracy in bits: exp(mid) - exp(rad) - 1.

    Returns ACC_EXACT (+inf) for a zero radius and ACC_NONE (-inf) when the
    midpoint is non-finite or the radius is not below |mid|.
    """
    if x.rad.is_zero():
        return ACC_EXACT
    if not x.mid.is_regular() or x.rad.is_inf():
        return ACC_NONE
    if bf.compare_abs(mag.to_bigfloat(x.rad), x.mid) >= 0:
        return ACC_NONE
    return x.mid.exp - x.rad.exp - 1


def can_round(x: Ball, prec: int, rnd: Rounding) -> bool:
    """True only if every point of the ball rounds to one prec-bit value.

    A True answer certifies that rounding the midpoint gives the correctly
    rounded result for the whole ball; False is always permitted.
    """
    if x.rad.is_zero():
        return not x.mid.is_nan()
    if x.rad.is_inf() or not x.mid.is_regular():
        return False
    r = mag.to_bigfloat(x.rad)
    # outer bounds at the ball's own accuracy, so a gap the radius can
    # resolve is never blurred away by the bound rounding
    wp = max(prec, x.mid.exp - x.rad.exp) + 16
    lo, _ = bf.add(x.mid, -r, wp, Rounding.DOWN)
    hi, _ = bf.add(x.mid, r, wp, Rounding.UP)
    rl, _ = bf.round_to(lo, prec, rnd)
    rh, _ = bf.round_to(hi, prec, rnd)
    return rl == rh
