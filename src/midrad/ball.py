"""Real ball arithmetic: rigorous enclosures [mid +/- rad].

The midpoint is a :class:`~midrad.bigfloat.BigFloat`, the radius a
:class:`~midrad.magnitude.Magnitude`.  Every operation preserves containment:
for any points chosen from the input balls, the exact result lies in the
output ball.  Midpoints are rounded to the requested precision (nearest,
ties to even) and a half-ulp bound on that rounding error is folded into the
radius whenever rounding was inexact.  That fold is one function,
``rounded``: it takes the (mid, inexact) pair a bigfloat operation returns
and the rest of the radius as terms of an exact sum, rounded up once with
the rounding error by ``magnitude.sum_upper``; every ball operation here,
the elementary functions, the polynomial products, the constants and the
decimal parser use it.  An exact value s 2^l is rounded on ints by
``_round_exact``, which passes its actual error |s - q| 2^l to ``rounded``
as one more term: ``round_to`` and the elementary kernel use it.

A sum of products is one operation too: ``dot`` forms each product of
regular midpoints as one signed int term and rounds their exact sum once
(``bigfloat._round_sum``, the kernel under ``sum_upper``), and its radius
sums |x| ry + |y| rx + rx ry, taken from the exact mantissas, over the
products with a radius, with the half ulp; ``mul`` is a one-product dot.
The radius is zero where no term is left to add, and the bare half ulp
2^(mid.exp - prec - 1) of an inexact midpoint where that is all.  Only
``mul`` keeps a path of its own for two exact regular midpoints, which it
multiplies and rounds on ints; its results are bit for bit those of the
general path.

A NaN midpoint means "indeterminate / whole extended line"; an infinite
radius with a finite midpoint means "the whole real line".  Predicates
(contains / overlaps / contains_point) are decided exactly via exact
mixed-exponent sums, so rounding can never flip an answer.

Every bound taken from an endpoint -- the sign tests of div, sqrt and
elementary.log, the denominator bound of a quotient -- is one rounding of
the exact endpoint mid -/+ rad, made once by ``bf.add``: rounding is
monotone, and a directed rounding keeps the exact sign.  Whether a ball
rounds to one value (``can_round``) rounds both exact endpoints the same
way, on ints.
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
    "rounded",
    "add",
    "sub",
    "neg",
    "mul",
    "sqr",
    "fma",
    "dot",
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
_REGULAR = bf._REGULAR  # the BigFloat kind of a regular midpoint
_RAD_ZERO = mag._ZERO   # the Magnitude kind of a zero radius

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
        return cls(BigFloat.from_int(n), mag.ZERO)

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


def rounded(result: tuple[BigFloat, bool], pairs: list, prec: int, terms=()) -> Ball:
    """The ball of a midpoint rounded to nearest at prec bits, given as the
    (mid, inexact) pair of a bigfloat operation, and a radius for the rest:
    the sum of |a b| over the (a, b) pairs of magnitudes and BigFloats, of
    m 2^l over the (m, l) int terms and of an inexact midpoint's half ulp
    2^(mid.exp - prec - 1), rounded up once (magnitude.sum_upper).  A pair
    with a zero factor adds nothing; when no other term is left, the radius
    of an inexact midpoint is that half ulp itself, a power of two, and of
    an exact one zero.  A NaN midpoint gives indeterminate()."""
    mid, inexact = result
    if mid.is_nan():
        return indeterminate()
    terms = mag._pair_terms(pairs, terms)
    if terms is None:
        return Ball(mid, mag.INF)
    if inexact:
        if not terms:
            return Ball(mid, mag.pow2(mid.exp - prec - 1))
        terms.append((1, mid.exp - prec - 1))
    return Ball(mid, mag.sum_upper(terms) if terms else mag.ZERO)


def _round_exact(s: int, l: int, pairs: list, prec: int, terms=()) -> Ball:
    """The ball of the exact value s 2^l rounded to nearest at prec bits on
    ints, its radius that of ``rounded`` with the actual rounding error
    |s - q| 2^l as one more term in place of the half ulp."""
    bf._check_prec(prec)
    if not s:
        return rounded((bf.ZERO, False), pairs, prec, terms)
    sign = 1 if s > 0 else -1
    a = abs(s)
    q = bf._round_int(sign, a, prec, _NE)
    return rounded((bf._normalize(sign, q, l), False), pairs, prec, [*terms, (abs(a - q), l)])


# -- arithmetic ---------------------------------------------------------------

def neg(x: Ball) -> Ball:
    return Ball(-x.mid, x.rad)


def add(x: Ball, y: Ball, prec: int) -> Ball:
    return rounded(bf.add(x.mid, y.mid, prec, _NE), [(x.rad, mag.ONE), (y.rad, mag.ONE)], prec)


def sub(x: Ball, y: Ball, prec: int) -> Ball:
    return rounded(bf.sub(x.mid, y.mid, prec, _NE), [(x.rad, mag.ONE), (y.rad, mag.ONE)], prec)


def _rad_pairs(x: Ball, y: Ball) -> list:
    """(a, b) pairs with sum |a b| = |x.mid| y.rad + |y.mid| x.rad + x.rad y.rad."""
    return [(x.mid, y.rad), (y.mid, x.rad), (x.rad, y.rad)]


def mul(x: Ball, y: Ball, prec: int) -> Ball:
    a, b = x.mid, y.mid
    if x.rad.kind == _RAD_ZERO == y.rad.kind and a.kind == _REGULAR == b.kind and prec > 1:
        # odd mantissas have an odd product, so m needs no strip, and
        # rounding it to fewer bits is always inexact
        m, sign = a.man * b.man, a.sign * b.sign
        lsb = a.exp + b.exp - a.man.bit_length() - b.man.bit_length()
        bits = m.bit_length()
        if bits <= prec:
            return Ball(bf._mk(sign, m, lsb + bits), mag.ZERO)
        return rounded(bf._round_from(sign, m, lsb, prec, _NE), [], prec)
    return rounded(bf.mul(a, b, prec, _NE), _rad_pairs(x, y), prec)


def dot(xs, ys, prec: int, initial: Ball | None = None) -> Ball:
    """initial + sum x*y over two equally long sequences of balls, the
    midpoint rounded once and the radius bounded once.  Each product of
    regular midpoints is one signed int term of the exact sum; an infinite
    or NaN product decides the sum alone, as no finite term can change it."""
    if initial is not None:
        xs, ys = [*xs, initial], [*ys, ONE]
    terms, pairs, special = [], [], []
    for x, y in zip(xs, ys, strict=True):
        a, b = x.mid, y.mid
        if a.kind == _REGULAR == b.kind:
            terms.append((a.sign * b.sign * a.man * b.man,
                          a.exp + b.exp - a.man.bit_length() - b.man.bit_length()))
        elif not (a.is_finite() and b.is_finite()):
            special.append(bf.mul_exact(a, b))
        if x.rad.kind != _RAD_ZERO or y.rad.kind != _RAD_ZERO:
            pairs += _rad_pairs(x, y)
    result = bf.vector_sum(special, prec, _NE) if special else bf._round_sum(terms, prec, _NE)
    return rounded(result, pairs, prec)


def sqr(x: Ball, prec: int) -> Ball:
    """Enclosure of {t*t : t in x}; tighter than mul(x, x) around zero."""
    if x.is_finite() and not x.rad.is_zero() and bf.compare_abs(mag.to_bigfloat(x.rad), x.mid) >= 0:
        # 0 inside: range is [0, (|mid|+rad)^2]
        u = upper_mag(x)
        half = mag.mul_2exp(mag.mul(u, u), -1)
        return Ball(mag.to_bigfloat(half), half)
    return mul(x, x, prec)


def fma(z: Ball, x: Ball, y: Ball, prec: int) -> Ball:
    """z + x*y with a single midpoint rounding."""
    return dot([x], [y], prec, z)


def div(x: Ball, y: Ball, prec: int) -> Ball:
    if x.mid.is_nan() or y.mid.is_nan():
        return indeterminate()
    if y.mid.is_inf():
        return Ball(bf.ZERO) if x.is_finite() else indeterminate()
    lo = lower_bound(Ball(abs(y.mid), y.rad), 32)  # below |t| for every t in y
    if lo.signum() <= 0:
        return indeterminate()  # 0 possibly in the denominator
    if x.mid.is_inf():
        q, _ = bf.div(x.mid, y.mid, prec, _NE)
        return Ball(q)
    # |s/t - mx/my| = |(s - mx) my - mx (t - my)| / |t my|
    #              <= (rx |my| + |mx| ry) / (|my| lo), one upward quotient;
    # lo is 32 bits, so |my| lo costs linear time at any precision
    m = y.mid
    q = mag.div_upper((m.man * lo.man, m.lsb + lo.lsb), [(x.rad, m), (x.mid, y.rad)])
    return rounded(bf.div(x.mid, m, prec, _NE), [(q, mag.ONE)], prec)


def sqrt(x: Ball, prec: int) -> Ball:
    m, rad = x.mid, x.rad
    if lower_bound(x, 32).signum() < 0:
        return indeterminate()  # NaN, -inf, or the ball reaches below zero
    if m.is_inf():
        return Ball(bf.POS_INF)
    if not rad.is_zero():
        # |sqrt(t) - sqrt(m)| = |t - m| / (sqrt(t) + sqrt(m)) <= rad / sqrt(m)
        root_lo, _ = bf.sqrt(m, 32, Rounding.DOWN)
        rad = mag.div_upper(root_lo, [(rad, mag.ONE)])
    return rounded(bf.sqrt(m, prec, _NE), [(rad, mag.ONE)], prec)


def scale_2exp(x: Ball, k: int) -> Ball:
    """Exact multiplication by 2**k."""
    m = x.mid
    if m.is_regular():
        m = BigFloat.from_man_exp(m.sign * m.man, m.lsb + k)
    return Ball(m, mag.mul_2exp(x.rad, k))


def mul_int(x: Ball, n: int, prec: int) -> Ball:
    """x * n for an int n, with the usual midpoint rounding."""
    return mul(x, Ball.from_int(n), prec)


def div_int(x: Ball, n: int, prec: int) -> Ball:
    """x / n for an int n; indeterminate for n = 0."""
    if n == 0:
        return indeterminate()
    return rounded(bf.div(x.mid, BigFloat.from_int(n), prec, _NE),
                   [(mag.div_upper((abs(n), 0), [(x.rad, mag.ONE)]), mag.ONE)], prec)


def round_to(x: Ball, prec: int) -> Ball:
    """x with its midpoint rounded to prec bits; the radius is the exact sum
    of the old radius and the rounding error, rounded up once."""
    m = x.mid
    if m.kind == _REGULAR:
        return _round_exact(m.sign * m.man, m.lsb, [(x.rad, mag.ONE)], prec)
    return rounded(bf.round_to(m, prec, _NE), [(x.rad, mag.ONE)], prec)


def upper_mag(x: Ball) -> Magnitude:
    """Upper bound of sup |t| over the ball: |mid| + rad, rounded up once."""
    return mag.dot_upper([(x.mid, mag.ONE), (x.rad, mag.ONE)])


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

def _within(a: BigFloat, b: BigFloat, r: list) -> bool:
    """|a - b| <= sum(r), decided exactly: a directed rounding keeps the
    exact sign of each sum."""
    return all(bf.vector_sum(r + d, 4, Rounding.TOWARD_ZERO)[0].signum() >= 0
               for d in ([a, -b], [b, -a]))


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
    return _within(x.mid, y.mid, [mag.to_bigfloat(x.rad), -mag.to_bigfloat(y.rad)])


def overlaps(x: Ball, y: Ball) -> bool:
    """Do x and y share a point?  Decided exactly."""
    if x.mid.is_nan() or y.mid.is_nan():
        return True
    if x.rad.is_inf() or y.rad.is_inf():
        # such a ball holds every real, as in contains: is there one in both?
        return all(b.mid.is_finite() or b.rad.is_inf() for b in (x, y))
    if x.mid.is_inf() or y.mid.is_inf():
        return x.mid.kind == y.mid.kind
    return _within(x.mid, y.mid, [mag.to_bigfloat(x.rad), mag.to_bigfloat(y.rad)])


def contains_point(x: Ball, q) -> bool:
    """Is the rational (or int) q inside the closed ball?  Decided exactly."""
    if x.mid.is_nan() or x.rad.is_inf():
        return True
    if x.mid.is_inf():
        return False
    q = Fraction(q)
    qd = BigFloat.from_int(q.denominator)
    qn = BigFloat.from_int(q.numerator)
    return _within(qn, bf.mul_exact(x.mid, qd), [bf.mul_exact(mag.to_bigfloat(x.rad), qd)])


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
    """Does every point of the ball round to one prec-bit value under rnd?

    The answer is exact: rounding is monotone, so every point rounds alike
    exactly when the two endpoints do.  The endpoints mid -/+ rad are
    aligned to one lsb as ints; a radius far below the midpoint's rounding
    point counts as one unit below it, as in ``bf.add``, and takes neither
    endpoint across a rounding boundary.  An endpoint at 0, or two of
    opposite signs, never round alike; otherwise each is rounded to prec
    bits on ints (``bf._round_int``) and the two compared.  True certifies
    that rounding the midpoint gives the correctly rounded result for the
    whole ball.  prec must be at least 2, as for every rounding.
    """
    bf._check_prec(prec)
    m, r = x.mid, x.rad
    if r.is_zero():
        return not m.is_nan()
    if r.is_inf() or not m.is_regular() or r.exp > m.exp:
        return False  # the last: rad >= 2^(r.exp - 1) >= 2^m.exp > |mid|
    # |mid| -/+ rad as the ints a, b times 2^l
    ml = m.exp - m.man.bit_length()
    l = min(ml, m.exp - prec - 4) - 4
    if r.exp <= l:  # rad < 2^l, 4 bits below every rounding point
        rm = 1
    else:
        rl = r.exp - r.man.bit_length()
        l, rm = (rl, r.man) if rl < ml else (ml, r.man << (rl - ml))
    v = m.man << (ml - l)
    a = v - rm
    if a <= 0:
        return False
    return bf._round_int(m.sign, a, prec, rnd) == bf._round_int(m.sign, v + rm, prec, rnd)
