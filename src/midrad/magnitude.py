"""Unsigned fixed-precision upper bounds with unbounded exponents.

A regular magnitude is ``man * 2**(exp - 30)`` with ``2**29 <= man < 2**30``,
so ``exp`` is the binade exponent just like :class:`~midrad.bigfloat.BigFloat`.
Every operation rounds upward: results are always >= the exact value and at
most a factor ``1 + 2**-28`` above it (a couple of ulps of the 30-bit
mantissa).  There is no NaN; bounds are nonnegative by construction and
``+inf`` absorbs.

There are two upward roundings.  ``sum_upper`` is the one exact upward sum
(bigfloat's ``_exact_sum``, rounded up once); ``dot_upper`` (and so ``mul``
and ``addmul``) and ``ball.rounded`` feed it the terms ``_pair_terms`` makes
of their products; ``add`` returns the same by its own two-term rule.
``div_upper`` is the one upward quotient: the same exact sum over an exact
dyadic denominator, rounded up once.  Both return the least 30-bit
magnitude at or above the exact value.
"""

from __future__ import annotations

from . import bigfloat
# one set of kind codes: dot_upper and _pair_terms read a factor of either kind
from .bigfloat import _POS_INF, _REGULAR, _ZERO, BigFloat

__all__ = [
    "Magnitude",
    "ZERO",
    "INF",
    "ONE",
    "add",
    "mul",
    "addmul",
    "dot_upper",
    "sum_upper",
    "compare",
    "from_bigfloat_upper",
    "to_bigfloat",
    "from_int_upper",
    "mul_int_upper",
    "div_upper",
    "mul_2exp",
    "pow2",
    "min_",
]

_MBITS = 30
_MANT_MIN = 1 << 29
_MANT_TOP = 1 << 30


class Magnitude:
    """Immutable nonnegative upper bound."""

    __slots__ = ("kind", "man", "exp")

    def __init__(self, kind: int, man: int = 0, exp: int = 0):
        self.kind = kind
        self.man = man
        self.exp = exp

    def is_zero(self) -> bool:
        return self.kind == _ZERO

    def is_inf(self) -> bool:
        return self.kind == _POS_INF

    def is_regular(self) -> bool:
        return self.kind == _REGULAR

    def to_fraction(self):
        from fractions import Fraction
        if self.kind == _ZERO:
            return Fraction(0)
        if self.kind != _REGULAR:
            raise ValueError("no rational value: inf")
        e = self.exp - _MBITS
        if e >= 0:
            return Fraction(self.man << e)
        return Fraction(self.man, 1 << -e)

    def to_text(self) -> str:
        if self.kind == _ZERO:
            return "0"
        if self.kind == _POS_INF:
            return "inf"
        man, e = self.man, self.exp - _MBITS
        tz = (man & -man).bit_length() - 1
        return f"{man >> tz}*2^{e + tz}"

    @classmethod
    def from_text(cls, s: str) -> "Magnitude":
        s = s.strip()
        if s == "0":
            return ZERO
        if s == "inf":
            return INF
        head, sep, tail = s.partition("*2^")
        if not sep:
            raise ValueError(f"bad magnitude literal: {s!r}")
        m = int(head)
        if m < 0:
            raise ValueError("magnitudes are nonnegative")
        return from_man_exp_upper(m, int(tail))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Magnitude):
            return NotImplemented
        return (self.kind == other.kind and self.man == other.man
                and self.exp == other.exp)

    def __hash__(self):
        return hash((self.kind, self.man, self.exp))

    def __repr__(self):
        return f"Magnitude({self.to_text()!r})"


def _mk(man: int, exp: int) -> Magnitude:
    m = Magnitude.__new__(Magnitude)
    m.kind = _REGULAR
    m.man = man
    m.exp = exp
    return m


ZERO = Magnitude(_ZERO)
INF = Magnitude(_POS_INF)


def _norm_up(man: int, lsb: int) -> Magnitude:
    """Upper bound of man*2^lsb, man > 0, with a single upward rounding."""
    bl = man.bit_length()
    if bl <= _MBITS:
        return _mk(man << (_MBITS - bl), lsb + bl)
    sh = bl - _MBITS
    man = -(-man >> sh)  # ceil
    if man == _MANT_TOP:
        return _mk(_MANT_MIN, lsb + bl + 1)
    return _mk(man, lsb + bl)


def from_man_exp_upper(man: int, exp2: int) -> Magnitude:
    """Upper bound of ``man * 2**exp2`` (man >= 0)."""
    if man == 0:
        return ZERO
    return _norm_up(man, exp2)


ONE = from_man_exp_upper(1, 0)
TWO = from_man_exp_upper(1, 1)


def pow2(e: int) -> Magnitude:
    """Exactly 2**e."""
    return _mk(_MANT_MIN, e + 1)


def mul_2exp(x: Magnitude, k: int) -> Magnitude:
    if x.kind != _REGULAR:
        return x
    return _mk(x.man, x.exp + k)


def from_int_upper(n: int) -> Magnitude:
    return from_man_exp_upper(n, 0)


def add(x: Magnitude, y: Magnitude) -> Magnitude:
    if x.kind != _REGULAR:
        return y if x.kind == _ZERO else INF
    if y.kind != _REGULAR:
        return x if y.kind == _ZERO else INF
    if x.exp < y.exp:
        x, y = y, x
    d = x.exp - y.exp
    if d > _MBITS + 2:
        # The smaller term is below one ulp; bump by one ulp instead.
        return _norm_up((x.man << 1) | 1, x.exp - _MBITS - 1)
    return _norm_up((x.man << d) + y.man, y.exp - _MBITS)


def mul(x: Magnitude, y: Magnitude) -> Magnitude:
    return dot_upper([(x, y)])


def addmul(z: Magnitude, x: Magnitude, y: Magnitude) -> Magnitude:
    """Upper bound of z + x*y with a single rounding of the combined sum."""
    return dot_upper([(z, ONE), (x, y)])


def _pair_terms(pairs, terms) -> list | None:
    """The (m, l) int terms of sum |x*y| over the (x, y) pairs and of the
    given terms, or None when the sum is infinite.  A factor is a Magnitude
    or a BigFloat; a zero factor adds nothing (0 * inf too), and any other
    that is not regular (inf, NaN) makes the sum infinite."""
    terms = list(terms)
    for x, y in pairs:
        if x.kind != _REGULAR or y.kind != _REGULAR:
            if x.kind == _ZERO or y.kind == _ZERO:
                continue
            return None
        # either kind of factor is man * 2^(exp - bits(man))
        terms.append((x.man * y.man, x.exp + y.exp - x.man.bit_length() - y.man.bit_length()))
    return terms


def dot_upper(pairs, terms=()) -> Magnitude:
    """sum_upper of |x*y| over the (x, y) pairs and the (m, l) int terms; INF
    when a factor other than zero is inf or NaN."""
    terms = _pair_terms(pairs, terms)
    return INF if terms is None else sum_upper(terms)


def sum_upper(terms: list) -> Magnitude:
    """The least magnitude >= sum m * 2**l over a list of (m, l) int terms,
    m >= 0: the exact sum of ``bigfloat._exact_sum``, rounded up once."""
    man, lsb = bigfloat._exact_sum(terms, _MBITS)
    return _norm_up(man, lsb) if man else ZERO


def compare(x: Magnitude, y: Magnitude) -> int:
    if x.kind == _POS_INF or y.kind == _POS_INF:
        if x.kind == y.kind:
            return 0
        return 1 if x.kind == _POS_INF else -1
    if x.kind == _ZERO or y.kind == _ZERO:
        if x.kind == y.kind:
            return 0
        return -1 if x.kind == _ZERO else 1
    if x.exp != y.exp:
        return 1 if x.exp > y.exp else -1
    if x.man == y.man:
        return 0
    return 1 if x.man > y.man else -1


def min_(x: Magnitude, y: Magnitude) -> Magnitude:
    return x if compare(x, y) <= 0 else y


def from_bigfloat_upper(x: BigFloat) -> Magnitude:
    """Upper bound of |x|; exact when the mantissa fits in 30 bits."""
    if x.is_regular():
        return _norm_up(x.man, x.lsb)
    if x.is_zero():
        return ZERO
    if x.is_nan():
        raise ValueError("no magnitude bound for nan")
    return INF


def to_bigfloat(x: Magnitude) -> BigFloat:
    """Exact conversion."""
    if x.kind == _ZERO:
        return bigfloat.ZERO
    if x.kind == _POS_INF:
        return bigfloat.POS_INF
    return BigFloat.from_man_exp(x.man, x.exp - _MBITS)


def div_upper(den, pairs=(), terms=()) -> Magnitude:
    """The least magnitude >= N / D, rounded up once: N is dot_upper's exact
    sum over the pairs and terms, D > 0 a BigFloat or (d, e) for d * 2**e
    with an int d > 0.  An infinite N gives INF, and else an infinite D ZERO.
    """
    if isinstance(den, BigFloat):
        if den.is_nan() or den.signum() <= 0:
            raise ValueError("denominator not bounded away from zero")
        d, e = (den.man, den.lsb) if den.is_regular() else (0, 0)
    else:
        d, e = den
        if d <= 0:
            raise ValueError("nonpositive denominator")
    terms = _pair_terms(pairs, terms)
    if terms is None:
        return INF
    if not d:  # den = +inf
        return ZERO
    # _exact_sum may stand one unit 2^pos in for terms below 2^pos, with pos
    # 8 bits below N's rounding point at 30 + bits(d) bits, so below the
    # 30-bit grid of N / d: no grid point times d lies between the exact sum
    # and the one it returns, and the least bound of the quotient is the same
    n, lsb = bigfloat._exact_sum(terms, _MBITS + d.bit_length())
    s = d.bit_length() - n.bit_length() + _MBITS + 1  # a quotient q >= 2^30
    q = -(-(n << s) // d) if s >= 0 else -(-n // (d << -s))
    # q is a ceiling on a finer grid than 30 bits, so this rounds up once
    return _norm_up(q, lsb - e - s) if n else ZERO


def mul_int_upper(x: Magnitude, n: int) -> Magnitude:
    """Upper bound of x * n for n >= 0."""
    if n < 0:
        raise ValueError("negative scale")
    return INF if x.kind == _POS_INF and n else sum_upper([(x.man * n, x.exp - _MBITS)])
