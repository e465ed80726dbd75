"""Arbitrary-precision dyadic floating point with correct directed rounding.

A regular value is ``sign * man * 2**(exp - man.bit_length())`` where ``man``
is an odd positive int, i.e. ``exp`` is the binade exponent and
``2**(exp-1) <= |x| < 2**exp``.  Keeping the mantissa odd makes equality
structural and the text form canonical.

Precision and rounding mode are parameters of each operation, never ambient
state, and arithmetic operations return ``(result, inexact)``.  Exponents are
plain Python ints, so overflow and underflow cannot occur; the only
non-finite results come from domain errors (NaN) and infinite operands.

Every exact sum of many terms is one kernel, ``_exact_sum``, which
``vector_sum`` rounds and ``magnitude.sum_upper`` rounds up; ``add`` keeps
its own two-operand sum, ``_add2_regular``, which is cheaper for two terms.
Every rounding is one function on ints, ``_round_int``, which decides all
five modes: ``_round_from`` (every rounded BigFloat) and ``to_int_nearest``
call it, and so do ``ball.can_round`` and ``ball``'s rounding of an exact
value to nearest.

All operations are pure functions of their arguments and values are
immutable, so everything here is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
import sys
from enum import IntEnum
from fractions import Fraction

__all__ = [
    "Rounding",
    "BigFloat",
    "ZERO",
    "POS_INF",
    "NEG_INF",
    "NAN",
    "ONE",
    "round_to",
    "add",
    "sub",
    "mul",
    "mul_exact",
    "div",
    "sqrt",
    "vector_sum",
    "compare",
    "compare_abs",
    "to_int_nearest",
]

# Serializing large mantissas needs more than the 4300-digit default cap.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), 20_000_000))


class Rounding(IntEnum):
    DOWN = 0             # toward -inf
    UP = 1               # toward +inf
    TOWARD_ZERO = 2
    AWAY_FROM_ZERO = 3
    NEAREST_EVEN = 4     # ties to even mantissa


_REGULAR = 0
_ZERO = 1
_POS_INF = 2
_NEG_INF = 3
_NAN = 4

_KIND_TEXT = {_ZERO: "0", _POS_INF: "inf", _NEG_INF: "-inf", _NAN: "nan"}


class BigFloat:
    """Immutable dyadic number or special value (0, +inf, -inf, NaN)."""

    __slots__ = ("kind", "sign", "man", "exp")

    def __init__(self, kind: int, sign: int = 1, man: int = 0, exp: int = 0):
        self.kind = kind
        self.sign = sign
        self.man = man
        self.exp = exp

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "BigFloat":
        if n == 0:
            return ZERO
        return _normalize(1 if n > 0 else -1, abs(n), 0)

    @classmethod
    def from_man_exp(cls, man: int, exp2: int) -> "BigFloat":
        """Exact value ``man * 2**exp2``."""
        if man == 0:
            return ZERO
        return _normalize(1 if man > 0 else -1, abs(man), exp2)

    @classmethod
    def from_text(cls, s: str) -> "BigFloat":
        """Parse the exact serialization: ``M*2^E``, ``0``, ``inf``, ``-inf``, ``nan``."""
        s = s.strip()
        if s == "0":
            return ZERO
        if s == "inf":
            return POS_INF
        if s == "-inf":
            return NEG_INF
        if s == "nan":
            return NAN
        head, sep, tail = s.partition("*2^")
        if not sep:
            raise ValueError(f"bad dyadic literal: {s!r}")
        return cls.from_man_exp(int(head), int(tail))

    # -- predicates and views ---------------------------------------------

    @property
    def lsb(self) -> int:
        """Exponent of the least significant mantissa bit (regular only)."""
        return self.exp - self.man.bit_length()

    def is_regular(self) -> bool:
        return self.kind == _REGULAR

    def is_zero(self) -> bool:
        return self.kind == _ZERO

    def is_nan(self) -> bool:
        return self.kind == _NAN

    def is_inf(self) -> bool:
        return self.kind in (_POS_INF, _NEG_INF)

    def is_finite(self) -> bool:
        return self.kind in (_REGULAR, _ZERO)

    def is_integer(self) -> bool:
        return self.kind == _ZERO or (self.kind == _REGULAR and self.lsb >= 0)

    def signum(self) -> int:
        if self.kind == _REGULAR:
            return self.sign
        if self.kind == _POS_INF:
            return 1
        if self.kind == _NEG_INF:
            return -1
        if self.kind == _ZERO:
            return 0
        raise ValueError("signum of nan")

    # -- conversions -------------------------------------------------------

    def to_text(self) -> str:
        if self.kind != _REGULAR:
            return _KIND_TEXT[self.kind]
        return f"{self.sign * self.man}*2^{self.lsb}"

    def to_fraction(self) -> Fraction:
        if self.kind == _ZERO:
            return Fraction(0)
        if self.kind != _REGULAR:
            raise ValueError(f"no rational value: {self}")
        e = self.lsb
        if e >= 0:
            return Fraction(self.sign * (self.man << e))
        return Fraction(self.sign * self.man, 1 << -e)

    def to_float(self) -> float:
        if self.kind == _ZERO:
            return 0.0
        if self.kind == _POS_INF:
            return float("inf")
        if self.kind == _NEG_INF:
            return float("-inf")
        if self.kind == _NAN:
            return float("nan")
        r, _ = round_to(self, 53, Rounding.NEAREST_EVEN)
        try:
            return float(r.sign * r.man) * 2.0 ** r.lsb
        except OverflowError:
            return float("inf") * r.sign

    # -- object protocol ---------------------------------------------------

    def __neg__(self) -> "BigFloat":
        k = self.kind
        if k == _REGULAR:
            return BigFloat(_REGULAR, -self.sign, self.man, self.exp)
        if k == _POS_INF:
            return NEG_INF
        if k == _NEG_INF:
            return POS_INF
        return self

    def __abs__(self) -> "BigFloat":
        if self.kind == _REGULAR and self.sign < 0:
            return BigFloat(_REGULAR, 1, self.man, self.exp)
        if self.kind == _NEG_INF:
            return POS_INF
        return self

    def __eq__(self, other) -> bool:
        # Structural equality of the representation (NaN equals itself).
        if not isinstance(other, BigFloat):
            return NotImplemented
        if self.kind != other.kind:
            return False
        if self.kind != _REGULAR:
            return True
        return self.sign == other.sign and self.exp == other.exp and self.man == other.man

    def __hash__(self):
        return hash((self.kind, self.sign, self.man, self.exp))

    def __repr__(self):
        return f"BigFloat({self.to_text()!r})"


def _mk(sign: int, man: int, exp: int) -> BigFloat:
    b = BigFloat.__new__(BigFloat)
    b.kind = _REGULAR
    b.sign = sign
    b.man = man
    b.exp = exp
    return b


ZERO = BigFloat(_ZERO)
POS_INF = BigFloat(_POS_INF, 1)
NEG_INF = BigFloat(_NEG_INF, -1)
NAN = BigFloat(_NAN)
ONE = BigFloat(_REGULAR, 1, 1, 1)
_EXACT_NAN = (NAN, False)
_NE = Rounding.NEAREST_EVEN


def _normalize(sign: int, man: int, lsb: int) -> BigFloat:
    """Exact value sign*man*2^lsb with man > 0; strips trailing zero bits."""
    tz = (man & -man).bit_length() - 1
    if tz:
        man >>= tz
        lsb += tz
    return _mk(sign, man, lsb + man.bit_length())


def _check_prec(prec: int) -> None:
    if prec < 2:
        raise ValueError(f"precision must be >= 2, got {prec}")


# For each directed mode, in its order in Rounding: whether it rounds the
# magnitude of a negative value (index 0) and of a positive one (index 1) up.
_DIRECTED_UP = ((True, False),   # DOWN, toward -inf
                (False, True),   # UP, toward +inf
                (False, False),  # TOWARD_ZERO
                (True, True))    # AWAY_FROM_ZERO


def _round_int(sign: int, man: int, prec: int, rnd: int) -> int:
    """The magnitude man > 0 of a value of the given sign, rounded under rnd
    to prec bits, as an int on man's own scale: the one decision of every
    rounding mode, on ints."""
    drop = man.bit_length() - prec
    if drop <= 0:
        return man
    unit = 1 << drop
    low = man & (unit - 1)
    if not low:
        return man
    man -= low
    if rnd == _NE:
        half = unit >> 1
        if low > half or (low == half and man & unit):
            man += unit
    elif _DIRECTED_UP[rnd][sign > 0]:
        man += unit
    return man


def _round_from(sign: int, man: int, lsb: int, prec: int, rnd: int,
                sticky: int = 0) -> tuple[BigFloat, bool]:
    """Round sign*man*2^lsb to prec bits; sticky means an additional tail
    0 < tail < 2^lsb is present (same sign as the value)."""
    if sticky:
        # Fold the tail in as a guard bit, keeping at least 3 droppable bits
        # so nearest-mode tie positions stay exactly representable.
        pad = prec + 1 - man.bit_length()
        if pad < 0:
            pad = 0
        man = (man << (pad + 2)) | 1
        lsb -= pad + 2
    q = _round_int(sign, man, prec, rnd)  # a carry to prec+1 bits is restripped
    return _normalize(sign, q, lsb), q != man


def round_to(x: BigFloat, prec: int, rnd: int) -> tuple[BigFloat, bool]:
    """Correctly rounded value of x at prec bits; specials pass through."""
    _check_prec(prec)
    if x.kind != _REGULAR:
        return x, False
    return _round_from(x.sign, x.man, x.lsb, prec, rnd)


# -- addition ---------------------------------------------------------------

def _add2_regular(x: BigFloat, y: BigFloat, prec: int, rnd: int) -> tuple[BigFloat, bool]:
    if x.exp >= y.exp:
        big, small = x, y
    else:
        big, small = y, x
    bl = big.lsb
    # A far smaller term only matters as a one-sided nudge below every
    # rounding-relevant position of the larger term.
    pos = min(bl, big.exp - prec - 4) - 4
    if small.exp <= pos:
        man = (big.man << (bl - pos)) + (1 if small.sign == big.sign else -1)
        return _round_from(big.sign, man, pos, prec, rnd)
    sl = small.lsb
    l = bl if bl < sl else sl
    v = big.sign * (big.man << (bl - l)) + small.sign * (small.man << (sl - l))
    if v == 0:
        return ZERO, False
    if v > 0:
        return _round_from(1, v, l, prec, rnd)
    return _round_from(-1, -v, l, prec, rnd)


def add(x: BigFloat, y: BigFloat, prec: int, rnd: int) -> tuple[BigFloat, bool]:
    """Correctly rounded x + y; the sum is rounded only once."""
    _check_prec(prec)
    kx, ky = x.kind, y.kind
    if kx == _REGULAR and ky == _REGULAR:
        return _add2_regular(x, y, prec, rnd)
    if kx == _NAN or ky == _NAN:
        return _EXACT_NAN
    if kx == _ZERO:
        return round_to(y, prec, rnd)
    if ky == _ZERO:
        return round_to(x, prec, rnd)
    if kx == _REGULAR:
        return y, False
    if ky == _REGULAR:
        return x, False
    if kx == ky:
        return x, False
    return _EXACT_NAN  # +inf + -inf


def sub(x: BigFloat, y: BigFloat, prec: int, rnd: int) -> tuple[BigFloat, bool]:
    return add(x, -y, prec, rnd)


# -- multiplication ---------------------------------------------------------

def mul(x: BigFloat, y: BigFloat, prec: int, rnd: int) -> tuple[BigFloat, bool]:
    _check_prec(prec)
    if x.kind == _REGULAR and y.kind == _REGULAR:
        return _round_from(x.sign * y.sign, x.man * y.man, x.lsb + y.lsb, prec, rnd)
    r = _mul_special(x, y)
    return r, False


def mul_exact(x: BigFloat, y: BigFloat) -> BigFloat:
    """Exact product (a product of dyadics is always representable)."""
    if x.kind == _REGULAR and y.kind == _REGULAR:
        return _normalize(x.sign * y.sign, x.man * y.man, x.lsb + y.lsb)
    return _mul_special(x, y)


def _mul_special(x: BigFloat, y: BigFloat) -> BigFloat:
    kx, ky = x.kind, y.kind
    if kx == _NAN or ky == _NAN:
        return NAN
    if kx == _ZERO or ky == _ZERO:
        if kx in (_POS_INF, _NEG_INF) or ky in (_POS_INF, _NEG_INF):
            return NAN  # 0 * inf is a domain error
        return ZERO
    # at least one infinity, other operand nonzero
    return POS_INF if x.signum() * y.signum() > 0 else NEG_INF


# -- division and square root ------------------------------------------------

def div(x: BigFloat, y: BigFloat, prec: int, rnd: int) -> tuple[BigFloat, bool]:
    """Correctly rounded x / y.

    Domain errors give NaN: any division by zero, inf/inf, and NaN operands.
    The unambiguous infinite cases keep their limit values: finite/inf = 0
    and +-inf / finite = +-inf.
    """
    _check_prec(prec)
    kx, ky = x.kind, y.kind
    if kx == _REGULAR and ky == _REGULAR:
        shift = prec + 3 - x.man.bit_length() + y.man.bit_length()
        if shift < 0:
            shift = 0
        q, r = divmod(x.man << shift, y.man)
        return _round_from(x.sign * y.sign, q, x.lsb - y.lsb - shift, prec, rnd,
                           sticky=r != 0)
    if kx == _NAN or ky == _NAN or ky == _ZERO:
        return _EXACT_NAN
    if kx == _ZERO:
        return ZERO, False
    if kx in (_POS_INF, _NEG_INF):
        if ky in (_POS_INF, _NEG_INF):
            return _EXACT_NAN
        return (POS_INF if x.signum() * y.signum() > 0 else NEG_INF), False
    return ZERO, False  # finite / inf


def sqrt(x: BigFloat, prec: int, rnd: int) -> tuple[BigFloat, bool]:
    """Correctly rounded square root; negative input is a domain error (NaN)."""
    _check_prec(prec)
    if x.kind == _REGULAR:
        if x.sign < 0:
            return _EXACT_NAN
        man, l = x.man, x.lsb
        if l & 1:
            man <<= 1
            l -= 1
        s = 2 * (prec + 3) - man.bit_length()
        if s < 0:
            s = 0
        s += s & 1
        n = man << s
        r = math.isqrt(n)
        return _round_from(1, r, (l - s) >> 1, prec, rnd, sticky=r * r != n)
    if x.kind == _ZERO:
        return ZERO, False
    if x.kind == _POS_INF:
        return POS_INF, False
    return _EXACT_NAN  # nan or -inf


# -- exact vector sum ---------------------------------------------------------

def vector_sum(xs, prec: int, rnd: int) -> tuple[BigFloat, bool]:
    """Correctly rounded sum of a sequence, as if computed exactly.

    Any NaN operand, or the presence of both infinities, gives NaN.  The
    result and the inexact flag are those of the exact mathematical sum,
    which ``_exact_sum`` forms.
    """
    _check_prec(prec)
    pos_inf = neg_inf = False
    terms = []
    for t in xs:
        k = t.kind
        if k == _REGULAR:
            terms.append((t.sign * t.man, t.exp - t.man.bit_length()))
        elif k == _NAN:
            return _EXACT_NAN
        elif k == _POS_INF:
            pos_inf = True
        elif k == _NEG_INF:
            neg_inf = True
    if pos_inf and neg_inf:
        return _EXACT_NAN
    if pos_inf:
        return POS_INF, False
    if neg_inf:
        return NEG_INF, False
    return _round_sum(terms, prec, rnd)


def _round_sum(terms: list, prec: int, rnd: int) -> tuple[BigFloat, bool]:
    """The sum of the signed (m, l) int terms m * 2^l, rounded once to prec."""
    _check_prec(prec)
    man, lsb = _exact_sum(terms, prec)
    if not man:
        return ZERO, False
    return _round_from(1 if man > 0 else -1, abs(man), lsb, prec, rnd)


def _exact_sum(terms: list, prec: int) -> tuple[int, int]:
    """The sum man * 2^lsb of the signed (m, l) int terms m * 2^l for
    rounding to prec bits: exact, or with the terms that cannot reach the
    rounding point replaced by one unit 2^pos of their sum's sign below it.
    Terms are added in order while each lies within 64 bits of the sum so
    far; at the first that does not, the sum starts again over the terms
    sorted by top bit and stops where the rest total less than 2^pos."""
    s = lo = 0
    for m, l in terms:
        if not m:
            continue
        if not s:
            s, lo = m, l
        elif l >= lo:
            if l - lo > s.bit_length() + 64:
                break
            s += m << (l - lo)
        elif l + m.bit_length() + 64 < lo:
            break
        else:
            s, lo = (s << (lo - l)) + m, l
    else:
        return s, lo
    terms = sorted((t for t in terms if t[0]), key=lambda t: t[1] + t[0].bit_length(),
                   reverse=True)
    s, lo, i, pos = _head_sum(terms, 0, prec)
    if i < len(terms):
        rest = _head_sum(terms, i, 1)[0]
        if rest:
            return (s << (lo - pos)) + (1 if rest > 0 else -1), pos
    return s, lo


def _head_sum(terms: list, i: int, prec: int) -> tuple[int, int, int, int]:
    """(s, lo, j, pos): the exact sum s * 2^lo of terms[i:j], of nonzero
    terms sorted by decreasing top bit, where terms[j:] total less than
    2^pos, 4 bits below both lo and the sum's prec-bit rounding point, so
    they cannot change its sign.  j == len(terms) when all were summed."""
    n = len(terms)
    s = lo = 0
    while i < n:
        m, l = terms[i]
        if not s:
            s, lo = m, l
        else:
            pos = min(lo, lo + s.bit_length() - prec - 4) - 4
            if l + m.bit_length() + (n - i).bit_length() <= pos:
                return s, lo, i, pos
            if l < lo:
                s, lo = (s << (lo - l)) + m, l
            else:
                s += m << (l - lo)
        i += 1
    return s, lo, n, lo


# -- comparison ---------------------------------------------------------------

def compare(x: BigFloat, y: BigFloat) -> int:
    """Exact total order on the extended reals; NaN operands are unordered."""
    if x.kind == _NAN or y.kind == _NAN:
        raise ValueError("unordered: nan operand in comparison")
    sx, sy = x.signum(), y.signum()
    if sx != sy:
        return -1 if sx < sy else 1
    if sx == 0:
        return 0
    # same nonzero sign
    if x.kind != _REGULAR or y.kind != _REGULAR:
        ix = x.kind in (_POS_INF, _NEG_INF)
        iy = y.kind in (_POS_INF, _NEG_INF)
        if ix and iy:
            return 0
        mag = 1 if ix else -1  # the infinity has the larger magnitude
        return mag * sx
    if x.exp != y.exp:
        return (1 if x.exp > y.exp else -1) * sx
    bx, by = x.man.bit_length(), y.man.bit_length()
    mx = x.man << (by - bx) if by > bx else x.man
    my = y.man << (bx - by) if bx > by else y.man
    if mx == my:
        return 0
    return (1 if mx > my else -1) * sx


def compare_abs(x: BigFloat, y: BigFloat) -> int:
    return compare(abs(x), abs(y))


def to_int_nearest(x: BigFloat) -> int:
    """Nearest integer (ties to even); finite input only."""
    if x.kind == _ZERO:
        return 0
    if x.kind != _REGULAR:
        raise ValueError(f"not finite: {x}")
    l = x.lsb
    if l >= 0:
        return x.sign * (x.man << l)
    if x.exp < 0:  # |x| < 1/2
        return 0
    return x.sign * (_round_int(x.sign, x.man, x.exp, _NE) >> -l)
