"""Guaranteed decimal output and parsing for balls.

``to_decimal(x, d)`` renders ``[m' +/- r']`` where m' is a decimal float of
at most d significant digits (fewer if the ball is less accurate: the digit
count is capped so that m' differs from the true midpoint by at most one
unit in its last place), r' is a three-digit decimal upper bound covering
both the radius and the binary-to-decimal conversion error, and the printed
interval always contains the ball.  Brackets are omitted when the decimal
exactly equals the ball; the midpoint is omitted when not even one digit is
determined.  All radix conversions are performed on exact integers with
directed rounding; no floating point is involved in any bound.

``from_decimal`` parses the same grammar back into a containing ball;
decimal-exact midpoints round-trip exactly.

One function, ``_scaled_parts``, forms man * 2^e2 / 10^k as an exact
fraction; the decimal exponent, the digit count, the midpoint digits and
the three radius digits all come from it.  Two caps bound the work.  On
output, a midpoint or radius whose mantissa bits plus |binary exponent|
exceed ``_BITS_CAP`` is not scaled: it prints as a crude power-of-ten bound
(still sound, still parseable).  On input, a decimal exponent beyond
``_POW_CAP`` parses to a crude power-of-two enclosure.
"""

from __future__ import annotations

import math

from . import ball as ballmod
from . import bigfloat as bf
from . import magnitude as mag
from .ball import Ball
from .bigfloat import BigFloat, Rounding
from .magnitude import Magnitude

__all__ = ["to_decimal", "from_decimal", "ParseError"]

_LOG10_2 = 0.30102999566398119521

# Beyond this bit size the 5^k intermediates become impractical and output
# degrades to a crude power-of-ten bound.
_BITS_CAP = 20_000_000


class ParseError(ValueError):
    def __init__(self, msg: str, position: int):
        super().__init__(f"{msg} (at position {position})")
        self.position = position


# -- exact decimal scaling -----------------------------------------------------

def _beyond_cap(man: int, e2: int) -> bool:
    """Would scaling man * 2^e2 by a power of ten exceed the size cap?"""
    return man.bit_length() + abs(e2) > _BITS_CAP


def _pow10_upper(e: int) -> int:
    """k with 2^e <= 10^k, near the least such k."""
    # c / 10^10 brackets log10(2): above it for e > 0, below it for e < 0
    c = 3010299957 if e >= 0 else 3010299956
    return (e * c) // 10 ** 10 + 1


def _scaled_parts(man: int, e2: int, k: int) -> tuple[int, int]:
    """num, den with man * 2^e2 / 10^k == num / den."""
    num, den = man, 1
    a2, a5 = e2 - k, -k
    if a2 >= 0:
        num <<= a2
    else:
        den = 1 << -a2
    if a5 >= 0:
        num *= 5 ** a5
    else:
        den *= 5 ** (-a5)
    return num, den


def _floor_log10(man: int, e2: int) -> tuple[int, int, int]:
    """(E, num, den) with num / den = man * 2^e2 / 10^E in [1, 10)."""
    e = math.floor((e2 + man.bit_length() - 0.5) * _LOG10_2)
    while True:
        num, den = _scaled_parts(man, e2, e)
        if num < den:
            e -= 1
        elif num >= 10 * den:
            e += 1
        else:
            return e, num, den


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _rad_to_decimal_upper(r: Magnitude) -> tuple[int, int]:
    """(R, G) with 100 <= R <= 999 and R * 10^G an upper bound of r; beyond
    the cap, the crude 10^(G+2) bound of 2^r.exp."""
    man, e2 = r.man, r.exp - r.man.bit_length()
    if _beyond_cap(man, e2):
        return 100, _pow10_upper(r.exp) - 2
    e, num, den = _floor_log10(man, e2)
    rr = _ceil_div(100 * num, den)
    if rr >= 1000:
        return 100, e - 1
    return rr, e - 2


def _mid_to_decimal(man: int, lsb: int, q: int, e10: int) -> tuple[int, int, int, int]:
    """Nearest q-digit decimal of man * 2^lsb (decimal exponent e10).

    Returns (D, E, err_num, err_den): the digits, possibly bumped exponent,
    and the conversion error |value - D * 10^(E-q+1)| = err_num/err_den * 10^(E-q+1).
    """
    f = e10 - q + 1
    num, den = _scaled_parts(man, lsb, f)
    d, rem = divmod(num, den)
    r2 = rem << 1
    if r2 > den or (r2 == den and (d & 1)):
        d += 1
        err = den - rem
    else:
        err = rem
    if d == 10 ** q:
        d //= 10
        e10 += 1
    return d, e10, err, den


def _choose_digits(rad: Magnitude, e10: int, d: int) -> int:
    """Largest q in [1, d] with 2*rad <= 10^(e10 - q + 1); 0 if none.

    Beyond the cap, g below is only an upper bound, so q may come out smaller.
    """
    if rad.is_zero():
        return d
    man, e2 = rad.man, rad.exp - rad.man.bit_length() + 1  # 2 * rad
    if _beyond_cap(man, e2):
        g = _pow10_upper(rad.exp + 1)
    else:
        # the least g with 2 * rad <= 10^g
        e, num, den = _floor_log10(man, e2)
        g = e if num == den else e + 1
    return max(0, min(d, e10 + 1 - g))


# -- formatting -----------------------------------------------------------------

def _fmt_mid(sign: int, d: int, e10: int) -> str:
    ds = str(d).rstrip("0")
    sci = e10 < -4 or e10 >= 16
    if sci:
        body = ds[0] + ("." + ds[1:] if len(ds) > 1 else "") + "e" + str(e10)
    elif e10 >= len(ds) - 1:
        body = ds + "0" * (e10 - len(ds) + 1)
    elif e10 >= 0:
        body = ds[: e10 + 1] + "." + ds[e10 + 1:]
    else:
        body = "0." + "0" * (-e10 - 1) + ds
    return ("-" if sign < 0 else "") + body


def _fmt_rad(r: int, g: int) -> str:
    s = str(r)
    return f"{s[0]}.{s[1:]}e{g + 2}"


def _bound_str(r: Magnitude) -> str:
    return f"[+/- {_fmt_rad(*_rad_to_decimal_upper(r))}]"


def to_decimal(x: Ball, digits: int) -> str:
    """Decimal enclosure of x showing at most ``digits`` midpoint digits."""
    if digits < 1:
        raise ValueError("need at least one digit")
    mid, rad = x.mid, x.rad
    if mid.is_nan():
        return "nan"
    if rad.is_inf():
        return "[+/- inf]"
    if mid.is_inf():
        return "inf" if mid.signum() > 0 else "-inf"
    if rad.is_zero() and mid.is_zero():
        return "0"
    if mid.is_zero():
        return _bound_str(rad)
    man, lsb = mid.man, mid.lsb
    if _beyond_cap(man, lsb):
        return f"[+/- {_fmt_rad(100, _pow10_upper(ballmod.upper_mag(x).exp) - 2)}]"
    e10 = _floor_log10(man, lsb)[0]
    # the midpoint's exact decimal has at most e10 + 1 - min(lsb, 0) digits
    q = _choose_digits(rad, e10, min(digits, e10 + 1 - min(lsb, 0)))
    if q == 0:
        return _bound_str(ballmod.upper_mag(x))
    d, e10, err, den = _mid_to_decimal(man, lsb, q, e10)
    f = e10 - q + 1
    conv = mag.div_upper((den * 5 ** max(0, -f), 0), terms=[(err * 5 ** max(0, f), f)])
    total = mag.add(rad, conv)
    mid_str = _fmt_mid(mid.sign, d, e10)
    if total.is_zero():
        return mid_str
    return f"[{mid_str} +/- {_fmt_rad(*_rad_to_decimal_upper(total))}]"


# -- parsing ----------------------------------------------------------------------

def _scan_number(s: str, i: int) -> tuple[int, int, int]:
    """Scan a decimal number at s[i:]; returns (scaled_int, exp10, next_i)."""
    start = i
    n = len(s)
    sign = 1
    if i < n and s[i] in "+-":
        sign = -1 if s[i] == "-" else 1
        i += 1
    d0 = i
    while i < n and s[i].isdigit():
        i += 1
    if i == d0 and not s.startswith(".", i):  # ".5" has no integer digits
        raise ParseError("expected digits", i)
    intpart = s[d0:i]
    frac = ""
    if i < n and s[i] == ".":
        i += 1
        f0 = i
        while i < n and s[i].isdigit():
            i += 1
        if i == f0:
            raise ParseError("expected digits after decimal point", i)
        frac = s[f0:i]
    e10 = 0
    if i < n and s[i] in "eE":
        i += 1
        es = 1
        if i < n and s[i] in "+-":
            es = -1 if s[i] == "-" else 1
            i += 1
        e0 = i
        while i < n and s[i].isdigit():
            i += 1
        if i == e0:
            raise ParseError("expected exponent digits", i)
        e10 = es * int(s[e0:i])
    val = int(intpart + frac) * sign
    return val, e10 - len(frac), i


_POW_CAP = 3_000_000  # cap on |decimal exponent| for exact 5^k materialization


def _crude_pow2_upper_exp(bits: int, e10: int) -> int:
    """Exponent b with value < 2^b for value < 2^bits * 10^e10, near the least."""
    # c / 10^9 brackets log2(10): above it for e10 > 0, below it for e10 < 0
    c = 3321928095 if e10 >= 0 else 3321928094
    return bits + (e10 * c) // 10 ** 9 + 1


def _number_to_ball(d: int, e10: int, wp: int = 0) -> Ball:
    """Ball containing exactly the real d * 10^e10; exact when dyadic, else a
    wp-bit midpoint (by default, 32 bits beyond d's)."""
    if d == 0:
        return Ball(bf.ZERO)
    if abs(e10) > _POW_CAP:
        b = _crude_pow2_upper_exp(abs(d).bit_length(), e10)
        return Ball(bf.ZERO, mag.pow2(b))
    if e10 >= 0:
        return Ball(BigFloat.from_man_exp(d * 5 ** e10, e10))
    p5 = 5 ** (-e10)
    if d % p5 == 0:
        return Ball(BigFloat.from_man_exp(d // p5, e10))
    wp = wp or max(64, abs(d).bit_length() + 32)
    mid = bf.div(BigFloat.from_int(d), BigFloat.from_int(10 ** (-e10)), wp, Rounding.NEAREST_EVEN)
    return ballmod.rounded(mid, [], wp)


def _posnumber_to_mag(r: int, e10: int) -> Magnitude:
    if r == 0:
        return mag.ZERO
    if abs(e10) > _POW_CAP:
        return mag.pow2(_crude_pow2_upper_exp(r.bit_length(), e10))
    return mag.div_upper((5 ** max(0, -e10), 0), terms=[(r * 5 ** max(0, e10), e10)])


def from_decimal(s: str) -> Ball:
    """Parse a decimal ball string; the result contains every denoted real."""
    t = s.strip()
    off = len(s) - len(s.lstrip())
    if t == "nan":
        return ballmod.indeterminate()
    if t == "inf":
        return Ball(bf.POS_INF)
    if t == "-inf":
        return Ball(bf.NEG_INF)
    if not t:
        raise ParseError("empty input", 0)
    if t.startswith("["):
        if not t.endswith("]"):
            raise ParseError("missing ']'", off + len(t))
        inner = t[1:-1].strip()
        ioff = off + 1 + (len(t) - 1 - len(t[1:].lstrip()))
        head, sep, tail = inner.partition("+/-")
        if not sep:
            raise ParseError("missing '+/-'", ioff)
        tail = tail.strip()
        if tail == "inf":
            radm = mag.INF
        else:
            r, re10, j = _scan_number(tail, 0)
            if j != len(tail):
                raise ParseError("trailing characters in radius", ioff)
            if r < 0:
                raise ParseError("radius must be nonnegative", ioff)
            radm = _posnumber_to_mag(r, re10)
        head = head.strip()
        if not head:
            return Ball(bf.ZERO, radm)
        d, e10, j = _scan_number(head, 0)
        if j != len(head):
            raise ParseError("trailing characters in midpoint", ioff + j)
        core = _number_to_ball(d, e10)
        return Ball(core.mid, mag.add(core.rad, radm))
    d, e10, j = _scan_number(t, 0)
    if j != len(t):
        raise ParseError("trailing characters", off + j)
    return _number_to_ball(d, e10)
