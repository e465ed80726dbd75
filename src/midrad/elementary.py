"""Elementary functions on real balls.

Each function reduces its argument, then sums a Taylor series on plain ints
and bounds the error once.  One kernel, ``_series``, serves exp, sin, cos,
atanh (for log) and atan.  The reduced argument is an int with w fractional
bits: the precision plus guard bits, plus for sin, atan and log near 1 as
many bits as the argument lies below 1.

The kernel sums a short series term by term: integer multiplies, shifts
and floor divisions, at most 2 ulps (2^-w) a term, and the first term that
floors to 0 is within 2 ulps of 0, so the tail bound (that term for
alternating series, q/(1-q) times it otherwise) adds a few more.  A long
series -- at least 24 terms at w >= 2000 bits, its term count n fixed up
front from a lower bound on each term -- is summed by rectangular splitting
(Paterson and Stockmeyer; Johansson, arXiv:1410.7176): the powers y, y^2,
..., y^m of y = x or x^2, m about sqrt(n), once; each block of m terms as
one sum of small-int multiples of them over a common denominator, divided
once; and the blocks chained by one full multiply by y^m each, so that
about m + n/m of the n full-width multiplies remain.  The
error of every power, floor, block division and chained multiply is
tracked in integers, and comes to a few ulps; the first unsummed term is
below 1 ulp.  Whether a series is long is decided by its term count, not by
w alone: sin, atan and log raise w by the bits a tiny argument lies below
1, where one or two terms suffice.  The reduced argument's own radius --
the cached pi or log(2) radius times the reduction multiple, plus the floor
to w bits -- is folded in once through the function's Lipschitz bound on
the reduced range.

The reduction balances the series length against r cheap steps on ints,
each of which doubles the error, so r more guard bits pay for them.  From
2000 bits on, blocked terms are cheaper, and sin/cos and atan/log take
half as many steps (measured with ``midrad bench elementary``) but keep
the guard bits of the full count, so that no radius gets wider:

- exp: t = x - k log 2 with |t| <= log(2)/2; sum at t 2^-r, r about
  sqrt(w)/2 + t.exp, and square r times.
- sin, cos: t = x - k pi/2 with |t| <= pi/4; sum at t 2^-r, r about
  sqrt(w)/2 - 5 + t.exp (0 below 144 bits, sqrt(w)/4 - 5 + t.exp from 2000
  bits), and recover both by r double-angle steps c + i s <- (c + i s)^2.
  With no step, only the requested one of sin t and cos t is summed.
- log: x = a 2^e with a in [3/4, 3/2), log a = 2 atanh u for
  u = (a - 1)/(a + 1), |u| <= 1/5; halve atanh u until |u| <= 2^-(2+h(w)).
- atan: atan x = pi/2 - atan(1/x) for x > 1; halve atan z until
  z <= 2^-(3+h(w)).

One routine, ``_halve``, takes both atan and atanh steps, z <- z / (1 + sqrt(1
+- z^2)); h(w) is 0 below 256 bits, about sqrt(w)/4 above and sqrt(w)/8 from
2000 bits.  A result and its radius are rounded once (``_fixed_ball``): the
series error, the reduced argument's radius and the input ball's radius,
each times its bound on |f'|, go into one exact sum that is rounded up
once, with the midpoint's actual rounding error (``ball._round_exact``).
atan(+-1) and atan beyond 2^(prec+8) are exact multiples of pi/4 and pi/2
given to the same function.

Internal evaluation parameters are capped so that the work stays polynomial
in the precision regardless of the input: beyond the cutoffs, sin/cos return
[0 +/- 1] and exp collapses to a tiny one-sided enclosure (negative side) or
the whole line (positive side).

An inexact input carries only so many bits, and no result is computed
beyond them: exp, sin/cos, log and atan evaluate the point value at
min(prec, bound + 64) bits (``_accuracy_prec``), where bound is what the
radius they propagate leaves of the result.  For exp, sin, cos and atan it
is the input's absolute accuracy, -x.rad.exp: the propagated radius is at
least the input radius times the result's magnitude (exp) or on the scale
of a result below 2 in size (sin, cos, atan).  For log it is the input's
relative accuracy plus the bit length of x.mid.exp, as |log x| <= (|e| +
1) log 2.  The point's rounding error then lies about 64 bits below the
propagated radius, so the radius rounded up to 30 bits keeps its value
(``tools/same_results.py`` finds none wider).  The cutoffs above still test
the caller's prec, so a capped precision never turns a huge argument into
[0 +/- 1] or the whole line.

The constants pi and log(2) are evaluated by binary splitting of fast
series (Machin's formula, atanh(1/3)) at a power-of-two working precision,
the least one at least 16 bits above the request (``_bucket``), so results
are identical whether or not the cache is warm.  ``_compute_pi`` and
``_compute_log2`` are ``functools.cache`` functions of that precision:
their ``cache_info()`` counts the hits and misses, and ``cache_clear()``
empties them.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import accumulate
from typing import Callable, NamedTuple

from . import ball
from . import bigfloat as bf
from . import magnitude as mag
from .ball import Ball
from .bigfloat import BigFloat, Rounding

__all__ = [
    "const_pi",
    "const_log2",
    "exp",
    "sin_cos",
    "sin",
    "cos",
    "log",
    "atan",
    "power",
    "sinh_cosh",
]

_NE = Rounding.NEAREST_EVEN


# -- cached constants ---------------------------------------------------------

def _binsplit(a: int, b: int, M: int, alternating: bool) -> tuple[int, int]:
    """(P, Q) with P/Q = sum_{k=a}^{b-1} (+-1)^k / ((2k+1) * M^(k-a))."""
    if b - a == 1:
        p = -1 if (alternating and (a & 1)) else 1
        return p, 2 * a + 1
    m = (a + b) // 2
    p1, q1 = _binsplit(a, m, M, alternating)
    p2, q2 = _binsplit(m, b, M, alternating)
    mp = M ** (m - a)
    return p1 * q2 * mp + p2 * q1, q1 * q2 * mp


def _arctan_inv(m: int, wp: int, alternating: bool) -> Ball:
    """Enclosure of atan(1/m) (alternating) or atanh(1/m) for an int m >= 2."""
    # each term gains at least int(2 log2 m) bits
    n = (wp + 10) // int(2 * math.log2(m)) + 2
    p, q = _binsplit(0, n, m * m, alternating)
    # the unsummed terms add up to at most the first of them, or (terms
    # shrinking by m^2 >= 4) to twice it
    tail = mag.div_upper(((2 * n + 1) * m ** (2 * n + 1), 0), terms=[(1 if alternating else 2, 0)])
    return ball.rounded(bf.div(BigFloat.from_int(p), BigFloat.from_int(q * m), wp, _NE),
                        [(tail, mag.ONE)], wp)


@functools.cache
def _compute_pi(wp: int) -> Ball:
    # pi = 16 atan(1/5) - 4 atan(1/239)
    a = ball.scale_2exp(_arctan_inv(5, wp + 8, True), 4)
    b = ball.scale_2exp(_arctan_inv(239, wp + 8, True), 2)
    return ball.sub(a, b, wp + 8)


@functools.cache
def _compute_log2(wp: int) -> Ball:
    # log 2 = 2 atanh(1/3)
    return ball.scale_2exp(_arctan_inv(3, wp + 8, False), 1)


def _bucket(wp: int) -> int:
    """The cached precision for wp bits: the least power of two >= wp + 16, at least 64."""
    return max(64, 1 << (wp + 15).bit_length())


def _pi_ball(wp: int) -> Ball:
    return _compute_pi(_bucket(wp))


def _log2_ball(wp: int) -> Ball:
    return _compute_log2(_bucket(wp))


def const_pi(prec: int) -> Ball:
    """Enclosure of pi with radius well below 2**(4-prec)."""
    bf._check_prec(prec)
    return ball.round_to(_pi_ball(prec), prec)


def const_log2(prec: int) -> Ball:
    bf._check_prec(prec)
    return ball.round_to(_log2_ball(prec), prec)


# -- the series kernel -----------------------------------------------------------

class _Series(NamedTuple):
    """How the fixed-point kernel sums one Taylor series."""

    odd: bool          # first term x and f(-x) = -f(x); else first term 1
    square: bool       # powers of x step by 2; else by 1
    factorial: bool    # term_j = term_(j-d) x^d / ((j-d+1)...j); else x^j / j
    alternating: bool  # signs alternate and the unsummed terms add up to at
                       # most the first of them; else to twice it


_EXP = _Series(False, False, True, False)
_SIN = _Series(True, True, True, True)
_COS = _Series(False, True, True, True)
_ATANH = _Series(True, True, False, False)
_ATAN = _Series(True, True, False, True)

# |atanh'(u)| = 1/(1 - u^2) <= 25/24 for |u| <= 1/5
_ATANH_LIPSCHITZ = mag.div_upper((24, 0), terms=[(25, 0)])

# Fraction bits the kernel carries beyond the caller's working precision.
_GUARD = 16

# Bits a point value of an inexact input keeps beyond those its radius leaves.
_ACC_GUARD = 64


def _accuracy_prec(prec: int, bound: int) -> int:
    """The working precision for a result that carries at most bound bits."""
    return min(prec, max(0, bound) + _ACC_GUARD)


# Series of at least _BLOCK_TERMS terms at w >= _BLOCK_BITS bits are summed
# in blocks, the rest term by term: below about 2000 bits a full multiply
# costs little more than the small ones of a block, and the loop is as fast
# or faster (measured on the reduced arguments of exp, log, sin and atan).
_BLOCK_TERMS = 24
_BLOCK_BITS = 2000


def _term_bits(f: _Series, n: int, k: int) -> int:
    """A lower bound on -log2 of term n, c_n (x 2^-w)^(o + s n), for
    |x 2^-w| < 2^-k: 1/c_n is (o + s n)! for the factorial shapes and
    o + s n otherwise (o = 1 for the odd shapes, s = 2 for the square ones)."""
    t = f.odd + (n << f.square)
    return (math.factorial(t) if f.factorial else t).bit_length() - 1 + t * k


def _term_count(f: _Series, w: int, k: int) -> int:
    """The least n with _term_bits(f, n, k) >= w, i.e. term n below 2^-w,
    from a float estimate of o + s n; k >= 0, or k = -1 for exp."""
    t = w / max(k, 1)
    if f.factorial:  # log2 t! is about t log2(t / e)
        for _ in range(4):
            t = w / max(1.0, k + math.log2(t / math.e))
    n = max(1, int(t) - f.odd >> f.square)
    while _term_bits(f, n, k) < w:
        n += 1
    while n > 1 and _term_bits(f, n - 1, k) >= w:
        n -= 1
    return n


def _series(f: _Series, w: int, x: int) -> tuple[int, int]:
    """(s, err) with |s - f(x 2^-w) 2^w| <= err.

    |x| <= 2^w is required, and |x| <= 2^w / 5 for the power shape.  Term j
    is c_j x^o y^j with y = +-x^s (o = 1 and s = 2 for the odd and square
    shapes), signs in y.

    A short series is summed term by term: each computed term is within 2
    ulps (2^-w) of its exact value, as the floors of one step cost at most
    1 + (error carried in + 1 ulp of x^2) / divisor, and the first term that
    floors to 0 is within 2 ulps of 0.

    A long one, of n terms with term n below 1 ulp (``_term_count``), is
    summed by rectangular splitting: y^0 .. y^m, m = isqrt(n), are computed
    once, each block of m terms is one sum of small-int multiples of them
    over a common denominator, and the blocks are chained from the top by
    one full multiply by y^m each (Horner in y^m).  The factorial shapes
    divide block j0 by c_j0, so its denominator is (o+s j1)! / (o+s j0)!;
    the power shape's is the product of the block's o + s j.  The powers'
    errors and the error of every floor, block division and chained
    multiply are tracked in integers, so err is a few ulps.
    """
    neg = x < 0
    a = -x if neg else x
    square, factorial, o = f.square, f.factorial, f.odd
    # odd powers of x < 0: the square shapes negate the sum at the end, the
    # step-1 shape alternates its signs
    alt = f.alternating or (neg and not square)
    k = w - a.bit_length()  # |x 2^-w| < 2^-k
    if w < _BLOCK_BITS or _term_bits(f, _BLOCK_TERMS - 1, k) >= w:
        xm = a * a >> w if square else a
        p = a if o else 1 << w
        j = 1 if o else 0
        dj = 2 if square else 1
        s = p
        n = 0
        while True:
            p = p * xm >> w
            if factorial:
                p //= (j + 1) * (j + 2) if square else j + 1
                t = p
            else:
                t = p // (j + 2)
            if not t:
                break
            j += dj
            n += 1
            s += -t if alt and n & 1 else t
        # the first unsummed term is within 2 ulps of 0; for x = 0 all are 0
        err = 2 * (n + (1 if f.alternating else 2)) if a else 0
        return (-s if neg and o else s), err
    n = _term_count(f, w, k)
    m = math.isqrt(n)
    # y and its powers, ys[i] within es[i] ulps of y^i 2^w
    y = a * a >> w if square else a
    ey = 1 if square else 0
    if alt:
        y = -y
    ys, es = [1 << w, y], [0, ey]
    for _ in range(m - 1):
        yi, ei = ys[-1], es[-1]
        ys.append(yi * y >> w)
        es.append(((ei * abs(y) + ey * abs(yi) + ei * ey) >> w) + 2)
    ym, em = ys[m], es[m]
    s = 1 + square
    # from the top block down, t within e ulps of T_j0 = the sum of terms j0
    # .. n-1 over c_j0 y^j0 (factorial) or over y^j0 (power); each T_j0 is
    # (sum of cs[i] y^i + mul y^m T_j1) / den
    t = e = 0
    for j0 in range((n - 1) // m * m, -1, -m):
        j1 = min(j0 + m, n)
        if factorial:  # cs[i] = (o + s j1)! / (o + s (j0 + i))!
            cs = list(accumulate(range(o + s * j1, o + s * j0, -1), operator.mul))[s - 1::s]
            cs.reverse()
            den, mul = cs[0], 1
        else:  # cs[i] = den / (o + s (j0 + i))
            ds = range(o + s * j0, o + s * j1, s)
            den = mul = math.prod(ds)
            cs = [den // d for d in ds]
        num = sum(map(operator.mul, cs, ys))
        enum = sum(map(operator.mul, cs, es))
        if j1 < n:
            # |ym t - y^m T| <= em |t| + e |ym| + em e, and the floor 1
            num += mul * (ym * t >> w)
            enum += mul * (((em * (abs(t) + e) + e * abs(ym)) >> w) + 2)
        t, e = num // den, -(-enum // den) + 1
    if o:
        t, e = a * t >> w, (a * e >> w) + 2
    # term n is below 1 ulp, and so are the unsummed terms together
    # (alternating) or, shrinking by at most 1/2, under 2
    e += 1 if f.alternating else 2
    return (-t if neg and o else t), e


def _fixed_ball(s: int, err: int, w: int, pairs: list, prec: int,
                h: int = 0, k: int = 0, c: Ball = ball.ZERO) -> Ball:
    """(s +/- err) 2^(h-w) - k c, widened by sum |a b| over the (a, b) pairs,
    rounded to nearest at prec bits, its radius, that error included, rounded
    up once; the pairs are where callers put the reduced argument's and the
    input's radii times the function's bounds on |f'|.  The exact value is
    one int times 2^l, rounded on ints by ``ball._round_exact``, and its
    rounding error joins the radius sum as one more exact term."""
    l = h - w
    terms = [(err, l)]
    if k:
        s, l = _sub_multiple(s, l, c.mid, k)
        pairs = [*pairs, (c.rad, BigFloat.from_int(k))]
    return ball._round_exact(s, l, pairs, prec, terms)


def _sub_multiple(v: int, l: int, c: BigFloat, k: int) -> tuple[int, int]:
    """(d, e) with d 2^e = v 2^l - k c exactly, for a regular c."""
    cl = c.exp - c.man.bit_length()
    if cl < l:
        v, l = v << (l - cl), cl
    return v - (k * c.sign * c.man << (cl - l)), l


def _reduce(m: BigFloat, const: Callable[[], Ball], n0: int) -> tuple[int, Ball]:
    """(k, m - k c) for c = const() and k nearest m / c; for |m| < 2^(n0 - 1)
    and for m = 0, k = 0 and const is not called."""
    n = m.exp
    if n < n0 or not m.is_regular():
        return 0, Ball(m)
    c = const()
    q, _ = bf.div(m, c.mid, max(32, n + 4), _NE)
    k = bf.to_int_nearest(q)
    t = BigFloat.from_man_exp(*_sub_multiple(m.sign * m.man, m.lsb, c.mid, k))
    return k, Ball(t, mag.mul_int_upper(c.rad, abs(k)))


def _fixed(x: Ball, w: int) -> tuple[int, mag.Magnitude]:
    """floor(x.mid 2^w) for a finite midpoint, and x.rad widened by the floor's error."""
    m = x.mid
    if not m.is_regular():
        return 0, x.rad
    v, s = m.sign * m.man, m.lsb + w
    if s >= 0:
        return v << s, x.rad
    return v >> -s, mag.add(x.rad, mag.pow2(-w))


# -- exp ------------------------------------------------------------------------

def _expm1_upper(r: mag.Magnitude) -> mag.Magnitude:
    """Upper bound of e^r - 1."""
    if r.is_zero():
        return mag.ZERO
    if r.is_inf():
        return mag.INF
    if r.exp <= 0:  # r <= 1: e^r - 1 <= r (1 + r)
        return mag.mul(r, mag.add(mag.ONE, r))
    if r.exp > 62:
        return mag.INF
    return mag.pow2(1 << (r.exp + 1))  # e^r <= 2^(2r) <= 2^(2^(exp+1))


def _exp_point(m: BigFloat, xrad: mag.Magnitude, prec: int) -> Ball:
    """Tight enclosure of e^(m + e) for a finite m and all |e| <= xrad."""
    n = m.exp
    wp = prec + (n if n > 0 else 0) + 16
    k, t = _reduce(m, lambda: _log2_ball(wp), 0)
    w = prec + 16 + _GUARD  # wp less the n bits that only k needs
    x, rad = _fixed(t, w)
    # sum at x 2^-r with r more guard bits, then square r times
    r = max(0, math.isqrt(w) // 2 + abs(x).bit_length() - w)
    w += r
    s, err = _series(_EXP, w, x)
    for _ in range(r):
        # |s^2 - y^2| <= err (2 s + err) for |s - y| <= err, one ulp per floor
        err = ((2 * s + err) * err >> w) + 2
        s = s * s >> w
    # |e^(t+d+e) - e^t| <= E (e^|d| - 1) + E (e^|e| - 1) + E (e^|d| - 1)(e^|e| - 1)
    # with e^t 2^k <= E
    big_e = BigFloat.from_man_exp(s + err, k - w)
    qa = _expm1_upper(rad)
    pairs = [(big_e, qa)]
    if not xrad.is_zero():
        qb = _expm1_upper(xrad)
        pairs += [(big_e, qb), (mag.dot_upper([(big_e, qa)]), qb)]
    return _fixed_ball(s, err, w, pairs, prec, k)


def exp(x: Ball, prec: int) -> Ball:
    m = x.mid
    if m.is_nan():
        return ball.indeterminate()
    if x.rad.is_inf():  # every real, whatever the midpoint
        return ball.whole_line()
    if m.is_inf():
        return Ball(bf.POS_INF) if m.signum() > 0 else Ball(bf.ZERO)
    cutoff = max(128, 2 * prec)
    if m.is_regular() and m.exp > cutoff:
        hi = ball.upper_bound(x, 32)
        if hi.is_regular() and hi.signum() < 0 and hi.exp > cutoff:
            t = 1 << cutoff
            return Ball(BigFloat.from_man_exp(1, -t - 1), mag.pow2(-t - 1))
        return ball.whole_line()
    if not x.rad.is_zero():  # e^x's radius is about e^x rad
        prec = _accuracy_prec(prec, -x.rad.exp)
    return _exp_point(m, x.rad, prec)


# -- sin / cos ------------------------------------------------------------------

def _double_angle(c: int, s: int, err: int, w: int, r: int) -> tuple[int, int, int]:
    """(c', s', err'): r steps c + i s <- (c + i s)^2 on w-bit ints, with
    |(c' + i s') 2^-w - u^(2^r)| <= err' 2^-w for |(c + i s) 2^-w - u| <= err 2^-w
    and |u| = 1, so err' also bounds each part's error."""
    for _ in range(r):
        # |z^2 - u^2| <= E (2 + E) for |z - u| <= E, and the two floors cost
        # under 1 ulp each
        err = 2 * err + (err * err >> w) + 3
        c, s = (c + s) * (c - s) >> w, c * s >> (w - 1)
    return c, s, err


def _sin_cos_point(m: BigFloat, xr: list, prec: int, parts: tuple) -> tuple:
    """Enclosures of sin (part 0) and cos (part 1) at m for each of parts,
    widened by sum |a b| over the (a, b) pairs xr."""
    n = m.exp
    wp = prec + (n if n > 0 else 0) + 16
    k, t = _reduce(m, lambda: ball.scale_2exp(_pi_ball(wp), -1), 1)
    w = prec + 16 + _GUARD  # wp less the n bits that only k needs
    e = min(t.mid.exp, 0)
    ws = w - e  # sin t is about t: keep wp bits relative to t
    # g guard bits for about sqrt(w)/2 doubling steps, of which r are taken:
    # all of them below _BLOCK_BITS, about sqrt(w)/4 from there on, where
    # blocked terms are cheaper; at t = 0 both series are exact, and no
    # doubling step may add error
    g = max(0, math.isqrt(w) // 2 - 5 + e) if t.mid.is_regular() else 0
    r = g if w < _BLOCK_BITS else min(g, max(0, math.isqrt(w) // 4 - 5 + e))
    # part p of m = t + k pi/2 is +-sin t (q = 0) or +-cos t (q = 1),
    # q = (k + p) & 1, negated when (k + p) & 2
    qs = {(k + p) & 1 for p in parts}
    if g:
        # sum at t 2^-r with g more guard bits; the doubling steps mix sin
        # and cos, so both run at ws bits, and 4 more bits keep the error
        # (both series' and 3 ulps a step) below that of one series summed
        # at t
        w = ws = ws + 4
    if r:
        qs = {0, 1}
    sums = {}
    for q, f, wq in ((0, _SIN, ws), (1, _COS, w)):
        if q in qs:
            xq, rq = _fixed(t, wq + g - r)
            sums[q] = (*_series(f, wq + g, xq), wq + g, [(rq, mag.ONE), *xr])  # |sin'|, |cos'| <= 1
    if r:
        c, s, err = _double_angle(sums[1][0], sums[0][0], sums[0][1] + sums[1][1], w + g, r)
        sums = {0: (s, err, *sums[0][2:]), 1: (c, err, *sums[1][2:])}
    res = [_fixed_ball(*sums[(k + p) & 1], prec) for p in parts]
    return tuple(-b if (k + p) & 2 else b for p, b in zip(parts, res))


_UNIT = Ball(bf.ZERO, mag.ONE)


def _tighten_unit(b: Ball) -> Ball:
    """sin/cos of a real always lies in [-1, 1]: [0 +/- 1] for a radius of 1
    or more, where it is no wider."""
    if mag.compare(b.rad, mag.ONE) >= 0:
        return _UNIT
    return b


def _sin_cos(x: Ball, prec: int, parts: tuple) -> tuple:
    m = x.mid
    if m.is_nan() or m.is_inf():
        return (ball.indeterminate(),) * len(parts)
    if m.is_regular() and m.exp > max(65536, 4 * prec):
        return (_UNIT,) * len(parts)
    if x.rad.is_zero():
        return _sin_cos_point(m, [], prec, parts)
    return tuple(map(_tighten_unit, _sin_cos_point(m, [(x.rad, mag.ONE)],  # Lipschitz 1
                                                   _accuracy_prec(prec, -x.rad.exp), parts)))


def sin_cos(x: Ball, prec: int) -> tuple[Ball, Ball]:
    return _sin_cos(x, prec, (0, 1))


def sin(x: Ball, prec: int) -> Ball:
    return _sin_cos(x, prec, (0,))[0]


def cos(x: Ball, prec: int) -> Ball:
    return _sin_cos(x, prec, (1,))[0]


# -- log --------------------------------------------------------------------------

def _log_point(m: BigFloat, xr: list, prec: int) -> Ball:
    """Enclosure of log m for m > 0, widened by sum |a b| over the (a, b)
    pairs xr."""
    e = m.exp
    wp = prec + abs(e).bit_length() + 16
    bl = m.man.bit_length()
    # a = m * 2^-e in [1/2, 1); renormalize to [3/4, 3/2) for |u| <= 1/5
    if m.man << 2 < 3 << bl:  # a < 3/4: halve the exponent part instead
        e -= 1
    # a = man / 2^z, so u = (a - 1)/(a + 1) = (man - 2^z)/(man + 2^z)
    z = bl + e - m.exp
    num, den = m.man - (1 << z), m.man + (1 << z)
    r, g = _halvings(wp + _GUARD)
    w = wp + _GUARD + g + max(0, den.bit_length() - num.bit_length())
    u, rem = divmod(num << w, den)
    # log a = 2 atanh u = 2^(h+1) atanh y; for r = 0, |u| <= 1/5 needs no step
    y, h = _halve(u, w, 2 + r, -1)
    # y is within 4 ulps after a step, u within 1 if floored; log a = 2^(h+1) atanh y
    urad = mag.mul_2exp(_ATANH_LIPSCHITZ, h + 1 + (2 - w if h else -w)) if h or rem else mag.ZERO
    return _fixed_ball(*_series(_ATANH, w, y), w, [(urad, mag.ONE), *xr], prec, h + 1,
                       *((-e, _log2_ball(wp)) if e else ()))


def log(x: Ball, prec: int) -> Ball:
    m = x.mid
    lo = ball.lower_bound(x, 32)
    if lo.signum() <= 0:
        return ball.indeterminate()  # NaN, -inf, or the ball touches (-inf, 0]
    if m.is_inf():
        return Ball(bf.POS_INF)
    # sup 1/t over the ball; |log m| <= (|m.exp| + 1) log 2
    xr = [] if x.rad.is_zero() else [(mag.div_upper(lo, [(x.rad, mag.ONE)]), mag.ONE)]
    return _log_point(m, xr, _accuracy_prec(prec, ball.rel_accuracy_bits(x) + m.exp.bit_length())
                      if xr else prec)


# -- atan -------------------------------------------------------------------------

def _halvings(w: int) -> tuple[int, int]:
    """(r, g) at w bits: _halve takes its argument r bits below 1/8 (atan) or
    1/4 (atanh), and the series keeps g >= r guard bits for the 2^r that the
    steps scale its error by.  g is 0 below 256 bits and about sqrt(w)/4
    above, where a step (one isqrt) costs about as much as ten terms of the
    series; r is g below _BLOCK_BITS and about sqrt(w)/8 from there on,
    where blocked terms are cheaper.  Keeping g there keeps the radius of
    an argument that needs no step."""
    g = max(0, math.isqrt(w) // 4 - 3)
    return (g if w < _BLOCK_BITS else max(0, math.isqrt(w) // 8 - 3)), g


def _halve(z: int, w: int, k: int, sign: int) -> tuple[int, int]:
    """(y, h): f(z 2^-w + d) = 2^h f(y 2^-w + e) with |y| <= 2^(w-k), and for
    h > 0, |e| <= 4 ulps (2^-w) when |d| <= 4 ulps; f is atan for sign 1 and
    |z| <= 2^w, atanh for sign -1 and |z| <= 2^w / 5.

    Each step z <- z / (1 + sqrt(1 + sign z^2)) halves f(z).  Its derivative
    1 / (q (1 + q)), q = sqrt(1 + sign z^2), is at most 1/2 for atan and
    0.52 for atanh on those ranges, and the two floors add under 1.3 ulps
    (the isqrt's 1 ulp costs at most z / (1 + q)^2 <= 1/4 of one), so an
    error of at most 4 ulps stays at most 4 ulps.
    """
    h = 0
    while (abs(z) - 1) >> (w - k) > 0:  # |z| > 2^(w-k), without building 2^w for tiny z
        one = 1 << w
        z = (z << w) // (one + math.isqrt((one << w) + sign * z * z))
        h += 1
    return z, h


def _atan_point(m: BigFloat, xr: list, prec: int) -> Ball:
    """Enclosure of atan m for a finite m, widened by sum |a b| over the
    (a, b) pairs xr."""
    wp = prec + 24
    a = abs(m)
    flip = bf.compare(a, bf.ONE)
    if not flip:  # atan 1 = 0 - (-1) pi/4
        res = _fixed_ball(0, 0, 0, xr, prec, 0, -1, ball.scale_2exp(_pi_ball(wp), -2))
    else:
        r, g = _halvings(wp + _GUARD)
        w = wp + _GUARD + g
        if flip > 0:  # atan a = pi/2 - atan(1/a)
            z, rem = divmod(1 << (w - a.lsb), a.man)
            rad = mag.pow2(-w) if rem else mag.ZERO
        else:
            w -= a.exp  # atan a is about a: keep wp bits relative to a
            z, rad = _fixed(Ball(a), w)
        z, h = _halve(z, w, 3 + r, 1)
        if h:
            rad = mag.pow2(2 - w)
        s, err = _series(_ATAN, w, z)  # |atan'| <= 1; flipped, pi/2 - atan(1/a)
        res = _fixed_ball(-s if flip > 0 else s, err, w, [(mag.mul_2exp(rad, h), mag.ONE), *xr],
                          prec, h, *((-1, ball.scale_2exp(_pi_ball(wp), -1)) if flip > 0 else ()))
    return ball.neg(res) if m.sign < 0 else res


_FOUR = mag.from_int_upper(4)


def atan(x: Ball, prec: int) -> Ball:
    m = x.mid
    if m.is_nan():
        return ball.indeterminate()
    # Lipschitz 1, range width pi
    xr = [] if x.rad.is_zero() else [(mag.min_(x.rad, _FOUR), mag.ONE)]
    if m.is_inf() or m.exp > prec + 8:
        # |atan(m) - sign * pi/2| = atan(1/|m|) <= 2^(1 - exp), and 0 for m = +-inf
        if m.is_regular():
            xr.append((mag.pow2(1 - m.exp), mag.ONE))
        return _fixed_ball(0, 0, 0, xr, prec, 0, -m.signum(),
                           ball.scale_2exp(_pi_ball(prec + 8), -1))
    return _atan_point(m, xr, _accuracy_prec(prec, -x.rad.exp) if xr else prec)


# -- pow --------------------------------------------------------------------------

_POW_INT_LIMIT = 1 << 20


def _pow_int(x: Ball, e: int, prec: int) -> Ball:
    """Binary powering on balls; e != 0."""
    n = abs(e)
    wp = prec + 2 * n.bit_length() + 4
    bits = bin(n)[3:]
    acc = x
    for b in bits:
        acc = ball.mul(acc, acc, wp)
        if b == "1":
            acc = ball.mul(acc, x, wp)
    if e < 0:
        return ball.div(Ball(bf.ONE), acc, prec)
    return ball.round_to(acc, prec)


def power(x: Ball, y: Ball, prec: int) -> Ball:
    """x**y: binary powering for small exact integer y, else exp(y log x)."""
    my = y.mid
    if my.is_nan() or x.mid.is_nan():
        return ball.indeterminate()
    if y.rad.is_zero() and my.is_integer() and not my.is_inf():
        if my.is_zero():
            return Ball(bf.ONE)
        e = bf.to_int_nearest(my)
        if abs(e) <= _POW_INT_LIMIT:
            if x.mid.is_zero() and x.rad.is_zero():
                return Ball(bf.ZERO) if e > 0 else ball.indeterminate()
            return _pow_int(x, e, prec)
        if x.mid.signum() < 0:  # x^e = (-1)^e (-x)^e, by exp(e log(-x)) below
            r = power(ball.neg(x), y, prec)
            return ball.neg(r) if e & 1 else r
    if x.mid.is_zero() and x.rad.is_zero():
        # 0^y = 0 for y bounded away from zero on the positive side
        if ball.lower_bound(y, 32).signum() > 0:
            return Ball(bf.ZERO)
        return ball.indeterminate()
    lg = log(x, 32)
    if lg.is_indeterminate():
        return ball.indeterminate()
    est = ball.mul(y, lg, 32).mid
    n_est = est.exp if est.is_regular() else 0
    wp = prec + (n_est if n_est > 0 else 0) + 12
    return exp(ball.mul(y, log(x, wp), wp), prec)


# -- hyperbolic (support for the complex layer) -------------------------------------

def sinh_cosh(x: Ball, prec: int) -> tuple[Ball, Ball]:
    wp = prec + 8
    e1 = exp(x, wp)
    e2 = exp(ball.neg(x), wp)
    sh = ball.scale_2exp(ball.sub(e1, e2, wp), -1)
    ch = ball.scale_2exp(ball.add(e1, e2, wp), -1)
    return ball.round_to(sh, prec), ball.round_to(ch, prec)
