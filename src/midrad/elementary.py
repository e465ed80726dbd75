"""Elementary functions on real balls.

Each function reduces its argument, then sums a Taylor series on plain ints
and bounds the error once.  One kernel, ``_series``, serves exp, sin, cos,
atanh (for log) and atan.  The reduced argument is an int with w fractional
bits: the precision plus guard bits, plus for sin, atan and log near 1 as
many bits as the argument lies below 1.  Terms come from integer multiplies,
shifts and floor divisions; the floors cost at most 2 ulps (2^-w) a term,
and the first unsummed term is within 2 ulps of 0, so the tail bound (that
term for alternating series, q/(1-q) times it otherwise) adds a few more.
The reduced argument's own radius -- the cached pi or log(2) radius times
the reduction multiple, plus the floor to w bits -- is folded in once
through the function's Lipschitz bound on the reduced range.  exp sums at
x 2^-r, r about sqrt(w)/2, with r more guard bits, squares r times on ints
and folds that radius r as e^x (e^r - 1).  Results are rounded to the
target precision once, and the input radius is added last.

Internal evaluation parameters are capped so that the work stays polynomial
in the precision regardless of the input: beyond the cutoffs, sin/cos return
[0 +/- 1] and exp collapses to a tiny one-sided enclosure (negative side) or
the whole line (positive side).

The constants pi and log(2) are evaluated by binary splitting of fast
series (Machin's formula, atanh(1/3)) and cached per power-of-two working
precision, so results are identical whether or not the cache is warm.
"""

from __future__ import annotations

import math
import threading
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


def _atan_inv_int(m: int, wp: int) -> Ball:
    """Enclosure of atan(1/m) for an integer m >= 2."""
    n = (wp + 10) // int(2 * math.log2(m)) + 2
    p, q = _binsplit(0, n, m * m, True)
    mid, inexact = bf.div(BigFloat.from_int(p), BigFloat.from_int(q * m), wp, _NE)
    rad = mag.pow2(mid.exp - wp) if inexact else mag.ZERO
    # alternating series: tail <= 1/((2n+1) m^(2n+1))
    tail = mag.div_lower_denominator(
        mag.ONE, BigFloat.from_int((2 * n + 1) * m ** (2 * n + 1)))
    return Ball(mid, mag.add(rad, tail))


def _compute_pi(wp: int) -> Ball:
    # pi = 16 atan(1/5) - 4 atan(1/239)
    a = ball.scale_2exp(_atan_inv_int(5, wp + 8), 4)
    b = ball.scale_2exp(_atan_inv_int(239, wp + 8), 2)
    return ball.sub(a, b, wp + 8)


def _compute_log2(wp: int) -> Ball:
    # log 2 = 2 atanh(1/3) = (2/3) sum_{k>=0} 1/((2k+1) 9^k)
    n = (wp + 10) // 6 + 2
    p, q = _binsplit(0, n, 9, False)
    mid, inexact = bf.div(BigFloat.from_int(2 * p), BigFloat.from_int(3 * q), wp + 8, _NE)
    rad = mag.pow2(mid.exp - wp - 8) if inexact else mag.ZERO
    # tail <= (2/3)(9/8) / ((2n+1) 9^n) <= 1/((2n+1) 9^n)
    tail = mag.div_lower_denominator(mag.ONE, BigFloat.from_int((2 * n + 1) * 9 ** n))
    return Ball(mid, mag.add(rad, tail))


_pi_cache: dict[int, Ball] = {}
_log2_cache: dict[int, Ball] = {}
_cache_lock = threading.Lock()


def _bucket(wp: int) -> int:
    b = 64
    while b < wp:
        b <<= 1
    return b


def _pi_ball(wp: int) -> Ball:
    """pi at (at least) wp bits; deterministic in the bucketed precision."""
    key = _bucket(wp + 16)
    with _cache_lock:
        cached = _pi_cache.get(key)
    if cached is None:
        cached = _compute_pi(key)
        with _cache_lock:
            _pi_cache.setdefault(key, cached)
    return cached


def _log2_ball(wp: int) -> Ball:
    key = _bucket(wp + 16)
    with _cache_lock:
        cached = _log2_cache.get(key)
    if cached is None:
        cached = _compute_log2(key)
        with _cache_lock:
            _log2_cache.setdefault(key, cached)
    return cached


def const_pi(prec: int) -> Ball:
    """Enclosure of pi with radius well below 2**(4-prec)."""
    if prec < 2:
        raise ValueError("precision must be >= 2")
    return ball.round_to(_pi_ball(prec), prec)


def const_log2(prec: int) -> Ball:
    if prec < 2:
        raise ValueError("precision must be >= 2")
    return ball.round_to(_log2_ball(prec), prec)


# -- exponent clamping ---------------------------------------------------------

def _exceeds(e: int, bound_bits: int) -> bool:
    """abs(e) > 2**bound_bits, without materializing the bound."""
    a = abs(e)
    bl = a.bit_length()
    if bl <= bound_bits:
        return False
    if bl >= bound_bits + 2:
        return True
    return a != (1 << bound_bits)


def _clamp(b: Ball, prec: int) -> Ball:
    """Flush transcendental results with outlandish exponents into the bounds."""
    m = b.mid
    if not m.is_regular():
        return b
    bound = max(65536, 4 * prec)
    if not _exceeds(m.exp, bound):
        return b
    if m.exp > 0:
        return ball.whole_line()
    return Ball(bf.ZERO, mag.add(b.rad, mag.pow2(m.exp + 1)))


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

# Fraction bits the kernel carries beyond the caller's working precision.
_GUARD = 16


def _series(f: _Series, w: int, x: int) -> tuple[int, int]:
    """(s, err) with |s - f(x 2^-w) 2^w| <= err.

    |x| <= 2^w is required, and |x| <= 2^w / 5 for the power shape.  Each
    computed term is within 2 ulps (2^-w) of its exact value: the floors of
    one step cost at most 1 + (error carried in + 1 ulp of x^2) / divisor.
    """
    neg = x < 0
    a = -x if neg else x
    square, factorial = f.square, f.factorial
    # odd powers of x < 0: the square shapes negate the sum at the end, the
    # step-1 shape alternates its signs
    alt = f.alternating or (neg and not square)
    xm = a * a >> w if square else a
    p = a if f.odd else 1 << w
    j = 1 if f.odd else 0
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
    return (-s if neg and f.odd else s), err


def _fixed_ball(s: int, err: int, w: int, rad: mag.Magnitude) -> Ball:
    """The ball s 2^-w +/- (err 2^-w + rad); rad is where callers fold in the
    reduced argument's radius times the function's Lipschitz bound."""
    return Ball(BigFloat.from_man_exp(s, -w), mag.add(mag.from_man_exp_upper(err, -w), rad))


def _sub_multiple(x: Ball, c: Ball, k: int) -> Ball:
    """x - k c, with the midpoint x.mid - k c.mid exact."""
    m, kc = x.mid, bf.mul_exact(c.mid, BigFloat.from_int(k))
    e = min(m.lsb, kc.lsb)
    d = (m.sign * m.man << (m.lsb - e)) - (kc.sign * kc.man << (kc.lsb - e))
    return Ball(BigFloat.from_man_exp(d, e), mag.add(x.rad, mag.mul_int_upper(c.rad, abs(k))))


def _reduce(m: BigFloat, const: Callable[[], Ball], n0: int) -> tuple[int, Ball]:
    """(k, m - k c) for c = const() and k nearest m / c; for |m| < 2^(n0 - 1),
    k = 0 and const is not called."""
    n = m.exp
    if n < n0:
        return 0, Ball(m)
    c = const()
    q, _ = bf.div(m, c.mid, max(32, n + 4), _NE)
    k = bf.to_int_nearest(q)
    return k, _sub_multiple(Ball(m), c, k)


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


def _exp_point(m: BigFloat, prec: int) -> Ball:
    """Tight enclosure of e^m for a regular midpoint m."""
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
    # |e^(t+d) - e^t| <= e^t (e^|d| - 1)
    prop = mag.mul(mag.from_man_exp_upper(s + err, -w), _expm1_upper(rad))
    return ball.round_to(ball.scale_2exp(_fixed_ball(s, err, w, prop), k), prec)


def exp(x: Ball, prec: int) -> Ball:
    m = x.mid
    if m.is_nan():
        return ball.indeterminate()
    if m.is_inf():
        return Ball(bf.POS_INF) if m.signum() > 0 else Ball(bf.ZERO)
    cutoff = max(128, 2 * prec)
    if m.is_regular() and m.exp > cutoff:
        hi = ball.upper_bound(x, 32)
        if hi.is_regular() and hi.signum() < 0 and hi.exp > cutoff:
            t = 1 << cutoff
            return Ball(BigFloat.from_man_exp(1, -t - 1), mag.pow2(-t - 1))
        return ball.whole_line()
    if m.is_zero():
        point = Ball(bf.ONE)
    else:
        point = _exp_point(m, prec)
    if x.rad.is_zero():
        return point
    prop = mag.mul(ball.upper_mag(point), _expm1_upper(x.rad))
    return _clamp(Ball(point.mid, mag.add(point.rad, prop)), prec)


# -- sin / cos ------------------------------------------------------------------

def _sin_cos_point(m: BigFloat, prec: int) -> tuple[Ball, Ball]:
    n = m.exp
    wp = prec + (n if n > 0 else 0) + 16
    k, t = _reduce(m, lambda: ball.scale_2exp(_pi_ball(wp), -1), 1)
    w = prec + 16 + _GUARD  # wp less the n bits that only k needs
    ws = w - min(t.mid.exp, 0)  # sin t is about t: keep wp bits relative to t
    xs, rs = _fixed(t, ws)
    xc, rc = _fixed(t, w)
    sj = _fixed_ball(*_series(_SIN, ws, xs), ws, rs)  # |sin'|, |cos'| <= 1
    cj = _fixed_ball(*_series(_COS, w, xc), w, rc)
    s, c = ((sj, cj), (cj, -sj), (-sj, -cj), (-cj, sj))[k & 3]
    return ball.round_to(s, prec), ball.round_to(c, prec)


_UNIT = Ball(bf.ZERO, mag.ONE)


def _tighten_unit(b: Ball) -> Ball:
    """sin/cos of a real always lies in [-1, 1]."""
    if mag.compare(ball.upper_mag(b), mag.ONE) > 0:
        return _UNIT
    return b


def sin_cos(x: Ball, prec: int) -> tuple[Ball, Ball]:
    m = x.mid
    if m.is_nan() or m.is_inf():
        return ball.indeterminate(), ball.indeterminate()
    if m.is_regular() and m.exp > max(65536, 4 * prec):
        return _UNIT, _UNIT
    if m.is_zero():
        s, c = Ball(bf.ZERO), Ball(bf.ONE)
    else:
        s, c = _sin_cos_point(m, prec)
    if x.rad.is_zero():
        return s, c
    prop = mag.min_(x.rad, mag.TWO)  # Lipschitz 1, range width 2
    s = _tighten_unit(Ball(s.mid, mag.add(s.rad, prop)))
    c = _tighten_unit(Ball(c.mid, mag.add(c.rad, prop)))
    return s, c


def sin(x: Ball, prec: int) -> Ball:
    return sin_cos(x, prec)[0]


def cos(x: Ball, prec: int) -> Ball:
    return sin_cos(x, prec)[1]


# -- log --------------------------------------------------------------------------

def _log_point(m: BigFloat, prec: int) -> Ball:
    e = m.exp
    wp = prec + abs(e).bit_length() + 16
    bl = m.man.bit_length()
    # a = m * 2^-e in [1/2, 1); renormalize to [3/4, 3/2) for |u| <= 1/5
    if m.man << 2 < 3 << bl:  # a < 3/4: halve the exponent part instead
        e -= 1
    # a = man / 2^z, so u = (a - 1)/(a + 1) = (man - 2^z)/(man + 2^z)
    z = bl + e - m.exp
    num, den = m.man - (1 << z), m.man + (1 << z)
    w = wp + _GUARD + max(0, den.bit_length() - num.bit_length())
    u, rem = divmod(num << w, den)
    # u is floored: 1 ulp, times |atanh'(u)| = 1/(1 - u^2) <= 25/24 for |u| <= 1/5
    urad = mag.div_int_upper(mag.from_man_exp_upper(25, -w), 24) if rem else mag.ZERO
    res = ball.scale_2exp(_fixed_ball(*_series(_ATANH, w, u), w, urad), 1)
    if e:
        res = _sub_multiple(res, _log2_ball(wp), -e)
    return ball.round_to(res, prec)


def log(x: Ball, prec: int) -> Ball:
    m = x.mid
    if m.is_nan():
        return ball.indeterminate()
    if m.is_inf():
        return Ball(bf.POS_INF) if m.signum() > 0 else ball.indeterminate()
    if m.signum() <= 0:
        return ball.indeterminate()
    if not x.rad.is_zero():
        if x.rad.is_inf():
            return ball.indeterminate()
        if ball._sign_sum([m, -mag.to_bigfloat(x.rad)]) <= 0:
            return ball.indeterminate()  # ball touches (-inf, 0]
    point = _log_point(m, prec)
    if x.rad.is_zero():
        return point
    lo, _ = bf.add(m, -mag.to_bigfloat(x.rad), 32, Rounding.DOWN)
    prop = mag.div_lower_denominator(x.rad, lo)  # sup 1/t over the ball
    return Ball(point.mid, mag.add(point.rad, prop))


# -- atan -------------------------------------------------------------------------

def _atan_halve(z: int, w: int, rad: mag.Magnitude) -> tuple[int, int, mag.Magnitude]:
    """(y, h, r): atan(z 2^-w + d) = 2^h atan(y 2^-w + e) with |e| <= r for
    |d| <= rad, and y <= 2^w / 8; 0 <= z <= 2^w and rad <= 4 ulps."""
    h = 0
    while (z - 1) >> (w - 3) > 0:  # z > 2^w / 8, without building 2^w for tiny z
        # z / (1 + sqrt(1 + z^2)) halves atan z and at least halves an error
        # in z; each step's floors add under 2 ulps
        one = 1 << w
        z = (z << w) // (one + math.isqrt((one << w) + z * z))
        h += 1
    return z, h, (mag.pow2(2 - w) if h else rad)


def _atan_point(m: BigFloat, prec: int) -> Ball:
    wp = prec + 24
    sign = m.sign
    a = abs(m)
    if a == bf.ONE:
        res = ball.scale_2exp(_pi_ball(wp), -2)
    else:
        flip = bf.compare(a, bf.ONE) > 0
        w = wp + _GUARD
        if flip:  # atan a = pi/2 - atan(1/a)
            z, rem = divmod(1 << (w - a.lsb), a.man)
            rad = mag.pow2(-w) if rem else mag.ZERO
        else:
            w -= a.exp  # atan a is about a: keep wp bits relative to a
            z, rad = _fixed(Ball(a), w)
        z, h, rad = _atan_halve(z, w, rad)
        res = ball.scale_2exp(_fixed_ball(*_series(_ATAN, w, z), w, rad), h)  # |atan'| <= 1
        if flip:
            res = ball.neg(_sub_multiple(res, ball.scale_2exp(_pi_ball(wp), -1), 1))
    if sign < 0:
        res = ball.neg(res)
    return ball.round_to(res, prec)


def atan(x: Ball, prec: int) -> Ball:
    m = x.mid
    if m.is_nan():
        return ball.indeterminate()
    if m.is_inf():
        point = ball.scale_2exp(_pi_ball(prec + 8), -1)
        if m.signum() < 0:
            point = ball.neg(point)
        point = ball.round_to(point, prec)
    elif m.is_zero():
        point = Ball(bf.ZERO)
    elif m.exp > prec + 8:
        # |atan(m) - sign * pi/2| = atan(1/|m|) <= 2^(1 - exp)
        ph = ball.round_to(ball.scale_2exp(_pi_ball(prec + 8), -1), prec)
        if m.sign < 0:
            ph = ball.neg(ph)
        point = Ball(ph.mid, mag.add(ph.rad, mag.pow2(1 - m.exp)))
    else:
        point = _atan_point(m, prec)
    if x.rad.is_zero():
        return point
    prop = mag.min_(x.rad, mag.from_int_upper(4))  # Lipschitz 1, range width pi
    return Ball(point.mid, mag.add(point.rad, prop))


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
