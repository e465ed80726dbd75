"""Checks for every op, independent of midrad's arithmetic.

Exact values come from ``int`` and ``fractions.Fraction``; transcendental
references come from mpmath.  Results are read through their documented
fields (a BigFloat is ``sign * man * 2^(exp - bitlen(man))``, a Magnitude is
``man * 2^(exp - 30)``) and never through midrad functions.

Each check returns a :class:`Verdict`.  ``inconclusive`` means the oracle
itself could not decide (for example a 300-bit reference too close to a
rounding boundary); it is counted on its own and is not a failure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from specs import FALLING_FACTORIAL_NS

OK, FAIL, INCONCLUSIVE = "ok", "fail", "inconclusive"

_DOWN, _UP, _TOWARD_ZERO, _AWAY, _NEAREST = 0, 1, 2, 3, 4
_BF_REGULAR, _BF_ZERO = 0, 1
_MAG_REGULAR, _MAG_ZERO = 0, 1


@dataclass
class Verdict:
    status: str
    accuracy: float | None = None  # relative accuracy in bits, None if exact or n/a
    detail: str = ""


def fail(detail: str) -> Verdict:
    return Verdict(FAIL, None, detail)


# -- exact values of results ------------------------------------------------------------

def bigfloat_fraction(x) -> Fraction:
    if x.kind == _BF_ZERO:
        return Fraction(0)
    if x.kind != _BF_REGULAR:
        raise ValueError("not a finite number")
    lsb = x.exp - x.man.bit_length()
    if lsb >= 0:
        return Fraction(x.sign * (x.man << lsb))
    return Fraction(x.sign * x.man, 1 << -lsb)


def magnitude_fraction(m) -> Fraction:
    if m.kind == _MAG_ZERO:
        return Fraction(0)
    if m.kind != _MAG_REGULAR:
        raise ValueError("infinite radius")
    e = m.exp - 30
    return Fraction(m.man << e) if e >= 0 else Fraction(m.man, 1 << -e)


def ball_parts(b) -> tuple[Fraction, Fraction]:
    """(mid, rad) of a ball, exactly; raises ValueError if not finite."""
    return bigfloat_fraction(b.mid), magnitude_fraction(b.rad)


def log2_fraction(q: Fraction) -> float:
    """log2 of a positive rational, accurate for any size."""
    n, d = q.numerator, q.denominator
    k = n.bit_length() - d.bit_length()
    r = n / (d << k) if k >= 0 else (n << -k) / d
    return k + math.log2(r)


def rel_accuracy_bits(mid: Fraction, rad: Fraction) -> float | None:
    """-log2(rad/|mid|); None for an exact value or a zero midpoint."""
    if rad == 0 or mid == 0:
        return None
    return log2_fraction(abs(mid)) - log2_fraction(rad)


def mpf_fraction(x) -> Fraction:
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    man = -int(man) if sign else int(man)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _within(mid: Fraction, rad: Fraction, lo: Fraction, hi: Fraction) -> bool:
    """[lo, hi] lies inside [mid - rad, mid + rad]."""
    return mid - rad <= lo and hi <= mid + rad


def _reference_verdict(mid, rad, ref: Fraction, tol: Fraction) -> str:
    """Containment of a reference known only to +/- tol."""
    if _within(mid, rad, ref - tol, ref + tol):
        return OK
    if ref + tol < mid - rad or ref - tol > mid + rad:
        return FAIL
    return INCONCLUSIVE


# -- correct rounding ---------------------------------------------------------------------

def round_fraction(x: Fraction, prec: int, mode: int) -> Fraction:
    """x rounded to prec significant bits in the given mode, exactly."""
    if x == 0:
        return x
    s = 1 if x > 0 else -1
    num, den = abs(x.numerator), x.denominator
    e = num.bit_length() - den.bit_length()  # 2^e <= |x| < 2^(e+1) after the fix-up
    if (num << max(0, -e)) < (den << max(0, e)):
        e -= 1
    sh = prec - 1 - e
    if sh >= 0:
        num <<= sh
    else:
        den <<= -sh
    fl, rem = divmod(num, den)
    if rem == 0 or mode == _TOWARD_ZERO:
        cand = fl
    elif mode == _AWAY:
        cand = fl + 1
    elif mode == _DOWN:
        cand = fl if s > 0 else fl + 1
    elif mode == _UP:
        cand = fl + 1 if s > 0 else fl
    else:
        twice = 2 * rem
        cand = fl + 1 if twice > den or (twice == den and fl & 1) else fl
    return s * Fraction(cand) * (Fraction(2) ** -sh)


_MPMATH_FUNCTIONS = {"exp": mpmath.exp, "log": mpmath.log, "sin": mpmath.sin,
                     "atan": mpmath.atan, "sqrt": mpmath.sqrt}


def check_round53(op: tuple, got) -> Verdict:
    """A 300-bit mpmath reference, rounded by the Fraction rounding oracle."""
    _, fn, man, e, mode = op
    with mpmath.workprec(300):
        ref = mpf_fraction(_MPMATH_FUNCTIONS[fn](mpmath.ldexp(mpmath.mpf(man), e - 53)))
    tol = abs(ref) / (1 << 280)
    want = round_fraction(ref - tol, 53, mode)
    if want != round_fraction(ref + tol, 53, mode):
        return Verdict(INCONCLUSIVE)
    try:
        value = bigfloat_fraction(got)
    except ValueError as exc:
        return fail(f"{fn} mode {mode}: {exc}")
    if value != want:
        return fail(f"{fn}({man}*2^{e - 53}) mode {mode}: got {value}, want {want}")
    err = abs(value - ref)
    return Verdict(OK, None if err == 0 else log2_fraction(abs(ref)) - log2_fraction(err))


# -- decimal text ---------------------------------------------------------------------------

_NUMBER = re.compile(r"([+-]?)(\d+)(?:\.(\d+))?(?:[eE]([+-]?\d+))?")


def parse_number(text: str) -> tuple[Fraction, int]:
    """Exact value of a decimal literal and its count of significant digits."""
    m = _NUMBER.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a decimal number: {text!r}")
    sign, whole, frac, exp = m.groups()
    frac = frac or ""
    digits = int(whole + frac)
    e10 = int(exp or 0) - len(frac)
    value = Fraction(digits * 10 ** e10) if e10 >= 0 else Fraction(digits, 10 ** -e10)
    return (-value if sign == "-" else value), len((whole + frac).strip("0"))


def parse_ball_text(text: str) -> tuple[Fraction, Fraction, int]:
    """(mid, rad, midpoint digits) of ``x``, ``[m +/- r]`` or ``[+/- r]``."""
    t = text.strip()
    if not t.startswith("["):
        mid, nd = parse_number(t)
        return mid, Fraction(0), nd
    if not t.endswith("]"):
        raise ValueError(f"unclosed bracket: {text!r}")
    head, sep, tail = t[1:-1].partition("+/-")
    if not sep:
        raise ValueError(f"no radius: {text!r}")
    rad, _ = parse_number(tail)
    mid, nd = parse_number(head) if head.strip() else (Fraction(0), 0)
    return mid, rad, nd


def check_printed(mid: Fraction, rad: Fraction, text: str, digits: int) -> Verdict:
    """The printed interval contains the ball and shows at most ``digits`` digits."""
    try:
        pmid, prad, nd = parse_ball_text(text)
    except ValueError as exc:
        return fail(str(exc))
    if not _within(pmid, prad, mid - rad, mid + rad):
        return fail(f"printed {text[:80]!r} does not contain the ball")
    if nd > digits:
        return fail(f"printed {nd} digits, asked for {digits}")
    return Verdict(OK, rel_accuracy_bits(pmid, prad))


def check_decimal(op: tuple, inp, out) -> Verdict:
    """write: the text contains the input ball; read: the ball contains the text."""
    if op[0] == "write":
        mid, rad = ball_parts(inp)
        return check_printed(mid, rad, out, op[5])
    tmid, trad, _ = parse_ball_text(op[1])
    try:
        mid, rad = ball_parts(out)
    except ValueError as exc:
        return fail(f"parsed {op[1][:80]!r}: {exc}")
    if not _within(mid, rad, tmid - trad, tmid + trad):
        return fail(f"parsed ball excludes {op[1][:80]!r}")
    return Verdict(OK, rel_accuracy_bits(mid, rad))


# -- high-precision evaluation ----------------------------------------------------------------

def _mp_reference(expr: str, binding: str | None):
    """The value of one of the workload's expressions, at the current mpmath precision."""
    if expr == "sin(pi + exp(-10000))":
        return -mpmath.sin(mpmath.exp(-10000))  # sin(pi + t) = -sin(t), no cancellation
    if expr == "exp(pi*sqrt(163))":
        return mpmath.exp(mpmath.pi * mpmath.sqrt(163))
    if expr == "sqrt(2)*pi":
        return mpmath.sqrt(2) * mpmath.pi
    if expr == "sin(pi)":
        return mpmath.mpf(0)
    fn, arg = expr[:-1].split("(")
    x = mpmath.mpf(binding if arg == "x" else arg)
    return _MPMATH_FUNCTIONS[fn](x)


def check_highprec(op: tuple, result, text: str) -> Verdict:
    """mpmath 30 digits beyond the target, or beyond the result's own accuracy
    when that is higher (otherwise the reference could not resolve the ball);
    checks status, containment and the printed text.  A converged result must
    be accurate to ``digits`` decimal digits.
    """
    _, _, expr, digits, _, binding, expect_converged = op
    target_bits = math.ceil(digits * math.log2(10))
    if result.converged != expect_converged:
        return fail(f"{expr} to {digits} digits: converged={result.converged}")
    try:
        mid, rad = ball_parts(result.value)
    except ValueError as exc:
        return fail(f"{expr}: {exc}")
    acc = rel_accuracy_bits(mid, rad)
    ref_digits = max(digits, math.ceil((acc or 0) * math.log10(2))) + 30
    with mpmath.workdps(ref_digits):
        ref = mpf_fraction(_mp_reference(expr, binding))
    tol = abs(ref) / 10 ** (ref_digits - 10)
    status = _reference_verdict(mid, rad, ref, tol)
    if status == FAIL:
        return fail(f"{expr} to {digits} digits excludes the reference")
    if result.converged and (acc is not None and acc < target_bits):
        return fail(f"{expr}: converged at {acc:.1f} bits, target {target_bits}")
    printed = check_printed(mid, rad, text, digits)
    if printed.status != OK:
        return printed
    return Verdict(status, acc if result.converged else None)


# -- products ----------------------------------------------------------------------------------

def stirling_rows(ns) -> dict:
    """Signed Stirling numbers of the first kind: coefficients of x(x-1)...(x-n+1)."""
    want, rows = set(ns), {}
    row = [1]
    for m in range(max(ns)):
        new = [0] * (len(row) + 1)
        for k, c in enumerate(row):
            new[k + 1] += c
            new[k] -= m * c
        row = new
        if m + 1 in want:
            rows[m + 1] = row
    return rows


def convolve_ints(f, g) -> list:
    """Exact product of two nonnegative integer polynomials by Kronecker packing."""
    bits = max(map(int.bit_length, f)) + max(map(int.bit_length, g)) + len(f).bit_length() + 1
    pack = lambda cs: sum(c << (bits * i) for i, c in enumerate(cs))  # noqa: E731
    prod = pack(f) * pack(g)
    mask = (1 << bits) - 1
    return [(prod >> (bits * i)) & mask for i in range(len(f) + len(g) - 1)]


def exp_series_square(n: int) -> list:
    """Coefficients of (sum_{k<n} x^k/k!)^2 as Fractions."""
    out, fact, binom_row = [], 1, [1]
    for k in range(2 * n - 1):
        if k:
            fact *= k
            binom_row = [1] + [binom_row[i] + binom_row[i + 1] for i in range(k - 1)] + [1]
        lo, hi = max(0, k - n + 1), min(k, n - 1)
        out.append(Fraction(sum(binom_row[lo:hi + 1]), fact))
    return out


def check_poly(coeffs, exact: list) -> Verdict:
    """Every coefficient ball contains its exact value; accuracy is the worst one."""
    if len(coeffs) != len(exact):
        return fail(f"{len(coeffs)} coefficients, want {len(exact)}")
    worst = None
    for k, (c, want) in enumerate(zip(coeffs, exact)):
        try:
            mid, rad = ball_parts(c)
        except ValueError as exc:
            return fail(f"coefficient {k}: {exc}")
        if not _within(mid, rad, want, want):
            return fail(f"coefficient {k} excludes the exact value")
        acc = rel_accuracy_bits(mid, rad)
        if acc is not None and (worst is None or acc < worst):
            worst = acc
    return Verdict(OK, worst)


class ProductsOracle:
    """Exact values for the products workload, computed once per run."""

    def __init__(self):
        self._stirling = {}
        self._figure = {}

    def exact(self, op: tuple):
        kind = op[0]
        if kind == "factorial":
            return Fraction(math.factorial(op[1]))
        if kind == "falling":
            if op[1] not in self._stirling:
                self._stirling.update(stirling_rows(set(FALLING_FACTORIAL_NS) | {op[1]}))
            return [Fraction(c) for c in self._stirling[op[1]]]
        if kind == "block_unit":
            return [Fraction(c, 1 << 106) for c in convolve_ints(op[1], op[2])]
        if op[1] not in self._figure:
            self._figure[op[1]] = exp_series_square(op[1])
        return self._figure[op[1]]

    def check(self, op: tuple, out) -> Verdict:
        want = self.exact(op)
        if op[0] != "factorial":
            return check_poly(out.coeffs, want)
        try:
            mid, rad = ball_parts(out)
        except ValueError as exc:
            return fail(f"10^4!: {exc}")
        if not _within(mid, rad, want, want):
            return fail("10^4! excludes the exact factorial")
        return Verdict(OK, rel_accuracy_bits(mid, rad))
