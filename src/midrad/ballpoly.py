"""Dense polynomials with ball coefficients.

Every product is one ``dot``, a sum of products sum f_i g_i whose output
coefficients are each one exact sum, rounded once.  Short or non-finite
input takes one ``ball.dot`` per output coefficient, essentially the best
bound a coefficient can get.  Otherwise ``dot`` keeps that quality at high
degree: it splits midpoints from radii, rescales each product x -> 2^c x so
coefficient magnitudes vary slowly, cuts the scaled coefficients into blocks
of bounded exponent spread, and multiplies block pairs exactly over the
integers (``intpoly.mul``); ``mul_block(f, f)`` hands each block of f to it
as both factors, so that the big block products are squares.  The block
products of each output are folded into one exact sum as they are produced,
which bounds memory (keeping every contribution per output raised the
products benchmark's peak RSS by 10.8 %).  The scalar kernels then round
each output once: ``bigfloat._round_sum`` its midpoint to nearest at the
working precision, and ``ball.rounded`` its radius sum |A| b + a (|B| + b),
a second block product, plus the midpoint's half ulp, up through
``magnitude.sum_upper``.  That second product runs only when some
coefficient has a nonzero radius; for exact inputs each radius is just the
half ulp of an inexact midpoint, or zero.

The scale c is a heuristic: slopes of the coefficient exponents are sampled
over the whole index range and over the trailing half (series tails with
super-geometric decay are flattened much better by their asymptotic slope),
and the steeper sample wins.  Any c is sound; it only affects block count.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import NamedTuple

from . import ball
from . import bigfloat as bf
from . import intpoly
from . import magnitude as mag
from .ball import Ball
from .bigfloat import BigFloat, Rounding

__all__ = [
    "BallPoly",
    "BlockPlan",
    "mul",
    "mul_schoolbook",
    "mul_block",
    "dot",
    "mullow",
    "mul_complex",
    "plan_blocks",
    "evaluate",
    "derivative",
    "product_tree",
    "add",
    "sub",
]

_NE = Rounding.NEAREST_EVEN
_SCHOOLBOOK_DEGREE = 16   # strictly below this degree, dot goes schoolbook
_RADIUS_SPAN = 128        # exponent spread of one radius block
_FOLD_GAP = 64            # widest gap an exact output sum bridges


class BallPoly:
    """Dense polynomial; coefficient k multiplies x^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)

    @classmethod
    def from_ints(cls, values) -> "BallPoly":
        return cls([Ball.from_int(v) for v in values])

    def __len__(self):
        return len(self.coeffs)

    def __getitem__(self, k) -> Ball:
        return self.coeffs[k]

    def __iter__(self):
        return iter(self.coeffs)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def to_text(self) -> str:
        return "\n".join(f"{k}: {c.to_exact_text()}" for k, c in enumerate(self.coeffs))

    @classmethod
    def from_text(cls, s: str) -> "BallPoly":
        entries = {}
        for line in s.splitlines():
            line = line.strip()
            if not line:
                continue
            k, _, rest = line.partition(":")
            entries[int(k)] = Ball.from_exact_text(rest.strip())
        n = max(entries) + 1 if entries else 0
        return cls([entries.get(k, Ball(bf.ZERO)) for k in range(n)])

    def __repr__(self):
        return f"BallPoly(len={len(self.coeffs)})"


def _zip_with(op, f: BallPoly, g: BallPoly, prec: int) -> BallPoly:
    zero = Ball(bf.ZERO)
    return BallPoly([op(a, b, prec) for a, b in zip_longest(f, g, fillvalue=zero)])


def add(f: BallPoly, g: BallPoly, prec: int) -> BallPoly:
    return _zip_with(ball.add, f, g, prec)


def sub(f: BallPoly, g: BallPoly, prec: int) -> BallPoly:
    return _zip_with(ball.sub, f, g, prec)


# -- schoolbook ------------------------------------------------------------------

def _dot_schoolbook(pairs: list, prec: int) -> BallPoly:
    """sum f g over the (f, g) pairs: one ball.dot per output coefficient."""
    out = []
    for k in range(max((len(f) + len(g) - 1 for f, g in pairs if len(f) and len(g)), default=0)):
        xs, ys = [], []
        for f, g in pairs:
            lo, hi = max(0, k - len(g) + 1), min(k, len(f) - 1)
            xs += f[lo:hi + 1]
            ys += g[k - hi:k - lo + 1][::-1]
        out.append(ball.dot(xs, ys, prec))
    return BallPoly(out)


def mul_schoolbook(f: BallPoly, g: BallPoly, prec: int) -> BallPoly:
    """One ball.dot per output coefficient."""
    return _dot_schoolbook([(f, g)], prec)


# -- block plan --------------------------------------------------------------------

class BlockPlan(NamedTuple):
    """One exact product's (man, lsb) terms, their block runs [s, e) and the
    scale 2^(c*i) of the blocks: the record ``_conv_sums`` reads."""
    terms_f: list
    blocks_f: list
    terms_g: list
    blocks_g: list
    scale: int


def _scale_heuristic(f: BallPoly, g: BallPoly) -> int:
    """The scale c: minus the steeper slope, rise over run pooled over f and
    g, rounded with ties toward zero."""
    rise = run = trise = trun = 0
    for p in (f, g):
        idx = [i for i, x in enumerate(p.coeffs) if x.mid.is_regular()]
        if len(idx) < 2:
            continue
        a, b = idx[0], idx[-1]
        eb = p.coeffs[b].mid.exp
        rise += eb - p.coeffs[a].mid.exp
        run += b - a
        m = (a + b + 1) // 2
        mi = next((i for i in idx if m <= i < b), None)
        if mi is not None and b - mi >= 2:
            trise += eb - p.coeffs[mi].mid.exp
            trun += b - mi
    if not run:
        return 0
    if trun and abs(trise) * run > abs(rise) * trun:
        rise, run = trise, trun
    c = (2 * abs(rise) + run - 1) // (2 * run)  # |rise| / run, ties down
    return -c if rise > 0 else c


def _mid_terms(mids: list) -> list:
    return [(m.sign * m.man, m.lsb) if m.is_regular() else (0, 0) for m in mids]


def _mag_terms(xs: list) -> list:
    return [(x.man, x.exp - x.man.bit_length()) if x.is_regular() else (0, 0) for x in xs]


def _partition(terms: list, c: int, cap: int) -> list:
    """Greedy index runs [s, e) over (man, lsb) terms: within a run the scaled
    exponents lsb + bits(man) + c*i of the nonzero terms span at most cap."""
    blocks = []
    start = None
    for i, (m, l) in enumerate(terms):
        if not m:
            continue
        e = l + abs(m).bit_length() + c * i
        if start is None:
            start = last = i
            emin = emax = e
            continue
        lo = e if e < emin else emin
        hi = e if e > emax else emax
        if hi - lo <= cap:
            emin, emax, last = lo, hi, i
        else:
            blocks.append((start, last + 1))
            start = last = i
            emin = emax = e
    if start is not None:
        blocks.append((start, last + 1))
    return blocks


def plan_blocks(f: BallPoly, g: BallPoly, prec: int) -> BlockPlan:
    """Choose the scaling c and greedy block boundaries (height <= 3*prec+512)."""
    cap = 3 * prec + 512
    c = _scale_heuristic(f, g)
    tf = _mid_terms([x.mid for x in f])
    tg = tf if g is f else _mid_terms([x.mid for x in g])
    bf = _partition(tf, c, cap)
    bg = bf if tg is tf else _partition(tg, c, cap)
    return BlockPlan(tf, bf, tg, bg, c)


# -- exact block convolution -------------------------------------------------------------

def _block_ints(terms: list, c: int, start: int, end: int) -> tuple[list, int]:
    """(ints, base): terms start..end-1 scaled by 2^(c*i) are ints[i-start] 2^base."""
    base = min(l + c * i for i, (m, l) in enumerate(terms[start:end], start) if m)
    return [m << (l + c * i - base) if m else 0
            for i, (m, l) in enumerate(terms[start:end], start)], base


def _conv_sums(products: list, n: int) -> list:
    """For each k < n, the exact sum over the BlockPlans in products of
    sum_{i+j=k} f_i g_j, as a list of (man, lsb) int terms; nothing rounds.

    Each block pair is one exact integer product.  Its coefficients are
    folded, at their true exponents, into one (man, lsb) sum per output as
    they are produced; one lying more than _FOLD_GAP bits away from that sum
    is kept as a separate term instead, so that far-apart exponents never
    widen an integer.  The fold bounds memory: no output keeps a list of
    every coefficient it receives (such lists raised the products
    benchmark's peak RSS by 10.8 %).  A plan whose terms_g and blocks_g are
    its terms_f and blocks_f is a square: its blocks are converted once, and
    a block pair on the diagonal passes the same list twice.
    """
    mans = [0] * n
    lsbs = [0] * n
    apart = {}
    for fterms, fblocks, gterms, gblocks, c in products:
        gints = [(s, *_block_ints(gterms, c, s, e)) for s, e in gblocks]
        square = gterms is fterms and gblocks is fblocks
        fints = gints if square else [(s, *_block_ints(fterms, c, s, e)) for s, e in fblocks]
        for sa, fa, ba in fints:
            for sb, fb, bb in gints:
                k = sa + sb
                e = ba + bb - c * k
                for v in intpoly.mul(fa, fb):
                    if v:
                        m = mans[k]
                        l = lsbs[k]
                        if not m:
                            mans[k], lsbs[k] = v, e
                        elif e >= l:
                            if e - l > abs(m).bit_length() + _FOLD_GAP:
                                apart.setdefault(k, []).append((v, e))
                            else:
                                mans[k] = m + (v << (e - l))
                        elif l - e > abs(v).bit_length() + _FOLD_GAP:
                            apart.setdefault(k, []).append((v, e))
                        else:
                            mans[k], lsbs[k] = (m << (l - e)) + v, e
                    k += 1
                    e -= c
    return [[(mans[k], lsbs[k]), *apart.get(k, ())] for k in range(n)]


# -- the polynomial dot product ------------------------------------------------------------

def dot(fs: list, gs: list, prec: int) -> BallPoly:
    """sum f_i g_i over two equally long lists of polynomials, each output
    coefficient one exact sum: its midpoint is rounded to nearest once, its
    radius up once.  A pair of degree below _SCHOOLBOOK_DEGREE, or a
    coefficient that is not finite, makes it one ball.dot per coefficient."""
    pairs = [(f, g) for f, g in zip(fs, gs, strict=True) if len(f) and len(g)]
    if any(min(len(f), len(g)) - 1 < _SCHOOLBOOK_DEGREE
           or not all(x.is_finite() for x in f.coeffs + g.coeffs) for f, g in pairs):
        return _dot_schoolbook(pairs, prec)
    n = max((len(f) + len(g) - 1 for f, g in pairs), default=0)
    mids, rads = [], []
    for f, g in pairs:
        plan = plan_blocks(f, g, prec)
        mids.append(plan)
        c = plan.scale
        # radius polynomial |A| b + a (|B| + b) for f = A +/- a, g = B +/- b;
        # |A| and |B| + b are built only when b or a has a nonzero radius
        a, b = _mag_terms([x.rad for x in f]), _mag_terms([x.rad for x in g])
        factors = []
        if any(m for m, _ in b):
            factors.append((_mag_terms([mag.from_bigfloat_upper(x.mid) for x in f]), b))
        if any(m for m, _ in a):
            factors.append((a, _mag_terms([mag.add(mag.from_bigfloat_upper(x.mid), x.rad)
                                           for x in g])))
        for xt, yt in factors:
            xb, yb = _partition(xt, c, _RADIUS_SPAN), _partition(yt, c, _RADIUS_SPAN)
            if xb and yb:  # a zero radius product adds nothing
                rads.append(BlockPlan(xt, xb, yt, yb, c))
    # midpoints first, so one set of exact sums is alive at a time; ball.rounded
    # appends a half ulp last, which _exact_sum's in-order pass bridges unsorted
    mids = [bf._round_sum(terms, prec, _NE) for terms in _conv_sums(mids, n)]
    # with no radius product (exact inputs) each radius is the half ulp or 0
    rad_sums = _conv_sums(rads, n) if rads else [()] * n
    return BallPoly([ball.rounded(m, (), prec, terms=r) for m, r in zip(mids, rad_sums)])


def mul_block(f: BallPoly, g: BallPoly, prec: int) -> BallPoly:
    return dot([f], [g], prec)


def mul(f: BallPoly, g: BallPoly, prec: int) -> BallPoly:
    return mul_block(f, g, prec)


def mullow(f: BallPoly, g: BallPoly, n: int, prec: int) -> BallPoly:
    """First n coefficients of f*g (truncated power-series product)."""
    if n < 0:
        raise ValueError("negative truncation length")
    if n == 0 or not len(f) or not len(g):
        return BallPoly([])
    full = mul(f, g, prec)
    return BallPoly(full.coeffs[:n])


def mul_complex(fr: BallPoly, fi: BallPoly, gr: BallPoly, gi: BallPoly,
                prec: int) -> tuple[BallPoly, BallPoly]:
    """Complex polynomial product; each part is one dot, rounded once."""
    neg_gi = BallPoly([ball.neg(x) for x in gi])
    return dot([fr, fi], [gr, neg_gi], prec), dot([fr, fi], [gi, gr], prec)


# -- evaluation, derivative, product trees -------------------------------------------------

def evaluate(f: BallPoly, x: Ball, prec: int) -> Ball:
    """Horner evaluation with ball operations."""
    acc = Ball(bf.ZERO)
    for c in reversed(f.coeffs):
        acc = ball.fma(c, acc, x, prec)
    return acc


def derivative(f: BallPoly) -> BallPoly:
    out = []
    for k in range(1, len(f)):
        c = f.coeffs[k]
        mid = bf.mul_exact(c.mid, BigFloat.from_int(k))
        out.append(Ball(mid, mag.mul_int_upper(c.rad, k)))
    return BallPoly(out)


def product_tree(factors, prec: int) -> BallPoly:
    """Expand prod_i (a_i + b_i x) by balanced pairwise multiplication."""
    leaves = [BallPoly([a, b]) for a, b in factors]
    if not leaves:
        raise ValueError("need at least one factor")

    def _tree(lo: int, hi: int) -> BallPoly:
        if hi - lo == 1:
            return leaves[lo]
        mid = (lo + hi) // 2
        return mul(_tree(lo, mid), _tree(mid, hi), prec)

    return _tree(0, len(leaves))
