"""Seeded inputs for the four workloads, as plain Python data.

This module imports nothing outside the standard library, so the set-up
probe can generate its inputs before it starts the clock on ``import midrad``.
The program under test only ever sees what these generators produce.

A workload is a repeating *cycle* of ops.  The mix of op kinds in a cycle is
fixed; the seed only changes the values.  Runs always measure whole cycles,
so the mix, and with it every rate and percentile, is the same in every run.
"""

from __future__ import annotations

import math
import random

DEFAULT_SEED = 1611
HELDOUT_SEED = 2831

WORKLOADS = ("round53", "highprec", "products", "decimal")

# Rounding modes by their integer value in midrad.bigfloat.Rounding:
# DOWN, UP, TOWARD_ZERO, AWAY_FROM_ZERO, NEAREST_EVEN.
MODES = (0, 1, 2, 3, 4)

# highprec: the give-up path runs under this precision cap, as a user would
# pass --max-prec.  Without a cap sin(pi) doubles toward 2^24 bits and exp of
# a 90-bit binding ran for minutes; see the record for the reason.
GIVE_UP_MAX_PREC = 1 << 14


def _rng(workload: str, seed: int, cycle: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{cycle}")


# -- round53 ---------------------------------------------------------------------------

ROUND53_FUNCTIONS = ("exp", "log", "sin", "atan", "sqrt")


def _round53_arg(rng: random.Random, fn: str) -> tuple[int, int]:
    """(man, e): the input man * 2^(e - 53), drawn as in acceptance criterion 9."""
    man = rng.getrandbits(53) | (1 << 52)
    if fn == "exp":
        e = rng.randrange(-60, 8)
    elif fn in ("log", "sqrt"):
        return man, rng.randrange(-60, 60)
    elif fn == "sin":
        e = rng.randrange(-12, 32)
    else:
        e = rng.randrange(-60, 60)
    if rng.random() < 0.5:
        man = -man
    return man, e


def round53_cycle(seed: int, cycle: int) -> list:
    """25 roundings: every function under every rounding mode."""
    rng = _rng("round53", seed, cycle)
    ops = []
    for i in range(25):
        fn = ROUND53_FUNCTIONS[i % 5]
        man, e = _round53_arg(rng, fn)
        ops.append(("round", fn, man, e, MODES[i // 5]))
    return ops


# -- highprec ----------------------------------------------------------------------------

LITERAL_FUNCTIONS = ("exp", "log", "sin", "atan")
# Evaluations per family and digit count in one cycle (177 ops).  The counts
# put op_p50_ms in the middle of the 300-digit ops and op_p90_ms among the
# 1000-digit sin and atan, away from the jump to log or to 3000 digits.
HIGHPREC_REPEATS = {300: 24, 1000: 4, 3000: 1}


def _literal(rng: random.Random, positive: bool) -> str:
    """A 20-significant-digit decimal literal of magnitude in [1, 10).

    One decade of magnitudes keeps the cost of an evaluation nearly the same
    for every seed (argument reduction grows with the magnitude).
    """
    digits = str(rng.randrange(10 ** 19, 10 ** 20))
    text = digits[0] + "." + digits[1:]
    if not positive and rng.random() < 0.5:
        text = "-" + text
    return text


def _family_expr(rng: random.Random, family: str) -> str:
    if family in LITERAL_FUNCTIONS:
        return f"{family}({_literal(rng, family == 'log')})"
    if family == "ramanujan":
        return "exp(pi*sqrt(163))"
    return "sqrt(2)*pi"


HIGHPREC_FAMILIES = LITERAL_FUNCTIONS + ("ramanujan", "sqrt2pi")


def _special_ops(rng: random.Random) -> list:
    return [
        # the paper's precision-doubling example
        ("eval", "doubling", "sin(pi + exp(-10000))", 15, None, None, True),
        # give-up path: the value is 0, so relative accuracy never certifies
        ("eval", "giveup_sinpi", "sin(pi)", 15, GIVE_UP_MAX_PREC, None, False),
        # give-up path: the binding carries about 90 bits, the target 1000
        ("eval", "giveup_exp", "exp(x)", 300, GIVE_UP_MAX_PREC, _literal(rng, True), False),
    ]


def highprec_cycle(seed: int, cycle: int) -> list:
    """("eval", family, expr, digits, max_prec or None, binding or None, expect_converged)."""
    rng = _rng("highprec", seed, cycle)
    ops = []
    for digits, repeats in HIGHPREC_REPEATS.items():
        for _ in range(repeats):
            for family in HIGHPREC_FAMILIES:
                ops.append(("eval", family, _family_expr(rng, family), digits, None, None, True))
    return ops + _special_ops(rng)


# -- products ------------------------------------------------------------------------------

FALLING_FACTORIAL_NS = (250, 500, 1000)
FACTORIAL_N = 10 ** 4
FIGURE_N, FIGURE_PREC = 1000, 333
BLOCK_N = 1000
# Op counts per cycle (75 ops).  The cheap kinds repeat so that op_p50_ms
# falls in the middle of the unit-range products and op_p90_ms in the middle
# of the n = 250 falling factorials, rather than on the gap between two kinds
# of op, and so that the few slow ops do not dominate ops_per_s.
PRODUCTS_COUNTS = (("factorial", 25), ("block_unit", 38), ("falling", 9),
                   ("falling500", 1), ("falling1000", 1), ("block_figure", 1))


def products_cycle(seed: int, cycle: int) -> list:
    rng = _rng("products", seed, cycle)
    ops = []
    for kind, count in PRODUCTS_COUNTS:
        for _ in range(count):
            if kind == "factorial":
                ops.append(("factorial", FACTORIAL_N, 64))
            elif kind == "block_unit":
                f = [rng.getrandbits(53) | 1 for _ in range(BLOCK_N)]
                g = [rng.getrandbits(53) | 1 for _ in range(BLOCK_N)]
                ops.append(("block_unit", tuple(f), tuple(g), 64))
            elif kind == "block_figure":
                ops.append(("block_figure", FIGURE_N, FIGURE_PREC))
            else:
                n = {"falling": 250, "falling500": 500, "falling1000": 1000}[kind]
                ops.append(("falling", n, 64))
    rng.shuffle(ops)
    return ops


# -- decimal ---------------------------------------------------------------------------------

def _log_uniform_int(rng: random.Random, lo: int, hi: int) -> int:
    return min(hi, max(lo, round(math.exp(rng.uniform(math.log(lo), math.log(hi))))))


def _write_op(rng: random.Random) -> tuple:
    """("write", man, exp2, rad_man, rad_exp2, digits): print [man*2^exp2 +/- rad]."""
    bits = _log_uniform_int(rng, 1, 3000)
    man = rng.getrandbits(bits) | (1 << (bits - 1))
    if rng.random() < 0.5:
        man = -man
    top = rng.randrange(-10 ** 4, 10 ** 4 + 1)  # binary exponent of the value
    exp2 = top - bits
    rad_man, rad_exp2 = 0, 0
    if rng.random() < 2 / 3:
        rad_man = rng.getrandbits(30) | 1
        rad_exp2 = top - 30 - rng.randrange(8, bits + 41)  # radius <= 2^-8 |mid|
    return ("write", man, exp2, rad_man, rad_exp2, _log_uniform_int(rng, 1, 1000))


def _digit_string(rng: random.Random, n: int) -> str:
    return str(rng.randrange(1, 10)) + "".join(str(rng.randrange(10)) for _ in range(n - 1))


def _plain_decimal(rng: random.Random, ndigits: int, exponent: int | None) -> str:
    ds = _digit_string(rng, ndigits)
    point = rng.randrange(1, ndigits + 1)
    text = ds[:point] + ("." + ds[point:] if point < ndigits else "")
    if exponent is not None:
        text += f"e{exponent:+d}"
    return ("-" if rng.random() < 0.5 else "") + text


def _radius_text(rng: random.Random, exponent: int) -> str:
    return f"{rng.randrange(1, 10)}.{rng.randrange(100):02d}e{exponent:+d}"


def _read_op(rng: random.Random) -> tuple:
    form = rng.randrange(4)
    if form == 0:  # plain decimal
        text = _plain_decimal(rng, _log_uniform_int(rng, 1, 60), None)
    elif form == 1:  # large decimal exponents
        text = _plain_decimal(rng, _log_uniform_int(rng, 1, 60), rng.randrange(-5000, 5001))
    elif form == 2:  # the printed form [m +/- r]
        nd = _log_uniform_int(rng, 1, 1000)
        e = rng.randrange(-3000, 3001)
        m = _plain_decimal(rng, nd, e)
        # the radius stays below one unit in the last midpoint digit
        text = f"[{m} +/- {_radius_text(rng, e - nd - 1 - rng.randrange(20))}]"
    else:  # midpoint omitted
        text = f"[+/- {_radius_text(rng, rng.randrange(-5000, 5001))}]"
    return ("read", text)


def decimal_cycle(seed: int, cycle: int) -> list:
    """20 prints and 20 parses, alternating."""
    rng = _rng("decimal", seed, cycle)
    ops = []
    for _ in range(20):
        ops.append(_write_op(rng))
        ops.append(_read_op(rng))
    return ops


CYCLES = {
    "round53": round53_cycle,
    "highprec": highprec_cycle,
    "products": products_cycle,
    "decimal": decimal_cycle,
}


def cycle_ops(workload: str, seed: int, cycle: int) -> list:
    return CYCLES[workload](seed, cycle)


def setup_ops(workload: str, seed: int) -> list:
    """One op of each kind, at its smallest size, for the set-up measurement.

    For products the figure-regime product is left out: it takes 4-5 s, and it
    shares its entry point (``mul_block``) with the unit-range product, which
    is included; it has no lazy state of its own to set up.
    """
    ops = cycle_ops(workload, seed, 0)
    seen, out = set(), []
    for op in sorted(ops, key=_size):
        kind = _kind(workload, op)
        if kind not in seen and kind != "block_figure":
            seen.add(kind)
            out.append(op)
    return out


def _kind(workload: str, op: tuple) -> str:
    return op[1] if workload in ("round53", "highprec") else op[0]


def _size(op: tuple) -> int:
    """Digit count for evals, n for products, text length otherwise."""
    if op[0] == "eval":
        return op[3]
    if op[0] in ("falling", "factorial", "block_figure"):
        return op[1]
    return len(repr(op))
