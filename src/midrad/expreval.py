"""Expression parsing and adaptive-precision evaluation.

The parser is a small recursive-descent grammar with standard precedence:
``^`` is right-associative and binds tighter than unary minus, so ``-2^2``
is ``-(2^2)`` and ``2^3^2`` is ``2^(3^2)``.  Nesting and tree height are
capped, so no input can exhaust the stack.  Decimal literals are stored
exactly as scaled integers and re-enclosed at the working precision on
every evaluation, so their representation error shrinks as the adaptive
loop raises the precision (beyond decimal_io's exponent cap, they get its
crude enclosure instead).

Both evaluators run one loop, ``_refine`` (Ziv's loop on balls): evaluate,
stop when a test accepts the ball or at the precision cap, else predict the
next precision from the bits the evaluation lost.  Only the stop test
differs.  ``eval_adaptive`` stops at the target relative accuracy and at
the cap returns the last enclosure flagged unconverged, never raising.
``eval_correctly_rounded`` stops when the whole ball provably rounds to one
value; near-exact values that never certify (the rounding dilemma) raise
after the cap.  A provably undefined expression (1/0) ends either at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import ball
from . import bigfloat as bf
from . import elementary as el
from .ball import Ball
from .bigfloat import BigFloat, Rounding
from .decimal_io import ParseError, _number_to_ball, _scan_number

__all__ = [
    "Expr",
    "Num",
    "Const",
    "Var",
    "Call",
    "Bin",
    "Neg",
    "EvalConfig",
    "AdaptiveResult",
    "UnboundVariableError",
    "UnconvergedError",
    "parse_expr",
    "eval_ball",
    "eval_adaptive",
    "eval_correctly_rounded",
    "digits_to_bits",
]

# operator or function -> (arity, module, attribute); eval_ball looks the
# attribute up at each call, so a wrapper swapped in at run time is called.
_OPS = {
    "+": (2, ball, "add"), "-": (2, ball, "sub"), "*": (2, ball, "mul"), "/": (2, ball, "div"),
    "^": (2, el, "power"), "pow": (2, el, "power"), "sqrt": (1, ball, "sqrt"),
    "exp": (1, el, "exp"), "log": (1, el, "log"), "sin": (1, el, "sin"),
    "cos": (1, el, "cos"), "atan": (1, el, "atan"),
}
_CONSTANTS = {"pi"}
_START_PREC = 64  # the first precision of both adaptive loops
_GUARD_BITS = 32  # added to the precision _refine predicts


class UnboundVariableError(ValueError):
    pass


class UnconvergedError(RuntimeError):
    pass


@dataclass(frozen=True)
class Num:
    digits: int   # value is digits * 10^exp10
    exp10: int


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


Expr = object  # union of the node classes above


# -- parser ----------------------------------------------------------------------

# Caps on nesting (five parser frames a level) and on tree height (up to two
# evaluation frames a level), far below Python's stack limit.
_MAX_DEPTH = 100
_MAX_HEIGHT = 300


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.i = 0
        self.depth = 0   # open unary() calls
        self.height = 1  # height of the tree the last parse method returned

    def error(self, msg: str):
        raise ParseError(msg, self.i)

    def skip_ws(self):
        while self.i < len(self.src) and self.src[self.i].isspace():
            self.i += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.i] if self.i < len(self.src) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.i += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            self.error(f"expected {ch!r}")

    def node(self, e, height: int, at: int):
        """Return e, recording its tree height; at is its operator's offset."""
        if height > _MAX_HEIGHT:
            raise ParseError(f"expression tree deeper than {_MAX_HEIGHT} levels", at)
        self.height = height
        return e

    def parse(self):
        e = self.expr()
        self.skip_ws()
        if self.i != len(self.src):
            self.error("unexpected trailing input")
        return e

    def expr(self):
        return self.chain("+-", self.term)

    def term(self):
        return self.chain("*/", self.unary)

    def chain(self, ops: str, operand):
        """Left-associative chain of operand separated by the operators in ops."""
        e = operand()
        while True:
            c = self.peek()
            if not c or c not in ops:
                return e
            at = self.i
            self.i += 1
            h = self.height
            e = self.node(Bin(c, e, operand()), max(h, self.height) + 1, at)

    def unary(self):
        if self.depth >= _MAX_DEPTH:
            self.error(f"expression nested deeper than {_MAX_DEPTH} levels")
        self.depth += 1
        c = self.peek()
        at = self.i
        if c == "-":
            self.i += 1
            e = self.unary()
            e = self.node(Neg(e), self.height + 1, at)
        elif c == "+":
            self.i += 1
            e = self.unary()
        else:
            e = self.power()
        self.depth -= 1
        return e

    def power(self):
        e = self.atom()
        if self.peek() == "^":
            at = self.i
            self.i += 1
            h = self.height
            r = self.unary()  # right-assoc; unary allows 2^-3
            return self.node(Bin("^", e, r), max(h, self.height) + 1, at)
        return e

    def atom(self):
        c = self.peek()
        if c == "(":
            self.i += 1
            e = self.expr()
            self.expect(")")
            return e
        if c.isdigit() or c == ".":
            self.height = 1
            return self.number()
        if c.isalpha() or c == "_":
            return self.name()
        self.error("expected a value")

    def number(self):
        digits, e10, self.i = _scan_number(self.src, self.i)
        return Num(digits, e10)

    def name(self):
        s = self.src
        i = self.i
        n = len(s)
        start = i
        while i < n and (s[i].isalnum() or s[i] == "_"):
            i += 1
        word = s[start:i]
        self.i = i
        if self.peek() == "(":
            if word not in _OPS:
                self.i = start
                self.error(f"unknown function {word!r}")
            self.i += 1  # consume "("
            args = [self.expr()]
            h = self.height
            while self.take(","):
                args.append(self.expr())
                h = max(h, self.height)
            self.expect(")")
            arity = _OPS[word][0]
            if len(args) != arity:
                self.i = start
                self.error(f"{word} takes {arity} argument(s)")
            return self.node(Call(word, tuple(args)), h + 1, start)
        self.height = 1
        if word in _CONSTANTS:
            return Const(word)
        return Var(word)


def parse_expr(src: str):
    """Parse an expression; raises ParseError with the byte offset on failure."""
    return _Parser(src).parse()


# -- evaluation -------------------------------------------------------------------

def eval_ball(e, bindings: dict, prec: int) -> Ball:
    """Evaluate the tree to an enclosure at the given working precision."""
    return _eval(e, bindings, prec)[0]


def _eval(e, bindings: dict, prec: int) -> tuple[Ball, bool]:
    """eval_ball's enclosure, and whether it proves e undefined (NaN at every
    precision): a NaN binding, NaN from exact finite operands (1/0, log(0),
    sqrt(-1), 0^-1), or an undefined operand.  NaN from a ball that merely
    touches a pole or a cut, as in 1/(exp(x) - 1) for a tiny x, proves
    nothing: more precision can lift the ball off it."""
    if isinstance(e, Num):
        return _number_to_ball(e.digits, e.exp10, prec + 8), False
    if isinstance(e, Const):
        return el.const_pi(prec), False
    if isinstance(e, Var):
        if e.name not in bindings:
            raise UnboundVariableError(f"unbound variable {e.name!r}")
        return bindings[e.name], bindings[e.name].is_indeterminate()
    if isinstance(e, Neg):
        v, undefined = _eval(e.arg, bindings, prec)
        return ball.neg(v), undefined
    if isinstance(e, Bin):
        fn, args = e.op, (e.left, e.right)
    elif isinstance(e, Call):
        fn, args = e.fn, e.args
    else:
        raise TypeError(f"not an expression node: {e!r}")
    _, module, name = _OPS[fn]
    parts = [_eval(a, bindings, prec) for a in args]
    v = getattr(module, name)(*[x for x, _ in parts], prec)
    return v, v.is_indeterminate() and (any(u for _, u in parts) or
                                        all(x.is_exact() and x.is_finite() for x, _ in parts))


def digits_to_bits(digits: int) -> int:
    """Relative-accuracy target in bits for a decimal digit count."""
    return math.ceil(digits * math.log2(10)) + 3


@dataclass
class EvalConfig:
    target_bits: int = 53
    max_prec: int = 1 << 24

    def __post_init__(self):
        if self.target_bits < 1:
            raise ValueError("bad configuration")
        if _START_PREC > self.max_prec:
            raise ValueError(f"precision cap below the starting precision {_START_PREC}")

    @classmethod
    def for_digits(cls, digits: int, **kw) -> "EvalConfig":
        return cls(target_bits=digits_to_bits(digits), **kw)


@dataclass
class AdaptiveResult:
    value: Ball
    prec: int
    converged: bool


def _refine(e, bindings: dict, prec: int, target: int, cap: int, done):
    """Evaluate at rising precisions from prec until done(value) or the cap.

    Returns (value, prec, done(value), undefined).  After a failed test, an
    evaluation that reached acc bits with prec // 2 <= acc < target lost
    max(0, prec - acc) bits; the next precision is the target plus that loss
    plus _GUARD_BITS (at least prec + _GUARD_BITS).  Any other acc (a larger
    loss, typical of inputs that limit it, none certified, or past the
    target) doubles prec.  Precisions strictly increase up to the cap, unless
    a value below the cap proves the expression undefined (_eval): that ends
    it, not done, with undefined True.  At the cap no proof is sought.
    """
    while True:
        value = eval_ball(e, bindings, prec)
        if done(value):
            return value, prec, True, False
        undefined = prec < cap and value.is_indeterminate() and _eval(e, bindings, prec)[1]
        if prec >= cap or undefined:
            return value, prec, False, undefined
        acc = ball.rel_accuracy_bits(value)
        if prec // 2 <= acc < target:
            nxt = max(prec, target + max(0, prec - acc)) + _GUARD_BITS
        else:
            nxt = 2 * prec
        prec = min(nxt, cap)


def eval_adaptive(e, bindings: dict, cfg: EvalConfig) -> AdaptiveResult:
    """Raise the precision until the target relative accuracy is certified.

    Reaching the cap is a graceful failure: the widest-known enclosure comes
    back flagged unconverged rather than raising.  A provably undefined
    expression (1/0) comes back the same way, from the first evaluation.
    """
    target = cfg.target_bits
    return AdaptiveResult(*_refine(e, bindings, _START_PREC, target, cfg.max_prec,
                                   lambda v: ball.rel_accuracy_bits(v) >= target)[:3])


def eval_correctly_rounded(e, bindings: dict, prec: int, rnd: Rounding,
                           cfg: Optional[EvalConfig] = None) -> BigFloat:
    """Correctly rounded prec-bit value of the expression under rnd.

    Starts at max(64, prec + 8) bits, or at the precision cap if that is
    lower, also the accuracy that _refine's prediction aims for.  Terminates
    as soon as the enclosure provably rounds to a single value (exact
    results collapse to zero-radius balls and certify immediately), and
    gives NaN as soon as the expression is provably undefined (_eval).
    Raises UnconvergedError at the precision cap: the value may be exactly
    on, or arbitrarily close to, a rounding boundary, or its ball may still
    touch a pole.
    """
    cfg = cfg or EvalConfig()
    start = min(max(_START_PREC, prec + 8), cfg.max_prec)
    v, p, rounds, undefined = _refine(e, bindings, start, start, cfg.max_prec,
                                      lambda v: ball.can_round(v, prec, rnd))
    if rounds or undefined or v.is_indeterminate() and _eval(e, bindings, p)[1]:
        return bf.round_to(v.mid, prec, rnd)[0]  # a NaN midpoint stays NaN
    raise UnconvergedError("indeterminate at the precision cap" if v.is_indeterminate()
                           else "possible exact/near-exact case")
