"""Expression parsing and adaptive-precision evaluation.

The parser is a small recursive-descent grammar with standard precedence:
``^`` is right-associative and binds tighter than unary minus, so ``-2^2``
is ``-(2^2)`` and ``2^3^2`` is ``2^(3^2)``.  Nesting and tree height are
capped, so no input can exhaust the stack.  Decimal literals are stored
exactly as scaled integers and re-enclosed at the working precision on
every evaluation, so their representation error shrinks as the adaptive
loop raises the precision (beyond decimal_io's exponent cap, they get its
crude enclosure instead).

``eval_adaptive`` doubles the precision until the result's relative
accuracy reaches the target, returning the last (widest-known) enclosure
flagged unconverged when the cap is reached -- never an exception.
``eval_correctly_rounded`` instead loops until the whole ball provably
rounds to one value at the requested precision and mode; near-exact values
that never certify (the classic rounding dilemma) raise after the cap.
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

_FUNCTIONS = {"exp": 1, "log": 1, "sin": 1, "cos": 1, "atan": 1, "sqrt": 1, "pow": 2}
_CONSTANTS = {"pi"}


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


def free_variables(e) -> set:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Call):
        out = set()
        for a in e.args:
            out |= free_variables(a)
        return out
    if isinstance(e, Bin):
        return free_variables(e.left) | free_variables(e.right)
    if isinstance(e, Neg):
        return free_variables(e.arg)
    return set()


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
            if word not in _FUNCTIONS:
                self.i = start
                self.error(f"unknown function {word!r}")
            self.i += 1  # consume "("
            args = [self.expr()]
            h = self.height
            while self.take(","):
                args.append(self.expr())
                h = max(h, self.height)
            self.expect(")")
            if len(args) != _FUNCTIONS[word]:
                self.i = start
                self.error(f"{word} takes {_FUNCTIONS[word]} argument(s)")
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
    if isinstance(e, Num):
        return _number_to_ball(e.digits, e.exp10, prec + 8)
    if isinstance(e, Const):
        return el.const_pi(prec)
    if isinstance(e, Var):
        try:
            return bindings[e.name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Neg):
        return ball.neg(eval_ball(e.arg, bindings, prec))
    if isinstance(e, Bin):
        l = eval_ball(e.left, bindings, prec)
        r = eval_ball(e.right, bindings, prec)
        if e.op == "+":
            return ball.add(l, r, prec)
        if e.op == "-":
            return ball.sub(l, r, prec)
        if e.op == "*":
            return ball.mul(l, r, prec)
        if e.op == "/":
            return ball.div(l, r, prec)
        return el.power(l, r, prec)  # "^"
    if isinstance(e, Call):
        args = [eval_ball(a, bindings, prec) for a in e.args]
        if e.fn == "exp":
            return el.exp(args[0], prec)
        if e.fn == "log":
            return el.log(args[0], prec)
        if e.fn == "sin":
            return el.sin(args[0], prec)
        if e.fn == "cos":
            return el.cos(args[0], prec)
        if e.fn == "atan":
            return el.atan(args[0], prec)
        if e.fn == "sqrt":
            return ball.sqrt(args[0], prec)
        return el.power(args[0], args[1], prec)  # "pow"
    raise TypeError(f"not an expression node: {e!r}")


def digits_to_bits(digits: int) -> int:
    """Relative-accuracy target in bits for a decimal digit count."""
    return math.ceil(digits * math.log2(10)) + 3


@dataclass
class EvalConfig:
    target_bits: int = 53
    start_prec: int = 64
    max_prec: int = 1 << 24

    def __post_init__(self):
        if self.start_prec < 2 or self.target_bits < 1:
            raise ValueError("bad configuration")
        if self.start_prec > self.max_prec:
            raise ValueError("starting precision above the cap")

    @classmethod
    def for_digits(cls, digits: int, **kw) -> "EvalConfig":
        return cls(target_bits=digits_to_bits(digits), **kw)


@dataclass
class AdaptiveResult:
    value: Ball
    prec: int
    converged: bool


def eval_adaptive(e, bindings: dict, cfg: EvalConfig) -> AdaptiveResult:
    """Double the precision until the target relative accuracy is certified.

    Reaching the cap is a graceful failure: the widest-known enclosure comes
    back flagged unconverged rather than raising.
    """
    prec = cfg.start_prec
    value = None
    while True:
        value = eval_ball(e, bindings, prec)
        if ball.rel_accuracy_bits(value) >= cfg.target_bits:
            return AdaptiveResult(value, prec, True)
        if prec >= cfg.max_prec:
            return AdaptiveResult(value, prec, False)
        prec = min(prec * 2, cfg.max_prec)


def eval_correctly_rounded(e, bindings: dict, prec: int, rnd: Rounding,
                           cfg: Optional[EvalConfig] = None) -> BigFloat:
    """Correctly rounded prec-bit value of the expression under rnd.

    Terminates as soon as the enclosure provably rounds to a single value
    (exact results collapse to zero-radius balls and certify immediately).
    Raises UnconvergedError at the precision cap: the value may be exactly
    on, or arbitrarily close to, a rounding boundary.
    """
    if cfg is None:
        cfg = EvalConfig()
    wp = max(cfg.start_prec, prec + 8)
    while True:
        v = eval_ball(e, bindings, wp)
        if ball.can_round(v, prec, rnd):
            r, _ = bf.round_to(v.mid, prec, rnd)
            return r
        if wp >= cfg.max_prec:
            raise UnconvergedError("possible exact/near-exact case")
        wp = min(wp * 2, cfg.max_prec)
