"""Command-line front end.

``midrad eval EXPR --digits N`` evaluates an expression with the
adaptive-precision loop and prints a guaranteed decimal enclosure.
``midrad round EXPR --bits N --mode M`` prints the correctly rounded
dyadic value in exact ``M*2^E`` form.  ``midrad bench`` emits CSV timing
grids, ``midrad bench round`` the roundings per second.  Exit status: 0 on
success, 2 when the precision cap was reached without convergence, 1 on
usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys

from . import ball
from . import bench as benchmod
from . import decimal_io
from . import expreval
from .bigfloat import Rounding

_MODES = {
    "down": Rounding.DOWN,
    "up": Rounding.UP,
    "zero": Rounding.TOWARD_ZERO,
    "away": Rounding.AWAY_FROM_ZERO,
    "nearest": Rounding.NEAREST_EVEN,
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="midrad",
                                description="guaranteed-accuracy expression evaluation")
    sub = p.add_subparsers(dest="command", required=True)
    # the options eval and round share
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-prec", type=int, default=expreval.EvalConfig.max_prec)
    common.add_argument("--var", action="append", default=[], metavar="NAME=VALUE",
                        help="bind a variable (decimal or ball literal); repeatable")

    pe = sub.add_parser("eval", parents=[common], help="evaluate to a guaranteed number of digits")
    pe.add_argument("expr")
    pe.add_argument("--digits", type=int, default=15)

    pr = sub.add_parser("round", parents=[common], help="correctly rounded dyadic value")
    pr.add_argument("expr")
    pr.add_argument("--bits", type=int, default=53)
    pr.add_argument("--mode", choices=sorted(_MODES), default="nearest")

    pb = sub.add_parser("bench", help="emit CSV benchmark grids")
    pb.add_argument("which", choices=["factorial", "falling-factorial", "polymul", "elementary",
                                      "round"])
    pb.add_argument("--n", type=int, action="append", default=[],
                    help="problem size (round: arguments per function); repeatable")
    pb.add_argument("--prec", type=int, action="append", default=[],
                    help="precision in bits; repeatable")
    return p


def _parse_bindings(pairs) -> dict:
    """NAME=VALUE bindings; NAME must parse as a variable, not a constant."""
    bindings = {}
    for item in pairs:
        name, sep, value = item.partition("=")
        if not sep:
            raise decimal_io.ParseError(f"expected NAME=VALUE, got {item!r}", 0)
        name = name.strip()
        try:
            is_var = expreval.parse_expr(name) == expreval.Var(name)
        except decimal_io.ParseError:
            is_var = False
        if not is_var:
            raise decimal_io.ParseError(f"cannot bind {name!r}: not a variable name", 0)
        if name in bindings:
            raise ValueError(f"variable {name!r} bound twice")
        try:
            bindings[name] = decimal_io.from_decimal(value)
        except decimal_io.ParseError as ex:  # its position is inside the value
            raise ValueError(f"--var {item}: {ex}") from None
    return bindings


def _cmd_eval(args) -> int:
    expr = expreval.parse_expr(args.expr)
    bindings = _parse_bindings(args.var)
    cfg = expreval.EvalConfig.for_digits(args.digits, max_prec=args.max_prec)
    res = expreval.eval_adaptive(expr, bindings, cfg)
    print(decimal_io.to_decimal(res.value, args.digits))
    if res.converged or res.value.is_indeterminate():
        return 0  # an indeterminate result is the answer, not a failure
    print(f"unconverged at precision cap {args.max_prec}", file=sys.stderr)
    return 2


def _cmd_round(args) -> int:
    expr = expreval.parse_expr(args.expr)
    bindings = _parse_bindings(args.var)
    cfg = expreval.EvalConfig(max_prec=args.max_prec)
    try:
        value = expreval.eval_correctly_rounded(expr, bindings, args.bits,
                                                _MODES[args.mode], cfg)
    except expreval.UnconvergedError as ex:
        print(str(ex), file=sys.stderr)
        return 2
    print(value.to_text())
    return 0


def _cmd_bench(args) -> int:
    which, ns, out = args.which, args.n, sys.stdout
    precs = args.prec or {"elementary": [53, 333, 1000, 10 ** 4], "round": [53]}.get(which, [64])
    if which == "round":
        ns = ns[:1] or [1000]
    benchmod.check_args(which, ns, precs)  # before the header: an error leaves stdout empty
    out.write("name,param,prec,seconds,metric\n")
    if which == "elementary":
        benchmod.bench_elementary(precs, out)
    elif which == "round":
        benchmod.bench_round(ns[0], precs, out)
    elif which == "factorial":
        benchmod.bench_factorial(ns or [10000], precs, out)
    elif which == "falling-factorial":
        benchmod.bench_falling_factorial(ns or [100], precs, out)
    else:
        benchmod.bench_polymul(ns or [64, 256], precs, out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 0 if ex.code in (0, None) else 1
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "round":
            return _cmd_round(args)
        return _cmd_bench(args)
    except (decimal_io.ParseError, expreval.UnboundVariableError, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
