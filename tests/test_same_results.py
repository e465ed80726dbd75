"""tools/same_results.py, which compares the exact results of two checkouts,
must itself be deterministic: the same digest in a fresh interpreter with
cold constant caches and another hash seed as in this warm one."""

import importlib.util
import math
import os
import random
import subprocess
import sys
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

import midrad

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_results.py"
SRC = Path(midrad.__file__).resolve().parents[1]
# the sections that run in about two seconds; the printing and polynomial
# sections take longer and go through the same digest
SECTIONS = ("_bigfloat", "_magnitude", "_ball", "_elementary", "_complex", "_expreval",
            "_can_round", "_exact_ops", "_mixed_dot", "_rounding")


def _load_tool():
    spec = importlib.util.spec_from_file_location("same_results", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_digest_is_deterministic():
    code = ("import importlib.util, sys; sys.path.insert(0, sys.argv[2]); "
            "spec = importlib.util.spec_from_file_location('t', sys.argv[1]); "
            "t = importlib.util.module_from_spec(spec); spec.loader.exec_module(t); "
            "print(t.digest([getattr(t, n) for n in sys.argv[3:]]))")
    fresh = subprocess.Popen([sys.executable, "-c", code, str(TOOL), str(SRC), *SECTIONS],
                             env={**os.environ, "PYTHONHASHSEED": "1"},
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    tool = _load_tool()
    here = tool.digest([getattr(tool, n) for n in SECTIONS])
    out, err = fresh.communicate(timeout=300)
    assert fresh.returncode == 0, err
    assert out.strip() == here
    # the digest does see the results: another seed gives another one
    assert tool.digest([tool._magnitude], seed=2) != tool.digest([tool._magnitude])


def test_compare_counts_each_class(tmp_path):
    old = ["ball (3*2^0; 1*2^-10)",
           "ball (3*2^0; 1*2^-10)",
           "ball (3*2^0; 1*2^-10)",
           "ball (3*2^0; 1*2^-10)",
           "ball ((1*2^0; 0), (5*2^3; 7*2^-3))",
           "ball (nan; inf)",
           "ball 536870913*2^-89",
           "ball 536870913*2^-89",
           "ball 536870913*2^-89",
           "complex '([1.5 +/- 2.00e-5]; [+/- 3.00e400000247])'",
           "complex '([1.5 +/- 2.00e-5]; [+/- 3.00e400000247])'",
           "decimal '0.1'",
           "expreval True",
           "elementary (3*2^0; 1*2^-10)",
           "elementary (3*2^0; 1*2^-10)",
           "elementary (3*2^0; 1*2^-10)",
           "elementary ((1*2^0; 0), (5*2^3; 7*2^-3))",
           "complex '([1.5 +/- 2.00e-5]; [+/- 3.00e400000247])'",
           "complex '([1.5 +/- 2.00e-5]; [+/- 3.00e400000247])'",
           "sha256 0123"]
    new = ["ball (3*2^0; 1*2^-10)",               # identical
           "ball (3*2^0; 1*2^-11)",               # narrower
           "ball (3*2^0; 3*2^-11)",               # wider
           "ball (5*2^0; 1*2^-10)",               # midpoint changed
           "ball ((1*2^0; 0), (5*2^3; 13*2^-4))",  # narrower: 13/16 < 7/8
           "ball (0; inf)",                       # midpoint changed
           "ball 1*2^-60",                        # bare magnitude, one unit narrower
           "ball 268435457*2^-88",                # bare magnitude, one unit wider
           "ball 4294967297*2^-89",               # 33 bits: no magnitude, changed
           "complex '([1.5 +/- 1.99e-5]; [+/- 1.00e400000003])'",  # narrower
           "complex '([1.5 +/- 2.00e-5]; [+/- 3.01e400000247])'",  # wider
           "decimal '0.2'",                       # changed
           "expreval True",                       # identical
           "elementary (3073*2^-10; 1*2^-10)",    # moved: 3 + 2^-10 is inside the old ball
           "elementary (3075*2^-10; 1*2^-11)",    # 3 + 3 2^-10 is outside: changed
           "elementary (3073*2^-10; 3*2^-11)",    # inside but wider: changed
           "elementary ((1*2^0; 0), (81*2^-1; 7*2^-3))",  # moved, one ball of two
           "complex '([1.50001 +/- 1.99e-5]; [+/- 3.00e400000247])'",  # moved
           "complex '([1.6 +/- 2.00e-5]; [+/- 3.00e400000247])'",  # outside: changed
           "expreval False",                      # only on one side: changed
           "sha256 4567"]
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("\n".join(old) + "\n")
    b.write_text("\n".join(new) + "\n")
    proc = subprocess.run([sys.executable, str(TOOL), "--compare", str(a), str(b)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr  # some results are wider or changed
    rows = {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines()}
    assert rows["section"] == ["identical", "narrower", "wider", "moved", "changed"]
    assert rows["ball"] == ["1", "3", "2", "0", "3"]
    assert rows["complex"] == ["0", "1", "1", "1", "1"]
    assert rows["decimal"] == ["0", "0", "0", "0", "1"]
    assert rows["expreval"] == ["1", "0", "0", "0", "1"]
    assert rows["elementary"] == ["0", "0", "0", "2", "2"]
    assert "sha256" not in rows


def test_compare_exits_1_on_a_wider_or_changed_result(tmp_path):
    tool = _load_tool()
    old = ["ball (3*2^0; 1*2^-10)", "decimal '0.1'", "sha256 0123"]
    for new, code in ((old, 0),
                      (["ball (3*2^0; 1*2^-11)", "decimal '0.1'", "sha256 4567"], 0),
                      (["ball (3*2^0; 3*2^-11)", "decimal '0.1'", "sha256 4567"], 1),
                      (["ball (3*2^0; 1*2^-10)", "decimal '0.2'", "sha256 4567"], 1),
                      (["ball (3073*2^-10; 1*2^-10)", "decimal '0.1'", "sha256 4567"], 0),
                      (["ball (3*2^0; 1*2^-10)", "sha256 4567"], 1)):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("\n".join(old) + "\n")
        b.write_text("\n".join(new) + "\n")
        assert tool.main(["same_results.py", "--compare", str(a), str(b)]) == code, new


def test_bigfloat_section_sums_near_cancellations_and_far_tails():
    # the section's last cases: x + y and x - (-y) with x + y = +-2^k far
    # below x, and vector sums whose tails of both signs lie far below the
    # head, or below a head that cancels to 0
    tool = _load_tool()
    calls = []

    class Spy:
        def __getattr__(self, name):
            fn = getattr(midrad.bigfloat, name)
            return lambda *a: calls.append((name, a)) or fn(*a)

    m = types.SimpleNamespace(bigfloat=Spy(), BigFloat=midrad.BigFloat, Rounding=midrad.Rounding)
    tool._bigfloat(random.Random(0), m, lambda *values: None)

    def top(x):
        return x.exp if x.is_regular() else -math.inf

    cancel, tails = Counter(), Counter()
    for name, args in calls:
        if name in ("add", "sub"):
            x, y = args[0].to_fraction(), args[1].to_fraction()
            exact = x + y if name == "add" else x - y
            if exact and abs(exact) < Fraction(2) ** (top(args[0]) - 100):
                cancel[name] += 1
        elif name == "vector_sum":
            xs = args[0]
            exact = sum((x.to_fraction() for x in xs), Fraction(0))
            head = max(top(x) for x in xs)
            far = [x.signum() for x in xs if top(x) < head - 1000]
            tails[exact == 0 or abs(exact) < Fraction(2) ** (head - 100), 1 in far, -1 in far] += 1
    assert cancel["add"] > 0 and cancel["sub"] > 0, cancel
    assert tails[False, True, True] > 0 and tails[True, True, True] > 0, tails
