"""tools/same_results.py, which compares the exact results of two checkouts,
must itself be deterministic: the same digest in a fresh interpreter with
cold constant caches and another hash seed as in this warm one."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import midrad

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_results.py"
SRC = Path(midrad.__file__).resolve().parents[1]
# the sections that run in about two seconds; the printing and polynomial
# sections take longer and go through the same digest
SECTIONS = ("_bigfloat", "_magnitude", "_ball", "_elementary", "_complex", "_expreval")


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
           "expreval False",                      # only on one side: changed
           "sha256 4567"]
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("\n".join(old) + "\n")
    b.write_text("\n".join(new) + "\n")
    proc = subprocess.run([sys.executable, str(TOOL), "--compare", str(a), str(b)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines()}
    assert rows["section"] == ["identical", "narrower", "wider", "changed"]
    assert rows["ball"] == ["1", "3", "2", "3"]
    assert rows["complex"] == ["0", "1", "1", "0"]
    assert rows["decimal"] == ["0", "0", "0", "1"]
    assert rows["expreval"] == ["1", "0", "0", "1"]
    assert "sha256" not in rows
