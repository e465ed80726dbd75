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
