"""Per-layer tracing from outside the library.

Only a traced run uses this.  :class:`Tracer` replaces every public
module-level function of the eight layer modules with a timing wrapper and
puts the originals back on exit.  The layers call each other through module
attributes (``bf.add``, ``mag.addmul``, ``intpoly.mul_kronecker``), so the
wrappers also see the calls made inside the library.

Each call becomes a span: function, start, end, parent span and op id.  The
spans of one op are kept in memory while it runs; after it (outside the
timed region) they are folded into per-function totals and appended to the
span file, which keeps memory bounded by the largest op (the figure-regime
product makes about two million spans).

Self time is a span's duration minus the time its child spans cover.  The
wrapper's own cost per span is measured and subtracted: its total is the
extra time the traced ops took over the same ops run untraced right beside
them, and :func:`calibrate` measures which share of it lies inside the span
it belongs to (the rest lies in the parent).
"""

from __future__ import annotations

import functools
import inspect
import json
import struct
import time
from array import array

import numpy as np

LAYERS = ("bigfloat", "magnitude", "ball", "elementary", "expreval",
          "decimal_io", "ballpoly", "intpoly")


def _operand_bits(args, kwargs) -> int:
    f, g = args[0], args[1]
    return sum(map(int.bit_length, f)) + sum(map(int.bit_length, g))


def _eval_prec(args, kwargs) -> int:
    return args[2]


# Functions whose arguments are recorded: intpoly.mul operand sizes, and the
# working precision of each evaluation step.
PROBES = {"intpoly.mul": _operand_bits, "expreval.eval_ball": _eval_prec}
ADAPTIVE_LOOPS = ("expreval.eval_adaptive", "expreval.eval_correctly_rounded")


def public_functions(module):
    """(name, function) for the functions a module defines and does not hide."""
    return [(name, obj) for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__]


class Recorder:
    """Span storage for the op in progress, as flat typed arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.fid = array("H")
        self.parent = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self.last = array("i")  # one past the last descendant (pre-order index)
        self.stack = [-1]
        self.probe: dict[int, int] = {}
        self.extra: list[tuple[int, int]] = []  # (parent span, ns spent probing)

    def clear(self):
        for a in (self.fid, self.parent, self.t0, self.t1, self.last):
            del a[:]
        self.probe.clear()
        self.extra.clear()

    def wrap(self, fn, key: str):
        fid = len(self.names)
        self.names.append(key)
        clock = time.perf_counter_ns
        stack, t0s, t1s, lasts = self.stack, self.t0, self.t1, self.last
        add_fid, add_parent, add_t0, add_t1, add_last = (
            self.fid.append, self.parent.append, t0s.append, t1s.append, lasts.append)
        probe = PROBES.get(key)
        probes, extra = self.probe, self.extra

        def wrapper(*args, **kwargs):
            idx = len(t0s)
            if probe is not None:
                p0 = clock()
                probes[idx] = probe(args, kwargs)
                extra.append((stack[-1], clock() - p0))
            add_fid(fid)
            add_parent(stack[-1])
            add_t0(0)
            add_t1(0)
            add_last(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                t0s[idx] = t0
                t1s[idx] = t1
                lasts[idx] = len(t0s)

        functools.update_wrapper(wrapper, fn)
        return wrapper


class Tracer:
    """Context manager: wrap the layers' public functions, restore them on exit.

    The wrappers are made once, so a tracer can be entered for each op.
    """

    def __init__(self, modules, recorder: Recorder):
        self.swaps = []
        for layer, module in zip(LAYERS, modules):
            for name, fn in public_functions(module):
                self.swaps.append((module, name, fn, recorder.wrap(fn, f"{layer}.{name}")))

    def __enter__(self):
        for module, name, _, wrapper in self.swaps:
            setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc):
        for module, name, fn, _ in self.swaps:
            setattr(module, name, fn)
        return False


def _noop(*args):
    return None


def calibrate(trials: int = 7, calls: int = 100_000) -> float:
    """Share of the wrapper's cost that falls inside the span it records.

    Measured on a wrapped no-op; the rest of the cost falls outside the
    span, in its parent.
    """
    rec = Recorder()
    wrapped = rec.wrap(_noop, "calibration")
    clock = time.perf_counter_ns
    rng = range(calls)
    shares = []
    for _ in range(trials):
        t = clock()
        for _ in rng:
            pass
        loop = clock() - t
        t = clock()
        for _ in rng:
            _noop(1, 2, 3)
        bare = clock() - t
        rec.clear()
        t = clock()
        for _ in rng:
            wrapped(1, 2, 3)
        traced = clock() - t
        # the call of the function itself is not wrapper cost
        inside = sum(rec.t1) - sum(rec.t0) - (bare - loop)
        shares.append(inside / (traced - bare))
    rec.clear()
    return min(1.0, max(0.0, float(np.median(shares))))


class Aggregate:
    """Per-function totals over the traced ops, folded one op at a time.

    Totals are kept raw, with the number of spans each one covers, so that the
    wrapper's cost per span can be subtracted once it is known: it is
    measured as the extra time the traced ops took over the same ops untraced.
    """

    def __init__(self, recorder: Recorder, spans_path=None):
        self.rec = recorder
        self.calls: dict[str, int] = {}
        self.raw_self: dict[str, float] = {}   # duration minus child durations
        self.raw_incl: dict[str, float] = {}   # duration
        self.children: dict[str, int] = {}
        self.descendants: dict[str, int] = {}
        self.ops = 0
        self.spans = 0
        self.op_ns = 0.0  # traced op time minus the time spent in probes
        self.operand_bits = 0
        self.steps: list[int] = []  # evaluation steps per adaptive/Ziv loop
        self.final_precs: list[int] = []
        self._out = open(spans_path, "wb") if spans_path else None

    def fold(self, op_id: int, op_ns: int):
        """Account for the spans of the op just finished, then drop them."""
        rec = self.rec
        n = len(rec.t0)
        self.ops += 1
        self.spans += n
        self.op_ns += op_ns - sum(ns for _, ns in rec.extra)
        if n:
            self._fold_spans(n)
            if self._out is not None:
                self._out.write(struct.pack("<ii", op_id, n))
                for a in (rec.fid, rec.parent, rec.t0, rec.t1, rec.last):
                    a.tofile(self._out)
        rec.clear()

    def _fold_spans(self, n: int):
        rec = self.rec
        fid = np.frombuffer(rec.fid, dtype=np.uint16)
        parent = np.frombuffer(rec.parent, dtype=np.int32)
        dur = (np.frombuffer(rec.t1, dtype=np.int64)
               - np.frombuffer(rec.t0, dtype=np.int64)).astype(np.float64)
        ndesc = np.frombuffer(rec.last, dtype=np.int32) - np.arange(n) - 1
        has_parent = parent >= 0
        p = parent[has_parent]
        nchild = np.bincount(p, minlength=n)
        self_ = dur - np.bincount(p, weights=dur[has_parent], minlength=n)
        incl = dur.copy()
        for at, ns in rec.extra:  # probe time lies in the parent and its ancestors
            if at >= 0:
                self_[at] -= ns
            while at >= 0:
                incl[at] -= ns
                at = int(parent[at])
        k = len(rec.names)
        sums = [np.bincount(fid, weights=w, minlength=k) for w in (self_, incl, nchild, ndesc)]
        counts = np.bincount(fid, minlength=k)
        for i in np.nonzero(counts)[0]:
            name = rec.names[i]
            for table, value in ((self.calls, int(counts[i])), (self.raw_self, sums[0][i]),
                                 (self.raw_incl, sums[1][i]), (self.children, sums[2][i]),
                                 (self.descendants, sums[3][i])):
                table[name] = table.get(name, 0) + value
        self._fold_probes(parent)

    def _fold_probes(self, parent):
        rec = self.rec
        steps: dict[int, list] = {}
        for idx, value in rec.probe.items():
            name = rec.names[rec.fid[idx]]
            if name == "intpoly.mul":
                self.operand_bits += value
            elif name == "expreval.eval_ball":
                p = int(parent[idx])
                if p >= 0 and rec.names[rec.fid[p]] in ADAPTIVE_LOOPS:
                    steps.setdefault(p, []).append((idx, value))
        for _, seq in sorted(steps.items()):
            self.steps.append(len(seq))
            self.final_precs.append(max(seq)[1])

    def close(self, meta_path=None):
        if self._out is not None:
            self._out.close()
            self._out = None
        if meta_path:
            with open(meta_path, "w") as fh:
                json.dump({"names": self.rec.names,
                           "record": "<op_id:i32><n:i32> then n each of fid:u16, parent:i32, "
                                     "t0_ns:i64, t1_ns:i64, last:i32"}, fh)

    # -- metrics ----------------------------------------------------------------------------

    def metrics(self, untraced_ns: float, inside_share: float) -> dict:
        """Per-layer metrics, given the untraced time of the same ops."""
        ops = max(self.ops, 1)
        per_span = max(0.0, (self.op_ns - untraced_ns) / self.spans) if self.spans else 0.0
        c_in = per_span * inside_share
        c_out = per_span - c_in
        self_ns = {k: v - self.calls[k] * c_in - self.children[k] * c_out
                   for k, v in self.raw_self.items()}
        incl_ns = {k: v - self.calls[k] * c_in - self.descendants[k] * per_span
                   for k, v in self.raw_incl.items()}
        total = self.op_ns - self.spans * per_span

        def layer_sum(table, layer):
            return sum(v for k, v in table.items() if k.startswith(layer + "."))

        def us_per_call(name):
            calls = self.calls.get(name, 0)
            return incl_ns[name] / calls / 1e3 if calls else 0.0

        out = {}
        for layer in LAYERS:
            layer_self = layer_sum(self_ns, layer)
            out[f"{layer}.calls_per_op"] = layer_sum(self.calls, layer) / ops
            out[f"{layer}.self_ms_per_op"] = layer_self / ops / 1e6
            out[f"{layer}.self_share"] = layer_self / total if total > 0 else 0.0
        out["magnitude.addmul.calls_per_op"] = self.calls.get("magnitude.addmul", 0) / ops
        for fn in ("ball.add", "ball.mul", "ball.div", "ball.div_int",
                   "elementary.exp", "elementary.log", "elementary.sin_cos", "elementary.atan",
                   "ballpoly.mul_block", "ballpoly.plan_blocks", "ballpoly.product_tree",
                   "decimal_io.to_decimal", "decimal_io.from_decimal"):
            out[f"{fn}.us_per_call"] = us_per_call(fn)
        const_ns = sum(self_ns.get(f"elementary.{c}", 0.0) for c in ("const_pi", "const_log2"))
        out["elementary.const.self_ms_per_op"] = const_ns / ops / 1e6
        out["expreval.evals_per_op"] = sum(self.steps) / ops
        out["expreval.first_try_frac"] = (self.steps.count(1) / len(self.steps)
                                          if self.steps else 0.0)
        out["expreval.final_prec_bits_p50"] = (float(np.median(self.final_precs))
                                               if self.final_precs else 0.0)
        out["intpoly.mul.calls_per_op"] = self.calls.get("intpoly.mul", 0) / ops
        out["intpoly.operand_kbits_per_op"] = self.operand_bits / ops / 1e3
        out["intpoly.ns_per_operand_bit"] = (incl_ns["intpoly.mul"] / self.operand_bits
                                             if self.operand_bits else 0.0)
        return out
