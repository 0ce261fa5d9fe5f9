"""Spans around greylp's layer functions, recorded from outside the program.

The program binds layer functions by name (``from .lp_solver import
solve_max`` in ``analysis``, ``satisfaction`` and ``cli``), so a wrapper is
installed at every module attribute of ``greylp`` that holds the original
function.  Each call records a span (id, name, start, end, parent, op id);
the benchmark opens one root span per op.  Self time is a span's duration
minus the durations of its child spans, and is summed per function as spans
close; raw spans are kept in memory only while ``keep_spans`` is set.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "cli.run",
    "cli.parse_problem",
    "grey_core.validate_problem",
    "grey_core.uniform_coefficients",
    "grey_core.build_positioned",
    "lp_solver.solve_max",
    "satisfaction.bounds",
    "satisfaction.positioned_value",
    "satisfaction.pleased_degree",
    "satisfaction.lambda_satisfaction",
    "analysis.grid_sweep",
    "analysis.check_monotonicity",
    "analysis.find_satisfactory",
    "analysis.render_table",
)
SOLVE = "lp_solver.solve_max"
OP = "op"


class Tracer:
    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.op_calls: defaultdict[int, Counter[str]] = defaultdict(Counter)
        self.nonoptimal = 0
        self.spans: list[tuple] = []
        self.keep_spans = False
        self._next_id = 0
        self._op_id = None
        self._op_start = 0.0
        # One frame per open span: [span id, summed duration of its children].
        self._stack: list[list] = [[None, 0.0]]
        self._sites: list[tuple[object, str, object]] = []
        self._wrappers = {}
        for key in LAYERS:
            module, name = key.split(".")
            original = getattr(importlib.import_module(f"greylp.{module}"), name)
            self._wrappers[key] = (original, self._wrap(key, original))

    def reset(self):
        """Forget counts and self times, to measure the next pass on its own."""
        self.calls.clear()
        self.self_s.clear()
        self.op_calls.clear()
        self.nonoptimal = 0

    def _wrap(self, key, fn):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0]
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = key != SOLVE or result.status == "optimal"
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stack[-1][1] += duration
                self.self_s[key] += duration - frame[1]
                self.calls[key] += 1
                self.op_calls[self._op_id][key] += 1
                if key == SOLVE and not ok:
                    self.nonoptimal += 1
                if self.keep_spans:
                    self.spans.append((span_id, key, start, end, parent, self._op_id))

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every ``greylp`` module attribute bound to a layer function."""
        by_id = {id(orig): (key, orig) for key, (orig, _) in self._wrappers.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "greylp" and not mod_name.startswith("greylp."):
                continue
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[1] is value:
                    setattr(module, attr, self._wrappers[hit[0]][1])
                    self._sites.append((module, attr, value))
        bound = {by_id[id(orig)][0] for _, _, orig in self._sites}
        missing = set(LAYERS) - bound
        if missing:
            raise RuntimeError(f"no binding site found for {sorted(missing)}")

    def uninstall(self):
        for module, attr, original in self._sites:
            setattr(module, attr, original)
        self._sites.clear()

    def begin_op(self, op_id: int):
        self._op_id = op_id
        self._op_start = time.perf_counter()
        self._stack.append([self._next_id, 0.0])
        self._next_id += 1

    def end_op(self):
        end = time.perf_counter()
        span_id, _ = self._stack.pop()
        if self.keep_spans:
            self.spans.append((span_id, OP, self._op_start, end, None, self._op_id))
        self._op_id = None


def orphans(spans) -> int:
    """Spans that do not nest: a layer span without a parent, with a parent
    in another op, or outside its parent's interval; or an op span with a
    parent."""
    by_id = {s[0]: s for s in spans}
    bad = 0
    for span_id, key, start, end, parent, op in spans:
        if key == OP:
            bad += parent is not None
            continue
        p = by_id.get(parent)
        if p is None or p[5] != op or not (p[2] <= start <= end <= p[3]):
            bad += 1
    return bad
