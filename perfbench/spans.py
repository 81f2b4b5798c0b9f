"""In-memory spans around the library's public layer functions.

The tracer wraps each function at every place it is bound: the defining
module, the package namespace, and every ``from .x import f`` site in the
other modules, so calls made inside the library are traced too.  Spans stay
in memory; self time is a span's duration minus the time its child spans,
and the tracer's own bookkeeping inside them, cover.  Counts are taken at
the same boundaries, outside the timed interval.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs wrapped by `Tracer.install`.  `theory` is too
# fine-grained to wrap without distorting it; its cost shows inside the
# `semantics` and `bisim` self times.
LAYER_FUNCTIONS = (
    ("syntax", "parse"),
    ("syntax", "print_expr"),
    ("semantics", "reachable"),
    ("semantics", "load_system"),
    ("semantics", "export_system"),
    ("bisim", "refine"),
    ("bisim", "minimize"),
    ("bisim", "decide_equiv"),
    ("layering", "search_labelling"),
    ("layering", "syntactic_labelling"),
    ("layering", "check_well_layered"),
    ("solve", "roundtrip"),
    ("solve", "canonical_solution"),
)


# Counters run after the span closes; `result` is None when the call raised
# a documented limit error.
def _count_reachable(tracer, args, result):
    if result is None:
        return
    tracer.counts["semantics.reachable.states"] += len(result[0].states)


def _count_refine(tracer, args, result):
    if result is None:
        return
    n = len(args[0].states)
    tracer.refine_points.append((n, tracer.spans[-1][4]))
    tracer.counts["bisim.refine.states"] += n
    tracer.counts["bisim.refine.blocks"] += len(set(result.values()))


def _count_print(tracer, args, result):
    if result is None:
        return
    tracer.counts["syntax.print_expr.chars"] += len(result)


def _count_search(tracer, args, result):
    tracer.counts["layering.search_labelling.transitions"] += len(
        args[0].state_transitions())


_COUNTERS = {
    "semantics.reachable": _count_reachable,
    "bisim.refine": _count_refine,
    "syntax.print_expr": _count_print,
    "layering.search_labelling": _count_search,
}


class Tracer:
    """Collects spans as (name, case, depth, duration, self) tuples."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.refine_points: list[tuple[int, float]] = []  # (states, self time)
        self.case = -1
        # One child-time accumulator per open span; the bottom one is the
        # case's caller and is never read.
        self._children = [0.0]

    def install(self, package: str = "starexpr") -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        limit_error = getattr(sys.modules.get(package + ".errors"), "LimitExceededError", None)
        for modname, fname in LAYER_FUNCTIONS:
            home = sys.modules.get(f"{package}.{modname}")
            original = getattr(home, fname, None)
            if original is None:
                continue
            name = f"{modname}.{fname}"
            wrapped = self.wrap(name, original, _COUNTERS.get(name), limit_error)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def wrap(self, name, fn, counter=None, limit_error=None):
        children = self._children
        spans = self.spans
        counts = self.counts
        failed_key = f"{name}.failed"

        def traced(*args, **kwargs):
            t0 = perf_counter()
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter()
                inner = children.pop()
                spans.append((name, self.case, len(children), end - start,
                              end - start - inner))
                if limit_error is not None and isinstance(exc, limit_error):
                    counts[failed_key] += 1
                    if counter is not None:
                        counter(self, args, None)
                children[-1] += perf_counter() - t0
                raise
            end = perf_counter()
            inner = children.pop()
            spans.append((name, self.case, len(children), end - start, end - start - inner))
            if counter is not None:
                counter(self, args, result)
            children[-1] += perf_counter() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    def root(self, name, case, fn, *args):
        """Run one case as the root span `name`; its self time is the glue
        the case does outside the library (for example JSON coding)."""
        self.case = case
        self._children[:] = [0.0]
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self.spans.append((name, case, 0, end - start, end - start - self._children[0]))

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, _case, _depth, _dur, self_s in self.spans:
            out[name] += self_s
        return dict(out)

    def refine_doubling(self) -> float:
        """t(2n)/t(n) for `refine`: 2 to the slope of a least-squares fit of
        log self time against log states, over every refine span."""
        points = [(math.log(n), math.log(t)) for n, t in self.refine_points if n > 0 and t > 0]
        if len({x for x, _ in points}) < 2:
            return 1.0
        mx = sum(x for x, _ in points) / len(points)
        my = sum(y for _, y in points) / len(points)
        sxx = sum((x - mx) ** 2 for x, _ in points)
        sxy = sum((x - mx) * (y - my) for x, y in points)
        return 2.0 ** (sxy / sxx)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
