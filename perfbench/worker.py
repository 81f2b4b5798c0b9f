"""One benchmark worker: set up, print ``ready``, run cases, print a result.

Each case replays what one CLI command does, through the same public
library calls that ``starexpr.cli`` makes, and builds the same standard
output text.  The ``_step`` cache is cleared before every case, because
every CLI command starts in a fresh process with an empty cache.

Run by ``run.py``; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from time import perf_counter


# A roundtrip result whose expression tree is larger than this is verified
# but not printed, and is counted as unprinted.  Over 30 seeds of the
# corpus the largest printed tree had 8e5 nodes, but about one seed in 40
# has a size-16 expression whose output tree has 2e7 to 6e8 nodes, which
# take minutes and gigabytes to print (the output blow-up of ROADMAP item
# 4).  Its DAG is small, so roundtrip and verification stay fast.
OUTPUT_TREE_LIMIT = 5_000_000


# Each replay returns (standard output, or None when the output is too
# large to print, verdict, output (DAG, tree) node counts or None, seconds
# spent in the benchmark's own checks, which the worker takes out of the
# case's latency).


def _roundtrip(lib, cfg, case):
    syntax, _semantics, bisim, solve, count_nodes = lib
    e = syntax.parse(case["expr"], cfg)
    out = solve.roundtrip(cfg, e)
    t0 = perf_counter()
    nodes = count_nodes(out)
    untimed = perf_counter() - t0
    printed = syntax.print_expr(out) if nodes[1] <= OUTPUT_TREE_LIMIT else None
    ok = bisim.decide_equiv(cfg, out, e)
    if printed is None:
        return None, ok, nodes, untimed
    stdout = printed + "\n" + ("verified: bisimilar\n" if ok else "verified: NOT bisimilar\n")
    return stdout, ok, nodes, untimed


def _equiv(lib, cfg, case):
    syntax, _semantics, bisim, _solve, _count_nodes = lib
    e1 = syntax.parse(case["left"], cfg)
    e2 = syntax.parse(case["right"], cfg)
    ok = bisim.decide_equiv(cfg, e1, e2)
    return ("equivalent\n" if ok else "inequivalent\n"), ok, None, 0.0


def _minimize(lib, cfg, case):
    _syntax, semantics, bisim, _solve, _count_nodes = lib
    sys_ = semantics.load_system(json.loads(case["text"]))
    msys, h = bisim.minimize(sys_)
    doc = {"system": semantics.export_system(msys), "h": {x: h[x] for x in sys_.states}}
    stdout = json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    return stdout, [h[x] for x in sys_.states], None, 0.0


def _same_partition(labels, expected) -> bool:
    """Two per-state labellings induce the same partition."""
    if len(labels) != len(expected):
        return False
    forward, backward = {}, {}
    for a, b in zip(labels, expected):
        if forward.setdefault(a, b) != b or backward.setdefault(b, a) != a:
            return False
    return True


# name: replay, input-text fields, root span name, verdict check against the
# case's known answer
_WORKLOADS = {
    "roundtrip-corpus": (_roundtrip, ("expr",), "cli.roundtrip",
                         lambda case, verdict: verdict is True),
    "equiv-deep": (_equiv, ("left", "right"), "cli.equiv",
                   lambda case, verdict: verdict == case["expected"]),
    "minimize-wide": (_minimize, ("text",), "cli.minimize",
                      lambda case, verdict: _same_partition(verdict, case["expected"])),
}


# Every CALIBRATE_EVERY_S seconds of timed case work, a measured pass also
# times reference_loop, which does not touch starexpr, and records it with
# the number of cases run before it.  run.py scales each case time by the
# loop times around it, to take out the host's slow phases.
CALIBRATE_EVERY_S = 0.25


def reference_loop():
    """A fixed pure-Python task: allocation, hashing, dict updates, a sort."""
    items = [(i, "v%d" % i, (i % 7, i % 11, i % 13)) for i in range(10_000)]
    counts = {}
    for item in items:
        counts[item[2]] = counts.get(item[2], 0) + (hash(item) & 1023)
    items.sort(key=lambda item: (item[2], item[1]))
    return len(counts)


def _expr_nodes(root):
    """(DAG nodes, tree nodes) of an expression, counted by object identity
    and without recursion, so huge shared outputs are cheap to measure."""
    def children(e):
        for attr in ("args", "left", "right", "body", "exit"):
            value = getattr(e, attr, None)
            if value is None:
                continue
            if isinstance(value, tuple):
                yield from value
            else:
                yield value

    tree: dict[int, int] = {}
    stack = [(root, False)]
    while stack:
        e, expanded = stack.pop()
        if id(e) in tree:
            continue
        kids = list(children(e))
        if expanded:
            tree[id(e)] = 1 + sum(tree[id(k)] for k in kids)
            continue
        stack.append((e, True))
        stack.extend((k, False) for k in kids if id(k) not in tree)
    return len(tree), tree[id(root)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(_WORKLOADS))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--budget", type=float, default=0.0,
                    help="run whole rounds of cases for about this many timed seconds")
    ap.add_argument("--min-rounds", type=int, default=1,
                    help="with a budget, run at least this many whole rounds")
    ap.add_argument("--count", type=int, default=0,
                    help="run exactly this many cases (0: until the budget is spent)")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out", default="")
    ap.add_argument("--probe", action="store_true",
                    help="after the pass, run the untimed depth probe cases")
    args = ap.parse_args(argv)

    # --- set-up: library, selectors, inputs ------------------------------
    from starexpr import bisim, semantics, solve, syntax
    from starexpr.theory import parse_selector

    with open(args.inputs, "r", encoding="utf-8") as handle:
        inputs = json.load(handle)
    cases = inputs["cases"]
    cfgs = {sel: parse_selector(sel) for sel in sorted({c["theory"] for c in cases})}
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    count_nodes = _expr_nodes
    if tracer is not None:
        count_nodes = tracer.wrap("bench.output_check", _expr_nodes)
    lib = (syntax, semantics, bisim, solve, count_nodes)
    step_cache = getattr(semantics, "_step", None)
    if not hasattr(step_cache, "cache_info"):
        step_cache = None
    replay, fields, root_name, verdict_ok = _WORKLOADS[args.workload]
    print("ready", flush=True)

    # --- measured pass ----------------------------------------------------
    latencies, in_bytes, out_bytes = [], [], []
    errors: dict[str, int] = {}
    wrong: list[int] = []
    hits = misses = max_entries = dag_nodes = tree_nodes = unprinted = 0
    spent = 0.0
    calibration: list[tuple[int, float]] = []
    next_calibration = 0.0
    pass_start = perf_counter()
    while True:
        n_done = len(latencies)
        if args.count and n_done >= args.count:
            break
        # Stop at the end of the round (one run through all cases) nearest
        # the budget, so every case runs equally often.
        rounds = n_done // len(cases)
        if not args.count and n_done % len(cases) == 0 and (
                not args.budget or rounds >= args.min_rounds
                and spent + spent / rounds / 2 >= args.budget):
            break
        if not args.count and spent >= next_calibration:
            t0 = perf_counter()
            reference_loop()
            calibration.append((n_done, perf_counter() - t0))
            next_calibration = spent + CALIBRATE_EVERY_S
        index = n_done % len(cases)
        case = cases[index]
        cfg = cfgs[case["theory"]]
        if step_cache is not None:
            step_cache.cache_clear()
        t0 = perf_counter()
        try:
            if tracer is not None:
                stdout, verdict, nodes, untimed = tracer.root(
                    root_name, index, replay, lib, cfg, case)
            else:
                stdout, verdict, nodes, untimed = replay(lib, cfg, case)
        except Exception as exc:  # a case that errors is counted, not fatal
            dt = perf_counter() - t0
            errors[type(exc).__name__] = errors.get(type(exc).__name__, 0) + 1
            out_bytes.append(0)
            in_bytes.append(0)
        else:
            dt = perf_counter() - t0 - untimed
            if stdout is None:
                unprinted += 1
                out_bytes.append(0)
            else:
                out_bytes.append(len(stdout.encode("utf-8")))
            in_bytes.append(sum(len(case[f].encode("utf-8")) for f in fields))
            if not verdict_ok(case, verdict):
                wrong.append(index)
            if nodes is not None:
                dag_nodes += nodes[0]
                tree_nodes += nodes[1]
        spent += dt
        latencies.append(dt)
        if step_cache is not None:
            info = step_cache.cache_info()
            hits += info.hits
            misses += info.misses
            max_entries = max(max_entries, info.currsize)
    pass_wall = perf_counter() - pass_start

    # --- untimed depth probe ------------------------------------------------
    probe = {"attempted": 0, "errors": {}}
    if args.probe:
        for case in inputs.get("probe", []):
            cfg = parse_selector(case["theory"])
            probe["attempted"] += 1
            try:
                verdict = _equiv(lib, cfg, case)[1]
            except Exception as exc:  # the known depth defect lands here
                name = type(exc).__name__
                probe["errors"][name] = probe["errors"].get(name, 0) + 1
                continue
            if verdict != case["expected"]:
                wrong.append(-1)

    result = {
        "latencies": latencies,
        "calibration": calibration,
        "pass_wall": pass_wall,
        "in_bytes": in_bytes,
        "out_bytes": out_bytes,
        "errors": errors,
        "wrong": wrong,
        "probe": probe,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "step_cache": {"hits": hits, "misses": misses, "max_entries": max_entries},
        "output_nodes": {"dag": dag_nodes, "tree": tree_nodes},
        "unprinted": unprinted,
    }
    if tracer is not None:
        result["self_s"] = tracer.self_times()
        result["counts"] = dict(tracer.counts)
        result["refine_doubling"] = tracer.refine_doubling()
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
