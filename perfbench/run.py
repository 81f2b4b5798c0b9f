"""The starexpr benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: roundtrip-corpus, equiv-deep,
minimize-wide (see README.md).  The inputs are made from the seed by
perfbench/inputs.py and handed to fresh worker processes with a fixed
PYTHONHASHSEED; the library is imported from ./src.

--trace 0 measures the end-to-end metrics: several passes over the cases,
each in a fresh worker with an equal share of the seconds, plus workers
that only set up (see PLAN).  --trace 1 runs one round of cases twice, untraced and
traced, and reports per-layer self times and counts plus the tracing
overhead (traced minus untraced wall time).  Any wrong verdict fails the run with exit code 1.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from worker import OUTPUT_TREE_LIMIT, reference_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

# A measured run makes several passes over the same case sequence, each in a
# fresh worker with an equal share of the seconds, running whole rounds of
# cases: as many as come nearest its share, and at least min_rounds.  A case's latency is the median of its executions, which filters
# the seconds-long slow phases of a shared host.  Set-up time is the median
# over SETUP_ONLY further workers that set up and exit, run in equal groups
# before the passes so that they span the run.
#
# Per workload: passes per run, whole rounds per pass at least, the fixed
# tail percentile, whether latency_tail_ms is the mean of the cases beyond
# that percentile rather than the percentile itself, and the percentile
# above which cases are left out of throughput_cps.
#
# The tail is p95 on roundtrip-corpus, with 105 cases beyond it: its p99,
# set by about 21 cases, moved by over a quarter from seed to seed.  On the
# other two it is the mean of the 5 of 24 cases beyond p80.  p80 itself
# lies between two cases whose times differ by a fifth; over eight seeds
# its quartile spread was 0.18 of its median, against at most 0.08 for the
# mean.  roundtrip-corpus trims its slowest 1 % from throughput: a few
# seeded expressions print megabytes, and their share of the time swings
# from seed to seed.  The printed untrimmed figure still shows them.
PLAN = {
    "roundtrip-corpus": {"passes": 3, "min_rounds": 1, "tail": 95, "tail_mean": False,
                         "trim": 99},
    "equiv-deep": {"passes": 2, "min_rounds": 2, "tail": 80, "tail_mean": True, "trim": None},
    "minimize-wide": {"passes": 2, "min_rounds": 2, "tail": 80, "tail_mean": True,
                      "trim": None},
}
SETUP_ONLY = 12
HASH_SEED = "0"

# Case times of a measured pass are scaled by REFERENCE_S over the time of
# the worker's reference loop around them (see worker.py and _scaled).  A
# case that took 1 ms while the loop took 25 ms counts as 0.8 ms.  Set-up
# times are scaled the same way, by the loop timed in this process just
# before and just after the worker.  A slow phase of the shared host slows
# the loop about as much as the cases, so the scaled figures move far less
# than the raw ones.  The constant is the loop's typical time on the 2-core
# VM this benchmark was written on; the raw figures are printed too.
REFERENCE_S = 0.020

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_cps": "cases/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "output_ratio": "x",
}

# Peak RSS is per layer, not end to end: on roundtrip-corpus it is set by
# the single largest output of the run, whose size is heavy-tailed across
# seeds.
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.error_rate": "fraction",
    "cli.peak_rss_mb": "MB",
    "syntax.parse.self_s": "s",
    "syntax.print_expr.self_s": "s",
    "syntax.print_expr.chars": "count",
    "syntax.print_expr.unprinted": "count",
    "semantics.reachable.self_s": "s",
    "semantics.reachable.states": "count",
    "semantics.step_cache.hit_ratio": "fraction",
    "semantics.step_cache.entries": "count",
    "semantics.load_system.self_s": "s",
    "semantics.export_system.self_s": "s",
    "bisim.refine.self_s": "s",
    "bisim.refine.states": "count",
    "bisim.refine.blocks": "count",
    "bisim.refine.doubling": "x",
    "bisim.minimize.self_s": "s",
    "bisim.decide_equiv.self_s": "s",
    "layering.search_labelling.self_s": "s",
    "layering.search_labelling.transitions": "count",
    "layering.search_labelling.failed": "count",
    "solve.canonical_solution.self_s": "s",
    "solve.output.dag_nodes": "count",
    "solve.output.tree_nodes": "count",
    "trace.overhead_s": "s",
}


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's cases for this seed, and equiv-deep's depth probe."""
    import inputs

    if workload == "roundtrip-corpus":
        return {"cases": inputs.roundtrip_cases(seed)}
    if workload == "equiv-deep":
        return {"cases": inputs.equiv_cases(seed), "probe": inputs.depth_probe_cases()}

    from starexpr.bisim import brute_bisim
    from starexpr.semantics import load_system

    def base_partition(doc):
        return brute_bisim(load_system(doc))

    cases = []
    for item in inputs.minimize_docs(seed, base_partition):
        text = json.dumps(item.pop("doc"), indent=2, ensure_ascii=False)
        cases.append(dict(item, text=text))
    return {"cases": cases}


def run_worker(workload, inputs_path, *, budget=0.0, min_rounds=1, count=0,
               trace=False, probe=False, spans_out=""):
    """Start one worker; return (set-up seconds, result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--inputs", str(inputs_path), "--budget", repr(budget),
           "--min-rounds", str(min_rounds), "--count", str(count)]
    if trace:
        cmd.append("--trace")
    if probe:
        cmd.append("--probe")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=str(ROOT),
                          text=True) as proc:
        first = proc.stdout.readline()
        setup = perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode}): {first}{rest[-2000:]}")
    return setup, json.loads(rest.strip().splitlines()[-1])


def setup_sample(workload, inputs_path):
    """Start a worker that only sets up; return its set-up time, raw and
    scaled by the reference loop timed around it."""
    t0 = perf_counter()
    reference_loop()
    before = perf_counter() - t0
    setup = run_worker(workload, inputs_path)[0]
    t0 = perf_counter()
    reference_loop()
    after = perf_counter() - t0
    return setup, setup * REFERENCE_S / ((before + after) / 2)


def _quantile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _scaled(result):
    """The pass's case times, each scaled by REFERENCE_S over the mean of the
    reference-loop times taken just before and just after it."""
    marks = [mark for mark, _ in result["calibration"]]
    loops = [loop for _, loop in result["calibration"]]
    scaled = []
    for j, t in enumerate(result["latencies"]):
        i = bisect.bisect_right(marks, j) - 1
        after = loops[i + 1] if i + 1 < len(loops) else loops[i]
        scaled.append(t * REFERENCE_S / ((loops[i] + after) / 2))
    return scaled


def _error_count(results):
    return sum(sum(r["errors"].values()) for r in results)


def _probe_counts(results):
    attempted = sum(r["probe"]["attempted"] for r in results)
    errors = sum(sum(r["probe"]["errors"].values()) for r in results)
    return attempted, errors


def _output_ratio(result, n):
    """Geometric mean over completed cases of printed bytes / input bytes."""
    logs = [math.log(o / i) for o, i in zip(result["out_bytes"][:n], result["in_bytes"][:n])
            if o and i]
    return math.exp(statistics.fmean(logs))


def measure(workload, inputs_path, n_cases, seconds, report):
    plan = PLAN[workload]
    raw_setups, setups, passes = [], [], []
    for k in range(plan["passes"]):
        for _ in range(SETUP_ONLY // plan["passes"]):
            raw_setup, setup = setup_sample(workload, inputs_path)
            raw_setups.append(raw_setup)
            setups.append(setup)
        passes.append(run_worker(
            workload, inputs_path, budget=seconds / plan["passes"],
            min_rounds=plan["min_rounds"], probe=(k == 0 and workload == "equiv-deep"))[1])
    # A case's latency is the median of its scaled executions in all passes
    # and rounds.
    scales = [REFERENCE_S / statistics.median(loop for _, loop in r["calibration"])
              for r in passes]
    scaled = [_scaled(r) for r in passes]
    lat = [statistics.median(t for ts in scaled for t in ts[c::n_cases])
           for c in range(n_cases)]
    raw = [statistics.median(t for r in passes for t in r["latencies"][c::n_cases])
           for c in range(n_cases)]
    runs = sum(len(r["latencies"]) for r in passes)
    pct = plan["tail"]
    cut = _quantile(lat, pct)
    beyond = [t for t in lat if t > cut]
    tail = statistics.fmean(beyond) if plan["tail_mean"] else cut
    kept = lat
    if plan["trim"]:
        trim = _quantile(lat, plan["trim"])
        kept = [t for t in lat if t <= trim]
    first = passes[0]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_cps": len(kept) / sum(kept),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_tail_ms": 1000 * tail,
        "output_ratio": _output_ratio(first, n_cases),
    }
    errors = _error_count(passes)
    p_att, p_err = _probe_counts(passes)
    report(f"{n_cases} cases, each the median of {runs // n_cases} executions in "
           f"{plan['passes']} passes; tail = {'mean beyond ' if plan['tail_mean'] else ''}"
           f"p{pct}, with {len(beyond)} cases beyond it")
    report(f"set-up samples (s): {', '.join(f'{s:.4f}' for s in setups)}; unscaled "
           f"median {statistics.median(raw_setups):.6g} s")
    report(f"host scale per pass: {', '.join(f'{k:.3f}' for k in scales)}; unscaled "
           f"p50 {1000 * statistics.median(raw):.6g} ms, p{pct} {1000 * _quantile(raw, pct):.6g} ms")
    report(f"untrimmed throughput {n_cases / sum(lat):.6g} cases/s; total output ratio "
           f"{sum(first['out_bytes'][:n_cases]) / sum(first['in_bytes'][:n_cases]):.6g} x")
    report(f"peak_rss_mb {statistics.median(r['rss_mb'] for r in passes):.6g} MB "
           f"(median over the pass workers)")
    report(f"unprinted {sum(r['unprinted'] for r in passes)} of {runs} timed executions "
           f"(output tree over {OUTPUT_TREE_LIMIT} nodes: verified, not printed)")
    report(f"error_rate {(errors + p_err) / (runs + p_att):.6f} fraction "
           f"({errors} of {runs} timed executions, {p_err} of {p_att} depth-probe cases)")
    return metrics, passes, runs


def traced(workload, inputs_path, count, report):
    probe = workload == "equiv-deep"
    plain = run_worker(workload, inputs_path, count=count, probe=probe)[1]
    spans_out = str(WORK / f"spans-{workload}.jsonl")
    result = run_worker(workload, inputs_path, count=count, trace=True,
                        spans_out=spans_out)[1]
    self_s, counts = result["self_s"], result["counts"]
    cache = result["step_cache"]
    lookups = cache["hits"] + cache["misses"]
    p_att, p_err = _probe_counts([plain])
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    for name, value in self_s.items():
        if f"{name}.self_s" in metrics:
            metrics[f"{name}.self_s"] = value
    metrics["cli.self_s"] = sum(v for k, v in self_s.items() if k.startswith("cli."))
    for name, value in counts.items():
        if name in metrics:
            metrics[name] = value
    metrics["solve.output.dag_nodes"] = result["output_nodes"]["dag"]
    metrics["solve.output.tree_nodes"] = result["output_nodes"]["tree"]
    metrics["syntax.print_expr.unprinted"] = result["unprinted"]
    metrics["cli.error_rate"] = (_error_count([result]) + p_err) / (count + p_att)
    metrics["cli.peak_rss_mb"] = plain["rss_mb"]
    metrics["semantics.step_cache.hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    metrics["semantics.step_cache.entries"] = cache["max_entries"]
    metrics["bisim.refine.doubling"] = result["refine_doubling"]
    metrics["trace.overhead_s"] = result["pass_wall"] - plain["pass_wall"]
    total = sum(self_s.values())
    report(f"traced {count} cases: untraced pass {plain['pass_wall']:.3f} s, "
           f"traced pass {result['pass_wall']:.3f} s; spans in {spans_out}")
    for name, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
        report(f"  self {name:34s} {value:9.4f} s {100 * value / total:6.2f} %")
    return metrics, [plain, result], count


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(PLAN))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "starexpr" / "__init__.py").is_file():
        print(f"error: the starexpr sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    WORK.mkdir(exist_ok=True)

    def report(line):
        print(f"[{args.workload}] {line}", flush=True)

    import inputs

    t0 = perf_counter()
    data = make_inputs(args.workload, args.seed)
    report(f"inputs seed={args.seed} sha256={inputs.digest(data)} "
           f"cases={len(data['cases'])} built in {perf_counter() - t0:.2f} s")
    inputs_path = WORK / f"inputs-{args.workload}-{args.seed}.json"
    with open(inputs_path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, ensure_ascii=False)

    try:
        if args.trace:
            metrics, results, attempted = traced(
                args.workload, inputs_path, len(data["cases"]), report)
            units = PER_LAYER_UNITS
        else:
            metrics, results, attempted = measure(
                args.workload, inputs_path, len(data["cases"]), args.seconds, report)
            units = END_TO_END_UNITS
    finally:
        inputs_path.unlink()

    wrong = sorted({i for r in results for i in r["wrong"]})
    for name, value in metrics.items():
        report(f"{name} {value:.6g} {units[name]}")
    if wrong:
        report(f"WRONG VERDICT on cases {wrong[:20]} (-1: depth probe)")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": _error_count(results[-1:] if args.trace else results),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
