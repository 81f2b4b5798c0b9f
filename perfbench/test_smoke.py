"""Smoke test of the benchmark itself, on one tiny seed.

    python3 -m pytest perfbench/test_smoke.py -q

Not part of the repository's test suite and not run by the benchmark: the
print/parse check below costs about 13 s on the full corpus, so it runs
here on a slice only.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import run  # noqa: E402

SEED = 7


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def _one_pass(monkeypatch, workload):
    monkeypatch.setitem(run.PLAN, workload, dict(run.PLAN[workload], passes=1, min_rounds=1))


def test_inputs_are_seeded():
    assert inputs.digest(inputs.roundtrip_cases(SEED)) == \
        inputs.digest(inputs.roundtrip_cases(SEED))
    assert inputs.digest(inputs.equiv_cases(SEED)) != \
        inputs.digest(inputs.equiv_cases(SEED + 1))


def test_print_parse_round_trip_on_a_slice():
    from starexpr import parse, parse_selector, print_expr, roundtrip

    for case in inputs.roundtrip_cases(SEED)[:150]:
        cfg = parse_selector(case["theory"])
        out = roundtrip(cfg, parse(case["expr"], cfg))
        assert parse(print_expr(out), cfg) == out, case


def test_minimize_known_partition_matches_refine_on_small_base():
    from starexpr.bisim import brute_bisim, refine
    from starexpr.semantics import load_system

    def base_partition(doc):
        system = load_system(doc)
        part = brute_bisim(system)
        assert part == refine(system)
        return part

    docs = inputs.minimize_docs(SEED, base_partition)
    blocks = {(d["form"], len(set(d["expected"]))) for d in docs}
    assert any(form == "few-block" and n < 50 for form, n in blocks)
    assert any(form == "many-block" and n > 500 for form, n in blocks)


def test_a_run_passes(capsys, monkeypatch):
    _one_pass(monkeypatch, "equiv-deep")
    code = run.main(["--workload", "equiv-deep", "--seed", str(SEED),
                     "--seconds", "1", "--trace", "0"])
    result = _last_json(capsys.readouterr().out)
    assert code == 0 and result["correct"] is True
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_a_wrong_verdict_fails_the_run(capsys, monkeypatch):
    make = run.make_inputs

    def flipped(workload, seed):
        data = make(workload, seed)
        for case in data["cases"]:
            case["expected"] = not case["expected"]
        return data

    monkeypatch.setattr(run, "make_inputs", flipped)
    _one_pass(monkeypatch, "equiv-deep")
    code = run.main(["--workload", "equiv-deep", "--seed", str(SEED),
                     "--seconds", "1", "--trace", "0"])
    result = _last_json(capsys.readouterr().out)
    assert code == 1 and result["correct"] is False


def test_traced_run_reports_every_layer_metric(capsys):
    code = run.main(["--workload", "roundtrip-corpus", "--seed", str(SEED),
                     "--seconds", "1", "--trace", "1"])
    result = _last_json(capsys.readouterr().out)
    assert code == 0 and result["correct"] is True
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    assert result["metrics"]["bisim.refine.self_s"]["value"] > 0
