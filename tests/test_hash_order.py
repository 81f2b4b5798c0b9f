"""Output does not depend on the hash seed, and loading plus refining a
document sorts nothing: values are hash-canonical, ordered only for output."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from starexpr import gen, semantics, theory
from starexpr.bisim import refine
from starexpr.semantics import export_system, load_system
from starexpr.theory import parse_selector

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json
from starexpr import gen
from starexpr.bisim import minimize
from starexpr.semantics import export_dot, export_system, reachable, step, step_doc
from starexpr.solve import roundtrip
from starexpr.syntax import print_expr
from starexpr.theory import parse_selector

for selector in ("ca", "gc:tests=p", "smod:rat"):
    cfg = parse_selector(selector)
    for e in gen.corpus(cfg, 25, 6, seed=3):
        sys_, _ = reachable(cfg, e)
        print(json.dumps(export_system(sys_)))
        print(export_dot(sys_))
        print(json.dumps(export_system(minimize(sys_)[0])))
        print(json.dumps(step_doc(cfg, step(cfg, e))))
        print(print_expr(roundtrip(cfg, e)))
"""


def _run_with_hash_seed(seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                          capture_output=True, text=True, timeout=300)
    return done.stdout


def test_outputs_are_identical_under_two_hash_seeds():
    first = _run_with_hash_seed("0")
    assert first.count("digraph") == 75
    assert _run_with_hash_seed("1") == first


def test_load_and_refine_sort_nothing(monkeypatch):
    cfg = parse_selector("ca")
    sys_ = gen.rand_system(random.Random(5), cfg, 200)
    text = json.dumps(export_system(sys_))
    calls = 0

    def counted(f):
        def counting(x):
            nonlocal calls
            calls += 1
            return f(x)
        return counting

    # the generic key and the flat key that exports use for (action, target)
    # pairs
    monkeypatch.setattr(theory, "element_sort_key", counted(theory.element_sort_key))
    monkeypatch.setattr(semantics, "_pair_key", counted(semantics._pair_key))
    loaded = load_system(json.loads(text))
    part = refine(loaded)
    assert loaded.beta == sys_.beta and len(part) == 200
    assert calls == 0
    # the counter does see the sorting that output needs
    export_system(loaded)
    assert calls > 0
