"""Output does not depend on the hash seed and matches a pinned digest,
loading plus refining a document sorts nothing, and the system path works
on rows alone: values are hash-canonical, ordered only for output."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from starexpr import bisim, gen, semantics, theory
from starexpr.bisim import minimize, refine
from starexpr.semantics import (
    State, System, export_dot, export_system, load_system, reachable, step, step_doc,
)
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

for selector in gen.STANDARD_CONFIGS + ("smod:rat",):
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
    assert first.count("digraph") == 200
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

    # the generic key, the flat key for (action, target) pairs, and the key
    # that exports sort rows by
    monkeypatch.setattr(theory, "element_sort_key", counted(theory.element_sort_key))
    monkeypatch.setattr(semantics, "_pair_key", counted(semantics._pair_key))
    monkeypatch.setattr(semantics, "_doc_key", counted(semantics._doc_key))
    loaded = load_system(json.loads(text))
    part = refine(loaded)
    assert loaded.beta == sys_.beta and len(part) == 200
    assert calls == 0
    # the counter does see the sorting that output needs
    export_system(loaded)
    assert calls > 0


# SHA-256 of `_system_outputs()`, taken before systems were stored as rows;
# outputs must stay byte-identical
SYSTEM_OUTPUTS_SHA256 = "192624a02c4ca825712b103d273ea3612a50511e3aa7ea32b88a3fa212c22cd8"


def _system_outputs() -> str:
    """Exports, DOT, minimize exports with their h maps, and step documents
    on seeded systems of 11 states or more in every standard theory, so that
    id-string order ("s10" < "s2") differs from index order."""
    out = []
    for i, selector in enumerate(gen.STANDARD_CONFIGS):
        cfg = parse_selector(selector)
        rng = random.Random(600 + i)
        systems = []
        for n in (24, 60):
            doc = export_system(gen.rand_system(rng, cfg, n, ("a", "b", "c")))
            systems.append(load_system(json.loads(json.dumps(doc))))
            assert len(minimize(systems[-1])[0].states) >= 11
        exprs = [e for e in gen.corpus(cfg, 60, 48, seed=5)
                 if len(reachable(cfg, e)[0].states) >= 11][:2]
        assert len(exprs) == 2, selector
        for e in exprs:
            systems.append(reachable(cfg, e)[0])
            out.append(json.dumps(step_doc(cfg, step(cfg, e))))
        for sys_ in systems:
            msys, h = minimize(sys_)
            assert len(sys_.states) >= 11
            out.append(json.dumps(export_system(sys_)))
            out.append(export_dot(sys_))
            out.append(json.dumps({"system": export_system(msys), "h": h}))
            out.append(export_dot(msys))
    return "\n".join(out)


def test_system_outputs_match_the_pinned_digest():
    digest = hashlib.sha256(_system_outputs().encode()).hexdigest()
    assert digest == SYSTEM_OUTPUTS_SHA256


def test_load_minimize_export_build_no_values(monkeypatch):
    """The document path reads rows only: no `State`, no `mval_map`, no
    row built from values, and no row built at all inside `refine`."""
    cfg = parse_selector("ca")
    text = json.dumps(export_system(gen.rand_system(random.Random(8), cfg, 1000, ("a",))))
    counts = dict.fromkeys(("State", "mval_map", "flat_rows", "rows built"), 0)

    def counted(name, f):
        def counting(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return counting

    monkeypatch.setattr(State, "__init__", counted("State", State.__init__))
    for module in (theory, semantics, bisim):
        for name in ("mval_map", "flat_rows"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for module in (theory, semantics):
        for name in ("pair_row", "weighted_row"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted("rows built", getattr(module, name)))

    loaded = load_system(json.loads(text))
    assert counts["rows built"] == 1000
    counts["rows built"] = 0
    part = refine(loaded)
    assert counts == dict.fromkeys(counts, 0)
    msys, h = minimize(loaded)
    export_system(msys)
    export_system(loaded)
    assert len(set(part.values())) < 1000  # some states merge: quotient rows are relabelled
    assert (counts["State"], counts["mval_map"], counts["flat_rows"]) == (0, 0, 0)
    # the counters see value work where it happens
    assert len(loaded.beta) == 1000 and counts["State"] >= 1000
    System(cfg, loaded.states, loaded.beta)
    assert counts["flat_rows"] == 1
    bisim._mapped_value(loaded, loaded.states[0], part)
    assert counts["mval_map"] == 1
