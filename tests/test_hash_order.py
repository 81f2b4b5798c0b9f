"""Output does not depend on the hash seed and matches pinned digests,
loading plus refining a document sorts nothing, and the system path works
on rows alone: values are hash-canonical, ordered only for output."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from conftest import state_values, value_system
from starexpr import bisim, gen, layering, semantics, theory
from starexpr.bisim import decide_equiv, minimize, refine
from starexpr.layering import (
    Labelling, check_well_layered, labelling_doc, loops_around, measures,
    search_labelling, syntactic_labelling,
)
from starexpr.semantics import (
    State, TICK, export_dot, export_system, load_system, reachable, step, step_doc,
)
from starexpr.solve import canonical_solution, check_solution, roundtrip
from starexpr.syntax import print_expr
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

    # the generic key, the key that orders a head's local targets, and the key
    # that exports sort rows by
    monkeypatch.setattr(theory, "element_sort_key", counted(theory.element_sort_key))
    monkeypatch.setattr(semantics, "_target_key", counted(semantics._target_key))
    monkeypatch.setattr(theory, "_doc_key", counted(theory._doc_key))
    loaded = load_system(json.loads(text))
    part = refine(loaded)
    assert state_values(loaded) == state_values(sys_) and len(part) == 200
    assert calls == 0
    # the counter does see the sorting that output needs
    export_system(loaded)
    assert calls > 0


# SHA-256 of `_system_outputs()`, taken before systems were stored as rows
# and re-pinned when a state's successors became ordered by its head alone,
# which renumbers some reachable systems; outputs must stay byte-identical
SYSTEM_OUTPUTS_SHA256 = "f8b6c050c2c2194a5de0429eace52cf09982375f400a4b8b22868c067f54bdb3"


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
    for owner in (theory, semantics, bisim, type(cfg.theory)):
        for name in ("mval_map", "flat_rows"):
            if hasattr(owner, name):
                monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
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
    values = state_values(loaded)
    assert len(values) == 1000 and counts["State"] >= 1000
    value_system(cfg, loaded.states, values)
    assert counts["flat_rows"] == 1
    bisim._mapped_value(values[loaded.states[0]], part)
    assert counts["mval_map"] == 1


# SHA-256 of each part of `_synthesis_parts()`.  The `check_well_layered`
# descriptions were taken before labellings were checked and solved on
# integer rows, and must stay byte-identical; the roundtrip and `solve`
# parts were re-pinned when solutions became reduced (no empty star, no
# full-mass choice against 0, no unit weight), the roundtrip part again when
# roundtrip labelled the minimized system by the image of the syntactic
# labelling instead of searching, the `label --search` and `solve` parts
# when the search became loop elimination, which labels systems of any
# size, and those three when a state's successors became ordered by its
# head alone, which renumbers some reachable systems; each of their outputs
# is verified as well.
SYNTHESIS_SHA256 = {
    "roundtrip": "b55b6b2f1b74b12663eb820bab6365a479bd352c7f7df0ea72e8bb4f2d35dd64",
    "search": "af58ef418eafed9f5110db37fddf4e7f64a584c3f958bac8e4f0ce4bbffce4d4",
    "solve": "1017778646111d03503a79afb9ad3fc7d182dd4eb940fc7e7a3cdc6d5663167b",
    "check": "c5d674ab93511397e0412d2241bc8ff9e8b025c15a8d61588c287a41dc05c740",
}


def _sparse_system(rng, cfg, n):
    """A chain s0 -> s1 -> ... with random back edges and exits."""
    states = tuple(f"s{k}" for k in range(n))
    beta = {}
    for k, x in enumerate(states):
        pool = [("a", State(states[k + 1]) if k + 1 < n else TICK),
                ("b", State(states[rng.randrange(k + 1)])), ("c", TICK)]
        beta[x] = cfg.theory.rand_value(rng, pool)
    return value_system(cfg, states, beta, root="s0")


def _two_loop_system(rng, cfg):
    """x and y step into p and q, which step back to either: labelled with
    every step of x and y as entry, the loops-around relation can cycle."""
    pools = {x: [(a, State(t)) for a, t in steps] + [("t", TICK)] for x, steps in {
        "x": [("a", "p"), ("a", "q")], "y": [("b", "q"), ("b", "p")],
        "p": [("c", "x"), ("d", "y")], "q": [("e", "x"), ("f", "y")]}.items()}
    return value_system(cfg, tuple(pools), {x: cfg.theory.rand_value(rng, pool)
                                            for x, pool in pools.items()})


def _synthesis_parts():
    """In every standard theory: printed roundtrips of a seeded corpus;
    `label --search` documents of minimized and of sparse 11-14-state
    systems; `solve` documents (with loops-around and measures) for the
    syntactic and the searched labellings; and `check_well_layered`
    descriptions with loops-around for random labellings, mostly ill
    layered, so that every condition and its witness occurs.  Systems of
    11 states or more order ids differently from indices ("s10" < "s2").

    Returns the four parts' texts by name, with the (cfg, input, output)
    of every roundtrip and the (system, solution) of every `solve`."""
    parts: dict = {"roundtrip": [], "search": [], "solve": [], "check": []}
    roundtrips, solutions = [], []
    conditions = set()
    for i, selector in enumerate(gen.STANDARD_CONFIGS):
        cfg = parse_selector(selector)
        rng = random.Random(700 + i)
        exprs = gen.corpus(cfg, 40, 24, seed=11)
        for e in exprs:
            out = roundtrip(cfg, e)
            roundtrips.append((cfg, e, out))
            parts["roundtrip"].append(print_expr(out))
        systems = []
        for e in exprs:
            sys_, _ = reachable(cfg, e)
            systems.append((sys_, syntactic_labelling(cfg, e, sys_)))
            msys = minimize(sys_)[0]
            found = search_labelling(msys)
            doc = export_system(msys)
            doc["labelling"] = None if found is None else labelling_doc(found)
            parts["search"].append(json.dumps(doc))
            if found is not None:
                systems.append((msys, found))
        for e in [e for e in gen.corpus(cfg, 60, 48, seed=5)
                  if len(reachable(cfg, e)[0].states) >= 11][:2]:
            sys_, _ = reachable(cfg, e)
            systems.append((sys_, syntactic_labelling(cfg, e, sys_)))
        for _ in range(10):
            sys_ = _sparse_system(rng, cfg, rng.randint(11, 14))
            found = search_labelling(sys_)
            doc = export_system(sys_)
            doc["labelling"] = None if found is None else labelling_doc(found)
            parts["search"].append(json.dumps(doc))
            if found is not None:
                systems.append((sys_, found))
        for sys_, lab in systems:
            phi = canonical_solution(sys_, lab)
            solutions.append((sys_, phi))
            doc = export_system(sys_)
            doc["labelling"] = labelling_doc(lab)
            doc["solution"] = {x: print_expr(phi[x]) for x in sys_.states}
            doc["loops"] = sorted(loops_around(sys_, lab))
            doc["measures"] = measures(sys_, lab)
            parts["solve"].append(json.dumps(doc))
        for _ in range(60):
            sys_ = gen.rand_system(rng, cfg, rng.randint(2, 14), ("a", "b"))
            triples = sys_.state_transitions()
            lab = Labelling(frozenset(t for t in triples if rng.random() < 0.3))
            verdict = check_well_layered(sys_, lab)
            conditions.add(verdict.condition)
            parts["check"].append(verdict.describe())
            parts["check"].append(json.dumps(sorted(loops_around(sys_, lab))))
        for _ in range(20):
            sys_ = _two_loop_system(rng, cfg)
            lab = Labelling(frozenset(t for t in sys_.state_transitions() if t[0] in "xy"))
            verdict = check_well_layered(sys_, lab)
            conditions.add(verdict.condition)
            parts["check"].append(verdict.describe())
            parts["check"].append(json.dumps(sorted(loops_around(sys_, lab))))
    assert conditions == {None, 1, 2, 3, 4}
    return {name: "\n".join(lines) for name, lines in parts.items()}, roundtrips, solutions


def _digests(parts) -> dict:
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in parts.items()}


def test_synthesis_outputs_match_the_pinned_digest():
    parts, roundtrips, solutions = _synthesis_parts()
    assert _digests(parts) == SYNTHESIS_SHA256
    for cfg, e, out in roundtrips:
        assert decide_equiv(cfg, out, e), print_expr(e)
    for sys_, phi in solutions:
        assert check_solution(sys_, phi)


def test_synthesis_digest_sees_the_id_order(monkeypatch):
    # positive control: ranking ids by length ("s2" before "s10") changes
    # traversal order and witnesses
    def by_length(states):
        ranks = [0] * len(states)
        for r, i in enumerate(sorted(range(len(states)), key=lambda i: len(states[i]))):
            ranks[i] = r
        return ranks

    monkeypatch.setattr(layering, "_ranks", by_length)
    changed = {name for name, digest in _digests(_synthesis_parts()[0]).items()
               if digest != SYNTHESIS_SHA256[name]}
    assert "check" in changed
