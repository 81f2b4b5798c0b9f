"""Acceptance suite: one criterion per test, one pass/fail line per criterion.

All checks are exact (rational arithmetic, structural equality of normal
forms); each criterion also carries a wall-clock budget.  Run with
``pytest tests/test_acceptance.py -s`` to see the summary lines.
"""

import random
import time

from conftest import all_valid_labellings, corpus, sl_system, state_values
from starexpr import gen, props
from starexpr.bisim import decide_equiv, minimize
from starexpr.layering import (
    check_well_layered, loops_around, search_labelling, syntactic_labelling,
)
from starexpr.semantics import TICK, reachable, step
from starexpr.solve import canonical_solution, check_solution, tau
from starexpr.syntax import Act, Seq, parse
from starexpr.theory import parse_selector

CONFIGS = [parse_selector(s) for s in gen.STANDARD_CONFIGS]
CORPUS_RANDOM = 500
CORPUS_SIZE = 8
CORPUS_SEED = 11


def acc_corpus(cfg):
    return corpus(cfg.selector(), count=CORPUS_RANDOM, size=CORPUS_SIZE,
                  seed=CORPUS_SEED)


def report(number, ok, detail, budget, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} — {detail} "
          f"[{elapsed:.2f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_example_semantics():
    start = time.time()
    sl = parse_selector("sl")
    star = parse("(a+b) *{u+v} c", sl)
    checks = [
        step(sl, parse("a+b", sl)) == sl.theory.value([("a", TICK), ("b", TICK)]),
        step(sl, parse("(a+b);c", sl))
        == sl.theory.value([("a", Act("c")), ("b", Act("c"))]),
        step(sl, star) == sl.theory.value([("a", star), ("b", star), ("c", TICK)]),
    ]
    report(1, all(checks), f"one-step behaviour of the three examples ({sum(checks)}/3)",
           1.0, time.time() - start)


def test_criterion_2_example_solution():
    start = time.time()
    sl = parse_selector("sl")
    chart = sl_system({
        "x": [("a", "x'"), ("b", TICK)],
        "x'": [("c", "x'"), ("d", TICK)],
    }, root="x")
    lab = search_labelling(chart)
    phi = canonical_solution(chart, lab)
    ok = decide_equiv(sl, phi["x'"], parse("c *{u+v} d", sl)) \
        and decide_equiv(sl, phi["x"], parse("b + a;(c *{u+v} d)", sl))
    report(2, ok, "two-state worked chart solves to c*d and b + a(c*d)",
           1.0, time.time() - start)


def test_criterion_3_completeness_round_trip():
    start = time.time()
    done = total = 0
    for cfg in CONFIGS:
        for e in acc_corpus(cfg):
            total += 1
            if props.check_roundtrip(cfg, e) is None:
                done += 1
    report(3, done == total,
           f"synthesize-and-verify round-trip on seeded corpora ({done}/{total})",
           300.0, time.time() - start)


def test_criterion_4_axiom_soundness():
    start = time.time()
    per_schema = 200
    done = total = 0
    for cfg in CONFIGS:
        rng = random.Random(f"axioms:{cfg.selector()}")
        for i in range(per_schema):
            size = 1 + (i * 4) // per_schema
            e = gen.rand_expr(rng, cfg, size)
            f = gen.rand_expr(rng, cfg, max(1, size - 1))
            g = gen.rand_expr(rng, cfg, 1 + i % 3)
            s = gen.rand_loop_term(rng, cfg)
            t = gen.rand_term(rng, cfg, ("m", "n"), 2)
            # one term serves both the distributivity and the theory schema
            total += 1
            if props.check_schemas(cfg, (e, f, g, s, t, t)) is None:
                done += 1
    report(4, done == total,
           f"equational schemas hold under the semantics ({done}/{total} cases)",
           120.0, time.time() - start)


def test_criterion_5_oracle_equivalence():
    start = time.time()
    done = total = 0
    for cfg in CONFIGS:
        rng = random.Random(f"oracle:{cfg.selector()}")
        for _ in range(200):
            sys_ = gen.rand_system(rng, cfg, rng.randint(1, 6))
            total += 1
            if props.check_oracle(sys_) is None:
                done += 1
    report(5, done == total,
           f"refinement equals the partition-enumeration oracle ({done}/{total})",
           120.0, time.time() - start)


def test_criterion_6_split_identity():
    start = time.time()
    done = total = 0
    for cfg in CONFIGS:
        rng = random.Random(f"split:{cfg.selector()}")
        for i in range(500):
            universe = [f"x{j}" for j in range(1 + i % 5)]
            m = cfg.theory.rand_value(rng, universe)
            left = frozenset(e for e in universe if rng.random() < 0.5)
            total += 1
            if props.check_split(cfg, m, left) is None:
                done += 1
    report(6, done == total, f"splits recompose exactly ({done}/{total})",
           30.0, time.time() - start)


def test_criterion_7_well_layeredness():
    start = time.time()
    done = total = 0
    for cfg in CONFIGS:
        for e in acc_corpus(cfg):
            total += 2
            if props.check_layering(cfg, e) is None:
                done += 1
            msys, _ = minimize(reachable(cfg, e)[0])
            found = search_labelling(msys)
            if found is not None and check_well_layered(msys, found).ok:
                done += 1
    report(7, done == total,
           f"derived labellings verify and minimized systems re-label "
           f"({done}/{total})",
           300.0, time.time() - start)


def test_criterion_8_solution_uniqueness_and_pullbacks():
    start = time.time()
    done = total = compared = 0
    for cfg in CONFIGS:
        seen = set()
        for e in acc_corpus(cfg):
            sys_, root = reachable(cfg, e)
            msys, h = minimize(sys_)
            if len(msys.states) > 6 or len(msys.state_transitions()) > 20:
                continue
            key = (tuple(msys.states),
                   tuple(sorted(state_values(msys).items())))
            pairs = {(x, y) for x, _, y in msys.state_transitions()}
            fresh = key not in seen
            seen.add(key)
            if fresh and len(pairs) <= 14:
                labs = all_valid_labellings(msys, limit=4)
                if len(labs) >= 2:
                    compared += 1
                    sols = [canonical_solution(msys, lab) for lab in labs]
                    total += 1
                    if all(decide_equiv(cfg, sols[0][x], other[x])
                           for other in sols[1:] for x in msys.states):
                        done += 1
            lab = search_labelling(msys)
            if lab is None:
                continue
            phi = canonical_solution(msys, lab)
            pulled = {x: phi[h[x]] for x in sys_.states}
            total += 1
            if check_solution(sys_, pulled):
                done += 1
    report(8, done == total,
           f"alternative labellings agree and pullbacks solve "
           f"({done}/{total}, {compared} multi-labelling systems)",
           600.0, time.time() - start)


def test_criterion_9_intermediate_solution_lemma():
    start = time.time()
    done = total = 0
    for cfg in CONFIGS:
        for e in acc_corpus(cfg):
            sys_, _ = reachable(cfg, e)
            lab = syntactic_labelling(cfg, e, sys_)
            loops = loops_around(sys_, lab)
            if not loops:
                continue
            phi = canonical_solution(sys_, lab)
            for x, y in sorted(loops):
                detour = tau(sys_, lab, y, x)
                total += 1
                if decide_equiv(cfg, phi[y], Seq(detour, phi[x])):
                    done += 1
    report(9, done == total,
           f"detours factor the solution across loops ({done}/{total})",
           300.0, time.time() - start)
