"""Entry/body labellings: derivation, checking, loops, measures, search."""

import random
import sys
from collections import deque

import pytest

from conftest import (
    ALL_SELECTORS, all_valid_labellings, benchmark_inputs, corpus, ill_layered, loop_chain_doc,
    nested_loops, sl_chain_doc, sl_system,
)
from starexpr import gen, layering, props
from starexpr.bisim import minimize
from starexpr.errors import LayeringError
from starexpr.layering import (
    Labelling, check_well_layered, labelling_doc, labelling_from_doc,
    loops_around, measures, search_labelling, syntactic_labelling,
)
from starexpr.semantics import TICK, load_system, export_system, reachable, step
from starexpr.solve import image_labelling
from starexpr.syntax import Seq, Star, parse, print_expr
from starexpr.theory import parse_selector, supp

SL = parse_selector("sl")


def reach_with_labelling(text, cfg=SL):
    e = parse(text, cfg)
    sys_, root = reachable(cfg, e)
    return sys_, root, syntactic_labelling(cfg, e, sys_)


# ---------------------------------------------------------------------------
# the syntactic labelling


def test_self_loop_from_accepting_body_is_entry():
    sys_, root, lab = reach_with_labelling("a *{u+v} b")
    assert lab.entry == {(root, "a", root)}


def test_entry_into_terminating_remainder():
    sys_, root, lab = reach_with_labelling("(a;b) *{u+v} c")
    other = next(x for x in sys_.states if x != root)
    assert lab.entry == {(root, "a", other)}
    # the return leg stays body
    assert (other, "b", root) in set(sys_.state_transitions()) - lab.entry


def test_branching_only_expressions_have_no_entry():
    sys_, root, lab = reach_with_labelling("(a + b) ; c")
    assert lab.entry == frozenset()


def test_non_terminating_body_gives_no_entry():
    # the inner remainder loops forever, so the outer entry rule cannot fire
    sys_, root, lab = reach_with_labelling("((a *{u} b) ; c) *{u + v} d")
    assert all(src != root or dst == root for src, _, dst in lab.entry)


def test_labelling_requires_provenance():
    sys_, root, _ = reach_with_labelling("a *{u+v} b")
    imported = load_system(export_system(sys_))
    with pytest.raises(LayeringError):
        syntactic_labelling(SL, parse("a *{u+v} b", SL), imported)


def test_syntactic_labelling_well_layered_on_corpus(cfg):
    for e in corpus(cfg.selector(), count=40):
        assert props.check_layering(cfg, e) is None, print_expr(e)


def _terminates(cfg, e) -> bool:
    """Whether e can reach acceptance in one or more steps, by stepping."""
    seen, queue = {e}, deque([e])
    while queue:
        for _, tgt in supp(step(cfg, queue.popleft())):
            if tgt is TICK:
                return True
            if tgt not in seen:
                seen.add(tgt)
                queue.append(tgt)
    return False


def _reference_entry_pairs(cfg, e):
    if isinstance(e, Star):
        return {(a, e if tgt is TICK else Seq(tgt, e)) for a, tgt in supp(step(cfg, e.body))
                if tgt is TICK or _terminates(cfg, tgt)}
    if isinstance(e, Seq):
        return {(a, Seq(f, e.right)) for a, f in _reference_entry_pairs(cfg, e.left)}
    return set()


def reference_syntactic_labelling(cfg, sys_) -> Labelling:
    """The syntactic labelling's rule as stated, with a remainder's
    termination found by stepping expressions rather than from the
    system's components."""
    intern = {expr: sid for sid, expr in sys_.exprs.items()}
    present = set(sys_.state_transitions())
    return Labelling(frozenset(
        (sid, a, intern[target]) for sid, expr in sys_.exprs.items()
        for a, target in _reference_entry_pairs(cfg, expr)
        if target in intern and (sid, a, intern[target]) in present))


@pytest.mark.parametrize("size", [32, 64, 128])
def test_syntactic_labelling_matches_the_stepping_rule(cfg, size):
    remainders = 0
    nested = [nested_loops(size // 8)] if cfg.kind == "sl" else []
    for e in [*corpus(cfg.selector(), count=20, size=size), *nested]:
        sys_, _ = reachable(cfg, e)
        lab = syntactic_labelling(cfg, e, sys_)
        assert lab == reference_syntactic_labelling(cfg, sys_), print_expr(e)
        remainders += sum(x != y for x, _, y in lab.entry)
    assert remainders > 0


# ---------------------------------------------------------------------------
# the checker


def test_body_self_loop_violates_condition_1():
    verdict = check_well_layered(*ill_layered(1))
    assert not verdict.ok and verdict.condition == 1


def test_entry_without_body_return_violates_condition_2():
    sys_ = sl_system({"x": [("a", "y")], "y": [("b", TICK)]})
    verdict = check_well_layered(sys_, Labelling(frozenset({("x", "a", "y")})))
    assert not verdict.ok and verdict.condition == 2
    assert verdict.witness == ("x", "y")


def test_loops_around_cycle_violates_condition_3():
    # bodies are acyclic and every entry returns, yet x and y loop around
    # to each other through the two detour states
    verdict = check_well_layered(*ill_layered(3))
    assert not verdict.ok and verdict.condition == 3


def test_accepting_loop_target_violates_condition_4():
    verdict = check_well_layered(*ill_layered(4))
    assert not verdict.ok and verdict.condition == 4
    assert verdict.witness == ("x", "y")


def test_entry_self_loops_are_permitted():
    sys_ = sl_system({"x": [("a", "x"), ("b", TICK)]})
    assert check_well_layered(sys_, Labelling(frozenset({("x", "a", "x")}))).ok


def test_foreign_entry_rejected():
    sys_ = sl_system({"x": [("a", TICK)]})
    with pytest.raises(ValueError):
        check_well_layered(sys_, Labelling(frozenset({("x", "a", "x")})))


# ---------------------------------------------------------------------------
# loops-around and measures


def test_loops_around_examples():
    sys_, root, lab = reach_with_labelling("(a;b) *{u+v} c")
    other = next(x for x in sys_.states if x != root)
    assert loops_around(sys_, lab) == {(root, other)}

    sys_, root, lab = reach_with_labelling("a *{u+v} b")
    assert loops_around(sys_, lab) == frozenset()

    sys_, root, lab = reach_with_labelling("(a + b) ; c")
    assert loops_around(sys_, lab) == frozenset()


def test_measures_examples():
    sys_, root, lab = reach_with_labelling("a *{u+v} b")
    assert measures(sys_, lab)[root] == (0, 0)

    chart = sl_system({
        "x": [("a", "x'"), ("b", TICK)],
        "x'": [("c", "x'"), ("d", TICK)],
    })
    lab = Labelling(frozenset({("x'", "c", "x'")}))
    m = measures(chart, lab)
    assert m["x"][1] == 1 and m["x'"][1] == 0

    chain = sl_system({"x": [("a", "y")], "y": [("b", "z")], "z": [("c", TICK)]})
    m = measures(chain, Labelling(frozenset()))
    assert m["x"][1] == 2


def test_measures_reject_cycles():
    sys_ = sl_system({"x": [("a", "y")], "y": [("b", "x")]})
    with pytest.raises(LayeringError):
        measures(sys_, Labelling(frozenset()))


def test_measures_decrease_along_edges(cfg):
    for e in corpus(cfg.selector(), count=30):
        sys_, _ = reachable(cfg, e)
        lab = syntactic_labelling(cfg, e, sys_)
        meas = measures(sys_, lab)
        body = set(sys_.state_transitions()) - lab.entry
        for x, _, y in body:
            assert meas[y][1] < meas[x][1]
        for x, y in loops_around(sys_, lab):
            assert meas[y][0] < meas[x][0]


@pytest.mark.parametrize("doc", [sl_chain_doc(5000), loop_chain_doc(1600),
                                 loop_chain_doc(1600, "ca")],
                         ids=["sl-5000", "loop-sl-1600", "loop-ca-1600"])
def test_checks_and_measures_run_on_long_chains(doc):
    # a recursive longest-path search raised RecursionError from about 1000
    # chain states; every pass of the integer core is iterative
    assert sys.getrecursionlimit() <= 1000
    sys_ = load_system(doc)
    lab = labelling_from_doc(doc["labelling"], sys_)
    assert check_well_layered(sys_, lab).ok
    meas = measures(sys_, lab)
    loops = loops_around(sys_, lab)
    n = len(sys_.states)
    if doc["labelling"]["entry"]:
        # s(2k) loops around to s(2k+1) only; the body path from s1 runs
        # back to s0 and then along every b
        assert loops == {(f"s{2 * k}", f"s{2 * k + 1}") for k in range(n // 2)}
        assert meas["s0"] == (1, n // 2 - 1) and meas["s1"] == (0, n // 2)
    else:
        assert loops == frozenset()
        assert meas["s0"] == (0, n - 1)


# ---------------------------------------------------------------------------
# the component pass


def reference_dfs(succ):
    """A plain recursive depth-first search from every node in index order,
    successors in list order: discovery times, the post-order, and the first
    cycle met as a closed path ``[y, ..., y]`` (or None)."""
    order, post, path, on_path = [-1] * len(succ), [], [], set()
    cycle = None

    def visit(v):
        nonlocal cycle
        order[v] = len(post) + len(path)  # each node found before is done or on the path
        path.append(v)
        on_path.add(v)
        for w in succ[v]:
            if w in on_path and cycle is None:
                cycle = path[path.index(w):] + [w]
            if order[w] < 0:
                visit(w)
        path.pop()
        on_path.discard(v)
        post.append(v)

    for v in range(len(succ)):
        if order[v] < 0:
            visit(v)
    return order, post, cycle


def _reaches(succ):
    """For every node, the set of nodes it reaches in zero or more steps."""
    out = []
    for v in range(len(succ)):
        seen, todo = {v}, [v]
        while todo:
            for w in succ[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        out.append(seen)
    return out


def check_components(succ):
    """`_components` against a recursive search and mutual reachability."""
    comp, order, done, cycle = layering._components(succ)
    ref_order, ref_post, ref_cycle = reference_dfs(succ)
    assert (order, cycle) == (ref_order, ref_cycle)
    if cycle is None:
        # every component is one node, numbered by its place in post-order
        assert done == ref_post and [comp[v] for v in done] == list(range(len(succ)))
    assert sorted(done) == list(range(len(succ)))
    reaches = _reaches(succ)
    for v in range(len(succ)):
        for w in range(len(succ)):
            assert (comp[v] == comp[w]) == (w in reaches[v] and v in reaches[w])
    # a component completes after every component it leads to
    where = {v: p for p, v in enumerate(done)}
    for v, targets in enumerate(succ):
        for w in targets:
            assert comp[v] == comp[w] or where[w] < where[v]


def test_components_on_random_graphs_with_self_loops():
    rng = random.Random(19)
    cyclic = 0
    for _ in range(600):
        n = rng.randint(1, 9)
        density = rng.random() * 0.4
        succ = [[w for w in rng.sample(range(n), n) if rng.random() < density]
                for _ in range(n)]
        check_components(succ)
        cyclic += layering._components(succ)[3] is not None
    assert 100 < cyclic < 600


def roundtrip_graphs():
    """The graphs `roundtrip` runs the component pass on, for the
    benchmark's seed-1 roundtrip corpus: the transition graph that the
    syntactic labelling reads, and the body and loops-around graphs of
    the reachable system under that labelling and of the collapse under
    its image."""
    graphs = []
    for case in benchmark_inputs().roundtrip_cases(1):
        cfg = parse_selector(case["theory"])
        e = parse(case["expr"], cfg)
        sys_, _ = reachable(cfg, e)
        graphs.append([[t for t in row[1] if t >= 0] for row in sys_.rows])
        lab = syntactic_labelling(cfg, e, sys_)
        msys, h = minimize(sys_)
        for s, l in ((sys_, lab), (msys, image_labelling(lab, h, msys))):
            layers = layering._layers(s, l)
            graphs += [layers.body, layering._loops(layers)]
    return graphs


def test_components_on_the_roundtrip_corpus_graphs():
    graphs = roundtrip_graphs()
    assert len(graphs) == 5 * 2100
    for succ in graphs:
        check_components(succ)
    assert sum(layering._components(g)[3] is not None for g in graphs) > 0


# ---------------------------------------------------------------------------
# search


def test_search_state_loop_forced_entry():
    sys_ = sl_system({"x": [("a", "x")]})
    lab = search_labelling(sys_)
    assert lab == Labelling(frozenset({("x", "a", "x")}))
    # and that is the only valid labelling of the two
    assert all_valid_labellings(sys_) == [lab]


def test_search_minimized_star():
    sys_, root = reachable(SL, parse("a *{u+v} b", SL))
    msys, _ = minimize(sys_)
    lab = search_labelling(msys)
    assert lab is not None and check_well_layered(msys, lab).ok


def test_search_exhausts_to_none():
    # both states accept and sit on a two-cycle: every labelling fails
    sys_ = sl_system({
        "x": [("a", "y"), ("t", TICK)],
        "y": [("b", "x"), ("t", TICK)],
    })
    assert all_valid_labellings(sys_) == []
    assert search_labelling(sys_) is None


def test_search_finds_the_only_labelling_of_a_loop():
    # (s1, b, s0) cannot be entry: s0 accepts and sits in its region
    sys_, root, syn = reach_with_labelling("(a;b) *{u+v} c")
    assert all_valid_labellings(sys_) == [syn]
    assert search_labelling(sys_) == syn


def test_search_has_no_transition_bound():
    # 25 transitions on a five-state cycle: one of its pairs becomes entry
    sys_ = sl_system({
        f"s{i}": [(a, f"s{(i + 1) % 5}") for a in "abcde"] for i in range(5)
    })
    lab = search_labelling(sys_)
    assert check_well_layered(sys_, lab).ok
    assert len({(x, y) for x, _, y in lab.entry}) == 1


def test_search_keeps_loops_around_acyclic():
    # without the test that no state of the region already loops around to
    # v, elimination makes entry pairs whose loops run through each other,
    # and the final check then finds no labelling where there is one
    edges = {"s2": ["s4", "s6"], "s3": ["s5", "s6"], "s4": ["s2"], "s5": ["s8", "s4"],
             "s6": ["s8", "s3"], "s8": ["s6"]}
    sys_ = sl_system({x: [("a", y) for y in ys] for x, ys in edges.items()})
    lab = search_labelling(sys_)
    assert lab is not None and check_well_layered(sys_, lab).ok


def test_search_succeeds_on_minimized_corpus(cfg):
    # every expression's minimized system has a labelling
    for e in corpus(cfg.selector(), count=25):
        sys_, _ = reachable(cfg, e)
        msys, _ = minimize(sys_)
        lab = search_labelling(msys)
        assert lab is not None, print_expr(e)
        assert check_well_layered(msys, lab).ok


def _pair_count(sys_) -> int:
    return len({(x, y) for x, _, y in sys_.state_transitions()})


@pytest.mark.parametrize("selector", ALL_SELECTORS + ("smod:rat",))
def test_search_finds_what_the_unfiltered_enumeration_finds(selector, rng):
    # the search returns None exactly when no labelling exists, on
    # expression systems and on random ones, which often have none
    cfg = parse_selector(selector)
    systems = []
    for e in corpus(selector):
        sys_, _ = reachable(cfg, e)
        systems += [sys_, minimize(sys_)[0]]
    randoms = [gen.rand_system(rng, cfg, rng.randint(3, 6), ("a",)) for _ in range(60)]
    systems = [s for s in systems if _pair_count(s) <= 12]
    systems += [s for s in randoms if _pair_count(s) <= 10]
    verdicts = []
    for s in systems:
        lab = search_labelling(s)
        assert (lab is None) == (all_valid_labellings(s, limit=1) == [])
        assert lab is None or check_well_layered(s, lab).ok
        verdicts.append(lab is None)
    assert verdicts.count(False) > 100 and verdicts.count(True) > 0


def test_search_labels_both_systems_of_random_expressions(cfg):
    for e in corpus(cfg.selector(), count=25, size=16):
        assert props.check_labelling(cfg, e) is None, print_expr(e)


def _search_steps(monkeypatch, doc) -> int:
    """How many times the search starts walking a state's steps."""
    steps = 0

    def counting(items):
        nonlocal steps
        steps += 1
        return iter(items)

    sys_ = load_system(doc)
    monkeypatch.setattr(layering, "iter", counting, raising=False)
    assert search_labelling(sys_) is not None
    monkeypatch.undo()
    return steps


def _silent_loop_chain(units) -> dict:
    """`loop_chain_doc` without a labelling and without its final exit, so
    that no state can reach acceptance."""
    doc = dict(loop_chain_doc(units), labelling=None)
    last = f"s{2 * units - 2}"
    doc["beta"] = dict(doc["beta"], **{last: doc["beta"][last][:1]})
    return doc


@pytest.mark.parametrize("build", [lambda n: dict(loop_chain_doc(n), labelling=None),
                                   _silent_loop_chain], ids=["accepting", "silent"])
def test_search_work_grows_linearly_on_loop_chains(monkeypatch, build):
    # a region walk stops at its component's edge, so every loop of the
    # chain costs the same
    small, large = (_search_steps(monkeypatch, build(n)) for n in (400, 800))
    assert small >= 800 and large <= 2.5 * small


def test_labelling_documents_round_trip():
    sys_, root, lab = reach_with_labelling("(a;b) *{u+v} c")
    doc = labelling_doc(lab)
    assert doc == {"entry": [[root, "a", "s1"]]}
    assert labelling_from_doc(doc, sys_) == lab
