"""Canonical solutions: factorization, detours, solving, round-trips."""

import random
import sys
from fractions import Fraction

import pytest

from conftest import (
    ILL_IMAGE, ILL_LAYERED, all_valid_labellings, brute_bisimilar, corpus, ill_layered,
    loop_chain_doc, sl_chain_doc, sl_system, value_system,
)
from starexpr import gen, props, solve
from starexpr.bisim import decide_equiv, minimize
from starexpr.errors import LayeringError
from starexpr.layering import (
    Labelling, check_well_layered, labelling_from_doc, measures, search_labelling,
    syntactic_labelling,
)
from starexpr.semantics import State, TICK, load_system, reachable
from starexpr.solve import (
    canonical_solution, check_solution, factorize, image_labelling, roundtrip, tau,
)
from starexpr.syntax import Act, Seq, Star, TOp, parse, print_expr
from starexpr.theory import (
    ChoiceSym, PLUS, SOp, SVar, SZERO, ScaleSym, ZeroSym, parse_selector, term_variables,
)

SL = parse_selector("sl")


def example_chart():
    """Two states: x steps to x' on a or accepts on b; x' loops on c or
    accepts on d.  The c-loop is the only entry transition."""
    chart = sl_system({
        "x": [("a", "x'"), ("b", TICK)],
        "x'": [("c", "x'"), ("d", TICK)],
    }, root="x")
    return chart, Labelling(frozenset({("x'", "c", "x'")}))


# ---------------------------------------------------------------------------
# factorize


def test_factorize_entry_self_loop():
    chart, lab = example_chart()
    s, t1, t2 = factorize(chart, lab, "x'")
    assert s == SOp(PLUS, (SVar("u"), SVar("v")))
    assert t1 == SVar(("c", State("x'")))
    assert t2 == SVar(("d", TICK))


def test_factorize_without_entry_part():
    chart, lab = example_chart()
    s, t1, t2 = factorize(chart, lab, "x")
    assert t1 == SZERO
    assert t2 == SOp(PLUS, (SVar(("a", State("x'"))), SVar(("b", TICK))))


def test_factorize_convex_state():
    ca = parse_selector("ca")
    beta = {"x": ca.theory.value({("a", State("x")): Fraction(1, 2),
                              ("b", TICK): Fraction(1, 2)})}
    sys_ = value_system(ca, ("x",), beta)
    lab = Labelling(frozenset({("x", "a", "x")}))
    s, t1, t2 = factorize(sys_, lab, "x")
    # full mass: no choice against 0 around the split
    assert s == SOp(ChoiceSym(Fraction(1, 2)), (SVar("u"), SVar("v")))
    assert t1 == SVar(("a", State("x")))
    assert t2 == SVar(("b", TICK))


def test_factorize_splits_same_target_by_labelling():
    # two a/b edges to the same state, only one labelled entry: the entry
    # edge goes to the loop part, the body edge stays in the exit part
    sys_ = sl_system({
        "x": [("a", "y"), ("b", "y")],
        "y": [("c", "x")],
    })
    lab = Labelling(frozenset({("x", "a", "y")}))
    s, t1, t2 = factorize(sys_, lab, "x")
    assert t1 == SVar(("a", State("y")))
    assert t2 == SVar(("b", State("y")))


# ---------------------------------------------------------------------------
# detours


def test_tau_direct_exit_edge():
    sys_, root = reachable(SL, parse("(a;b) *{u+v} c", SL))
    lab = syntactic_labelling(SL, parse("(a;b) *{u+v} c", SL), sys_)
    inner = next(x for x in sys_.states if x != root)
    detour = tau(sys_, lab, inner, root)
    assert decide_equiv(SL, detour, Act("b"))
    s1, r1 = reachable(SL, detour)
    s2, r2 = reachable(SL, Act("b"))
    assert brute_bisimilar(s1, r1, s2, r2)


def test_tau_precondition():
    chart, lab = example_chart()
    with pytest.raises(LayeringError):
        tau(chart, lab, "x'", "x")


@pytest.mark.parametrize("condition", sorted(ILL_LAYERED))
def test_solving_an_ill_layered_labelling_raises_the_checks_verdict(condition):
    sys_, lab = ill_layered(condition)
    verdict = check_well_layered(sys_, lab)
    assert verdict.condition == condition
    for call in (canonical_solution, measures, lambda s, l: tau(s, l, "x", "x")):
        with pytest.raises(LayeringError) as info:
            call(sys_, lab)
        assert str(info.value) == "labelling is not well-layered: " + verdict.describe()


def test_tau_factors_the_solution():
    sys_, root = reachable(SL, parse("(a;b) *{u+v} c", SL))
    lab = syntactic_labelling(SL, parse("(a;b) *{u+v} c", SL), sys_)
    inner = next(x for x in sys_.states if x != root)
    phi = canonical_solution(sys_, lab)
    assert decide_equiv(SL, phi[inner], Seq(tau(sys_, lab, inner, root), phi[root]))


# ---------------------------------------------------------------------------
# canonical solutions


def test_example_chart_solution():
    chart, lab = example_chart()
    phi = canonical_solution(chart, lab)
    assert phi["x'"] == parse("c *{u+v} d", SL)
    assert decide_equiv(SL, phi["x"], parse("b + a;(c *{u+v} d)", SL))
    assert check_solution(chart, phi)


def test_one_state_loop_solution():
    sys_ = sl_system({"x": [("a", "x"), ("b", TICK)]})
    lab = Labelling(frozenset({("x", "a", "x")}))
    phi = canonical_solution(sys_, lab)
    assert phi["x"] == parse("a *{u+v} b", SL)
    target, troot = reachable(SL, parse("a *{u+v} b", SL))
    s1, r1 = reachable(SL, phi["x"])
    assert brute_bisimilar(s1, r1, target, troot)


def test_one_state_convex_solution():
    ca = parse_selector("ca")
    beta = {"x": ca.theory.value({("a", State("x")): Fraction(1, 2),
                              ("b", TICK): Fraction(1, 2)})}
    sys_ = value_system(ca, ("x",), beta)
    lab = Labelling(frozenset({("x", "a", "x")}))
    phi = canonical_solution(sys_, lab)
    assert phi["x"] == parse("a *{u (+1/2) v} b", ca)
    assert decide_equiv(ca, phi["x"], parse("a *{u (+1/2) v} b", ca))


def test_wrong_solution_rejected():
    chart, lab = example_chart()
    phi = canonical_solution(chart, lab)
    assert not check_solution(chart, dict(phi, x=Act("a")))


def test_inclusion_is_a_solution(cfg):
    for e in corpus(cfg.selector(), count=10):
        sys_, _ = reachable(cfg, e)
        assert check_solution(sys_, dict(sys_.exprs))


def test_solutionhood_on_corpus(cfg):
    for e in corpus(cfg.selector(), count=12):
        sys_, _ = reachable(cfg, e)
        lab = syntactic_labelling(cfg, e, sys_)
        phi = canonical_solution(sys_, lab)
        assert check_solution(sys_, phi), print_expr(e)


def test_solution_independent_of_labelling():
    # a tick-free two-cycle admits both orientations of the entry labelling
    sys_ = sl_system({"x": [("a", "y")], "y": [("b", "x")]})
    labs = all_valid_labellings(sys_, limit=4)
    assert len(labs) >= 2
    solutions = [canonical_solution(sys_, lab) for lab in labs]
    for other in solutions[1:]:
        for x in sys_.states:
            assert decide_equiv(SL, solutions[0][x], other[x])


def test_random_labellable_systems_solve(cfg, rng):
    # arbitrary imported systems, not just reachable ones: whenever a
    # well-layered labelling exists, the canonical solution verifies
    from starexpr import gen
    solved = 0
    for _ in range(25):
        sys_ = gen.rand_system(rng, cfg, rng.randint(1, 4))
        lab = search_labelling(sys_)
        if lab is None:
            continue
        phi = canonical_solution(sys_, lab)
        assert check_solution(sys_, phi)
        solved += 1
    assert solved > 0


def test_solution_pullback_through_minimize():
    e = parse("(a+a) *{u+v} (b + b)", SL)
    sys_, root = reachable(SL, e)
    msys, h = minimize(sys_)
    lab = search_labelling(msys)
    phi = canonical_solution(msys, lab)
    pulled = {x: phi[h[x]] for x in sys_.states}
    assert check_solution(sys_, pulled)


@pytest.mark.parametrize("doc", [sl_chain_doc(5000), loop_chain_doc(1600),
                                 loop_chain_doc(1600, "ca")],
                         ids=["sl-5000", "loop-sl-1600", "loop-ca-1600"])
def test_canonical_solution_runs_on_long_chains(doc):
    assert sys.getrecursionlimit() <= 1000
    sys_ = load_system(doc)
    phi = canonical_solution(sys_, labelling_from_doc(doc["labelling"], sys_))
    assert set(phi) == set(sys_.states)
    # the root's solution exits into the next state's along the chain: a
    # loop entry through its star's exit, a loop-free state directly
    if doc["labelling"]["entry"]:
        assert phi["s0"].exit.right is phi["s2"]
    else:
        assert phi["s0"].right is phi["s1"]


@pytest.mark.parametrize("n", [4, 2000])
def test_canonical_solution_runs_on_a_long_loop(n):
    # s0 enters a loop of n steps that returns to it: each detour needs the
    # next one, which a recursive construction nested once per step
    states = [f"s{i}" for i in range(n + 1)]
    beta = {"s0": [["a", "s1"], ["b", "✓"]]}
    beta.update({states[i]: [["a", states[(i + 1) % (n + 1)]]] for i in range(1, n + 1)})
    sys_ = load_system({"theory": "sl", "states": states, "beta": beta})
    lab = labelling_from_doc({"entry": [["s0", "a", "s1"]]}, sys_)
    phi = canonical_solution(sys_, lab)
    assert set(phi) == set(states)
    if n == 4:
        assert check_solution(sys_, phi)
        assert decide_equiv(SL, phi["s0"], parse("(a ; a ; a ; a ; a) *{u + v} b", SL))


def test_chain_solutions_are_equivalent_to_their_expression():
    for selector, loop in (("sl", "u + v"), ("ca", "u (+1/2) v")):
        doc = loop_chain_doc(4, selector)
        sys_ = load_system(doc)
        phi = canonical_solution(sys_, labelling_from_doc(doc["labelling"], sys_))
        cfg = sys_.cfg
        e = parse(" ; ".join([f"(a ; c) *{{{loop}}} b"] * 4), cfg)
        assert decide_equiv(cfg, phi["s0"], e)
        assert check_solution(sys_, phi)


class _CountingEntries(frozenset):
    """A labelling's entry set that counts the passes over it."""

    passes = 0

    def __iter__(self):
        _CountingEntries.passes += 1
        return super().__iter__()


def test_roundtrip_reads_rows_and_the_labelling_once(monkeypatch):
    # the solver splits rows directly: no value is built from a row (which
    # `check_solution` does per state), and the labelling is read once, not
    # once per state
    built = []
    theory_type = type(SL.theory)
    row_value = theory_type.row_value
    monkeypatch.setattr(theory_type, "row_value",
                        lambda *args: built.append(args) or row_value(*args))
    labelled = []

    def image(lab, h, msys):
        lab = Labelling(_CountingEntries(image_labelling(lab, h, msys).entry))
        labelled.append((msys, lab))
        return lab

    monkeypatch.setattr(solve, "image_labelling", image)
    _CountingEntries.passes = 0
    e = parse("(a ; (b + c ; d)) *{u + v} (e ; (f ; g) *{u + v} h)", SL)
    out = roundtrip(SL, e)
    (msys, lab), = labelled
    assert len(msys.states) >= 5 and len(lab.entry) >= 2
    assert built == [] and _CountingEntries.passes == 1
    # positive controls: checking the solution reads values, and the
    # public factorize reads the labelling once per call
    phi = canonical_solution(msys, lab)
    assert decide_equiv(SL, out, e) and check_solution(msys, phi)
    assert len(built) == len(msys.states)
    _CountingEntries.passes = 0
    for x in msys.states:
        factorize(msys, lab, x)
    assert _CountingEntries.passes == len(msys.states)


# ---------------------------------------------------------------------------
# round-trips


def test_roundtrip_examples():
    assert decide_equiv(SL, roundtrip(SL, parse("a", SL)), parse("a", SL))
    out = roundtrip(SL, parse("(a+a) *{u+v} b", SL))
    assert out == parse("a *{u+v} b", SL)


def test_roundtrip_random(cfg, rng):
    for e in corpus(cfg.selector(), count=25):
        assert props.check_roundtrip(cfg, e) is None, print_expr(e)


def _never_search(monkeypatch):
    def search(sys_):
        raise AssertionError("roundtrip searched for a labelling")

    monkeypatch.setattr(solve, "search_labelling", search)


def test_roundtrip_never_searches(cfg, monkeypatch):
    # the image of the syntactic labelling is the main path: it is well
    # layered on every corpus input, so no labelling is searched for
    _never_search(monkeypatch)
    for e in corpus(cfg.selector()):
        assert props.check_roundtrip(cfg, e) is None, print_expr(e)


def test_roundtrip_returns_on_large_inputs(cfg):
    # the first 21 draws at sizes 128 and 256: minimized systems of up to
    # hundreds of transitions, and the smod:nat size-128 draw 20, whose
    # image labelling is ill layered
    for size in (128, 256):
        rng = random.Random(f"{cfg.selector()}:{size}")
        for _ in range(21):
            e = gen.rand_expr(rng, cfg, size)
            assert decide_equiv(cfg, roundtrip(cfg, e), e), print_expr(e)


def _smod_probe():
    """The smod:nat size-128 draw 20, whose 32-state collapse is ill layered
    under the image of its syntactic labelling."""
    rng = random.Random("smod:nat:128")
    draws = [gen.rand_expr(rng, parse_selector("smod:nat"), 128) for _ in range(21)]
    return draws[20]


@pytest.mark.parametrize("probe", ["ill-image", "size-128"])
def test_roundtrip_solves_the_collapse_where_the_image_is_ill_layered(probe):
    cfg = parse_selector("smod:nat")
    e = parse(ILL_IMAGE, cfg) if probe == "ill-image" else _smod_probe()
    sys_, root = reachable(cfg, e)
    msys, h = minimize(sys_)
    image = image_labelling(syntactic_labelling(cfg, e, sys_), h, msys)
    assert not check_well_layered(msys, image).ok
    assert len(msys.states) == (5 if probe == "ill-image" else 32)
    lab = search_labelling(msys)
    phi = canonical_solution(msys, lab)
    assert check_solution(msys, phi)
    out = roundtrip(cfg, e)
    assert out == phi[h[root]]
    assert decide_equiv(cfg, out, e)


def _tree_nodes(e) -> int:
    """Node count of the expression's tree, with shared nodes counted once
    per occurrence."""
    memo = {}

    def go(x):
        if id(x) not in memo:
            kids = [getattr(x, f) for f in ("left", "right", "body", "exit") if hasattr(x, f)]
            memo[id(x)] = 1 + sum(map(go, kids + list(getattr(x, "args", ()))))
        return memo[id(x)]

    return go(e)


def test_guarded_roundtrip_output_stays_small():
    # a size-16 input whose output tree had 23.5 million nodes when each
    # guarded value was a chain with one guard per atom
    ga = parse_selector("ga:tests=p,q")
    e = parse("(((((b ; a) *{u +[q] v} a +[p | p | (q | true)] b) ; (a ; a ; a +[!p] 0)) ; "
              "c +[p & !false] c) ; a) *{u +[q] 0} b", ga)
    out = roundtrip(ga, e)
    assert _tree_nodes(out) < 1000
    assert decide_equiv(ga, out, e)
    assert parse(print_expr(out), ga) == out


def test_roundtrip_labels_a_wide_loop_by_the_image(monkeypatch):
    # eleven entry steps of one loop: roundtrip labels the minimized system
    # by the image of the syntactic labelling, and the search labels it too
    terms = [f"(a{i} ; b{i})" for i in range(11)]
    body = terms[0]
    for t in terms[1:]:
        body = f"({body} + {t})"
    e = parse(f"({body}) *{{u+v}} d", SL)
    sys_, root = reachable(SL, e)
    msys, h = minimize(sys_)
    assert len(msys.state_transitions()) > 20
    phi = canonical_solution(msys, search_labelling(msys))
    assert decide_equiv(SL, phi[h[root]], e)
    _never_search(monkeypatch)
    out = roundtrip(SL, e)
    assert decide_equiv(SL, out, e)


def test_image_labelling_fallback_agrees():
    e = parse("(a;b) *{u+v} c", SL)
    sys_, root = reachable(SL, e)
    msys, h = minimize(sys_)
    lab = image_labelling(syntactic_labelling(SL, e, sys_), h, msys)
    assert check_well_layered(msys, lab).ok
    phi = canonical_solution(msys, lab)
    assert decide_equiv(SL, phi[h[root]], e)


# ---------------------------------------------------------------------------
# reduced solutions


@pytest.mark.parametrize("selector, text", [("smod:nat", "2 . a ; b (+) c"),
                                            ("ca", "a ; b (+1/2) c")])
def test_loop_free_roundtrips_are_their_input(selector, text):
    # no empty star around a loop-free state, no unit weight `1 .` and no
    # full-mass choice `(+1) 0`
    cfg = parse_selector(selector)
    e = parse(text, cfg)
    assert roundtrip(cfg, e) == e


def _unreduced_forms(cfg, e) -> list:
    """The forms a reduced solution never has, in e and its loop terms: a
    star of body 0, a star whose loop term never takes u, a full-mass choice
    against 0, a scaling by the unit."""
    def zero(x):
        return isinstance(x, (TOp, SOp)) and isinstance(x.sym, ZeroSym)

    found, seen, stack = [], set(), [e]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, Star):
            if zero(x.body):
                found.append("star of 0")
            if "u" not in term_variables(x.loop):
                found.append("star without u")
            stack += [x.body, x.loop, x.exit]
        elif isinstance(x, Seq):
            stack += [x.left, x.right]
        elif isinstance(x, (TOp, SOp)):
            sym = x.sym
            if isinstance(sym, ChoiceSym) and sym.prob == 1 and zero(x.args[1]):
                found.append("(+1) 0")
            if isinstance(sym, ScaleSym) and sym.weight == cfg.semiring.one:
                found.append("1 .")
            stack += x.args
    return found


def test_unreduced_forms_are_seen():
    # positive control for the walk below
    smod, ca = parse_selector("smod:nat"), parse_selector("ca")
    assert _unreduced_forms(smod, parse("0 *{u (+) v} (1 . a)", smod)) == ["star of 0", "1 ."]
    assert _unreduced_forms(ca, parse("a *{(u (+1/2) v) (+1) 0} b", ca)) == ["(+1) 0"]
    assert _unreduced_forms(ca, parse("(a (+1) 0) ; b", ca)) == ["(+1) 0"]
    assert _unreduced_forms(SL, parse("a *{v} b", SL)) == ["star without u"]
    assert _unreduced_forms(SL, parse("a *{0} b", SL)) == ["star without u"]


def test_solutions_are_reduced(cfg):
    for e in corpus(cfg.selector(), count=40):
        sys_, _ = reachable(cfg, e)
        phi = canonical_solution(sys_, syntactic_labelling(cfg, e, sys_))
        for out in [roundtrip(cfg, e), *phi.values()]:
            assert _unreduced_forms(cfg, out) == [], print_expr(e)
