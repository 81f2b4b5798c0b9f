"""Partition refinement, the enumeration oracle, minimization, equivalence."""

import json
from fractions import Fraction

import pytest

from conftest import (
    bisimilar, brute_bisimilar, disjoint_union, sl_system, state_values, value_system,
)
from starexpr import bisim, gen, props
from starexpr.bisim import brute_bisim, decide_equiv, minimize, refine
from starexpr.errors import LimitExceededError
from starexpr.semantics import State, TICK, export_system, load_system, reachable
from starexpr.solve import roundtrip
from starexpr.syntax import parse
from starexpr.theory import SEMIRINGS, MVal, Semiring, mval_map, parse_selector, register_semiring

SL = parse_selector("sl")


def test_refine_merges_identical_loops():
    sys_ = sl_system({"x": [("a", "x")], "y": [("a", "y")]})
    part = refine(sys_)
    assert part["x"] == part["y"]


def test_refine_separates_different_actions():
    sys_ = sl_system({"x": [("a", TICK)], "y": [("b", TICK)]})
    part = refine(sys_)
    assert part["x"] != part["y"]


def test_brute_trivial_cases():
    one = sl_system({"x": [("a", TICK)]})
    assert brute_bisim(one) == {"x": 0}
    loops = sl_system({"x": [("a", "x")], "y": [("a", "y")]})
    assert brute_bisim(loops) == {"x": 0, "y": 0}


def test_brute_guard():
    big = sl_system({f"s{i}": [("a", TICK)] for i in range(9)})
    with pytest.raises(LimitExceededError):
        brute_bisim(big)


def test_refine_equals_brute_on_random_systems(cfg, rng):
    for _ in range(80):
        sys_ = gen.rand_system(rng, cfg, rng.randint(1, 6))
        assert props.check_oracle(sys_) is None


def fixpoint_refine(sys_):
    """Oracle beyond the brute-force bound: re-sign every state each round
    until no block splits; ids in first-occurrence order like `refine`."""
    block = {x: 0 for x in sys_.states}
    values = state_values(sys_)
    while True:
        ids = {}
        new = {x: ids.setdefault((block[x], bisim._mapped_value(values[x], block)), len(ids))
               for x in sys_.states}
        if len(ids) == len(set(block.values())):
            return new
        block = new


def test_refine_equals_fixpoint_on_random_systems(cfg, rng):
    for i in range(60):
        actions = ("a",) if i % 2 else ("a", "b", "c")
        sys_ = gen.rand_system(rng, cfg, rng.randint(1, 40), actions)
        assert refine(sys_) == fixpoint_refine(sys_)


def test_refine_equals_fixpoint_on_reachable_unions(cfg):
    systems = [reachable(cfg, e)[0] for e in gen.corpus(cfg, 30, 8, seed=11)]
    for sys1, sys2 in zip(systems, systems[1:]):
        union, _, _ = disjoint_union(sys1, sys2)
        assert refine(union) == fixpoint_refine(union)


@pytest.mark.parametrize("selector, unit", [
    ("sl", "a"), ("sl", "a *{u+v} b"),
    ("ca", "a (+1/2) b"), ("ca", "a *{u (+1/2) v} b"),
    ("smod:nat", "2 . a"), ("smod:nat", "a *{u (+) v} b"),
])
def test_refine_equals_fixpoint_on_deep_chains(selector, unit):
    cfg = parse_selector(selector)
    chain = " ; ".join([f"({unit})"] * 150)
    sys1, _ = reachable(cfg, parse(f"{chain} ; c", cfg))
    sys2, _ = reachable(cfg, parse(f"{chain} ; d", cfg))
    union, _, _ = disjoint_union(sys1, sys2)
    assert len(sys1.states) >= 150
    assert refine(sys1) == fixpoint_refine(sys1)
    assert refine(union) == fixpoint_refine(union)


@pytest.fixture
def zint():
    """Integers with negative weights: transitions can cancel each other."""
    ring = register_semiring(Semiring(
        "zint", 0, 1,
        add=lambda a, b: a + b,
        mul=lambda a, b: a * b,
        parse=int,
        fmt=str,
        contains=lambda x: type(x) is int,
        sample=lambda rng: rng.randint(-2, 2),
    ))
    yield parse_selector("smod:zint")
    del SEMIRINGS[ring.name]


def test_refine_with_cancelling_weights(zint, rng):
    def val(pairs):
        return zint.theory.value({("a", State(t)): w for t, w in pairs})

    # y and z are equivalent, so x's two transitions cancel and x is dead like w
    beta = {"x": val([("y", 1), ("z", -1)]), "y": val([("y", 2)]),
            "z": val([("z", 2)]), "w": val([])}
    sys_ = value_system(zint, ("x", "y", "z", "w"), beta)
    assert refine(sys_) == brute_bisim(sys_) == {"x": 0, "y": 1, "z": 1, "w": 0}
    for _ in range(60):
        sys_ = gen.rand_system(rng, zint, rng.randint(1, 40), ("a",))
        assert refine(sys_) == fixpoint_refine(sys_)


def _signing(monkeypatch, sys_):
    """`refine`'s partition of sys_, its `sign` calls and the row entries
    they read."""
    calls = read = 0
    signer = type(sys_.cfg.theory)
    sign = signer.sign

    def counting(theory, row, labels):
        nonlocal calls, read
        calls += 1
        read += len(row[1])
        return sign(theory, row, labels)

    with monkeypatch.context() as m:
        m.setattr(signer, "sign", counting)
        part = refine(sys_)
    return part, calls, read


def test_refine_work_is_near_linear_on_a_chain(monkeypatch):
    n = 1600
    chain = sl_system({f"s{i}": [("a", f"s{i + 1}" if i + 1 < n else TICK)]
                       for i in range(n)})
    # the round loop's work; a chain alone takes the children-first pass
    monkeypatch.setattr(bisim, "_children_first", lambda rows: None)
    part, calls, _ = _signing(monkeypatch, chain)
    assert len(set(part.values())) == n
    assert n <= calls <= 4 * n


def _self_loop_dag(rng, cfg, n, actions=("a",)):
    """A random system whose only cycles are self-loops: each state's
    targets are itself, later states in a hidden order, and the tick; the
    states are listed in a shuffled order."""
    hidden = [f"s{i}" for i in range(n)]
    beta = {}
    for i, x in enumerate(hidden):
        universe = [(a, t) for a in actions
                    for t in [TICK] + [State(y) for y in hidden[i:i + 4]]]
        pool = rng.sample(universe, rng.randint(1, min(4, len(universe))))
        beta[x] = cfg.theory.rand_value(rng, pool)
    states = list(hidden)
    rng.shuffle(states)
    return value_system(cfg, tuple(states), beta)


def _round_loop(sys_, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(bisim, "_children_first", lambda rows: None)
        return refine(sys_)


def _check_children_first(cfg, rng, monkeypatch):
    for i in range(40):
        sys_ = _self_loop_dag(rng, cfg, rng.randint(1, 30), ("a",) if i % 2 else ("a", "b"))
        assert bisim._children_first(sys_.rows) is not None
        part = refine(sys_)
        assert part == _round_loop(sys_, monkeypatch) == fixpoint_refine(sys_)


def test_children_first_pass_equals_the_round_loop(cfg, rng, monkeypatch):
    _check_children_first(cfg, rng, monkeypatch)


def test_children_first_pass_with_cancelling_weights(zint, rng, monkeypatch):
    _check_children_first(zint, rng, monkeypatch)


def test_a_two_cycle_joins_a_self_loop_state_through_the_round_loop():
    sys_ = sl_system({"x": [("a", "y")], "y": [("a", "x")], "z": [("a", "z")]})
    assert bisim._children_first(sys_.rows) is None
    assert refine(sys_) == brute_bisim(sys_) == {"x": 0, "y": 0, "z": 0}


def test_a_self_loop_state_joins_the_block_of_a_successor():
    # x's signature names y's block twice, through y and through itself
    sys_ = sl_system({"x": [("a", "x"), ("a", "y")], "y": [("a", "y")],
                      "w": [("a", "w"), ("b", TICK)]})
    assert bisim._children_first(sys_.rows) is not None
    assert refine(sys_) == brute_bisim(sys_) == {"x": 0, "y": 0, "w": 1}


@pytest.mark.parametrize("unit, most", [("a", 1), ("a *{u + v} b", 3)])
def test_children_first_pass_signs_each_state_a_bounded_number_of_times(
        monkeypatch, unit, most):
    n = 1000
    sys_, _ = reachable(SL, parse(" ; ".join([unit] * n), SL))
    assert len(sys_.states) == n
    monkeypatch.setattr(bisim, "_predecessors", None)  # a second round would call it
    part, calls, _ = _signing(monkeypatch, sys_)
    assert len(set(part.values())) == n
    assert (calls == n) if most == 1 else (calls <= most * n)


def test_a_self_loop_state_over_many_blocks_falls_back_to_the_round_loop(monkeypatch):
    # x tries each of its k successors' blocks, each try signing its k + 1
    # transitions: the pass gives up after (n + m) log2 n entries
    k = 600
    edges = {"x": [("a", "x")] + [("a", f"y{i}") for i in range(k)]}
    edges.update({f"y{i}": [(f"b{i}", TICK)] for i in range(k)})
    sys_ = sl_system(edges)
    order = bisim._children_first(sys_.rows)
    assert order is not None
    assert bisim._refine_children_first(sys_, order) is None
    part, _, read = _signing(monkeypatch, sys_)
    assert len(set(part.values())) == k + 1
    n, m = k + 1, 2 * k + 1
    assert read <= 3 * (n + m) * n.bit_length()


def test_the_search_stops_at_the_first_longer_cycle():
    seen = set()

    class Rows(list):
        def __getitem__(self, i):
            seen.add(i)
            return super().__getitem__(i)

    # s0 <-> s1, then a long chain that the search need not visit
    n = 500
    edges = {"s0": [("a", "s1")], "s1": [("a", "s0")]}
    edges.update({f"s{i}": [("a", f"s{i + 1}" if i + 1 < n else TICK)] for i in range(2, n)})
    sys_ = sl_system(edges)
    assert bisim._children_first(Rows(sys_.rows)) is None
    assert seen == {0, 1}


def _weighted_system(cfg, edges):
    """A system from {state: {(action, 'state' | TICK): weight}}; values are
    built directly, so weights keep their numeric types."""
    beta = {x: MVal(cfg, frozenset(((a, TICK if t is TICK else State(t)), w)
                                   for (a, t), w in pairs.items()))
            for x, pairs in edges.items()}
    return value_system(cfg, tuple(edges), beta)


@pytest.mark.parametrize("selector", ["ca", "smod:rat"])
def test_refine_adds_the_weights_of_pairs_that_meet(selector):
    cfg = parse_selector(selector)
    half, third, sixth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
    sys_ = _weighted_system(cfg, {
        "x": {("a", "y1"): third, ("a", "y2"): sixth},
        "z": {("a", "y1"): half},
        "w": {("a", "y1"): third},
        "y1": {("b", TICK): half},
        "y2": {("b", TICK): half},
    })
    part = refine(sys_)
    assert part == brute_bisim(sys_) == {"x": 0, "z": 0, "w": 1, "y1": 2, "y2": 2}


@pytest.mark.parametrize("selector", ["ca", "smod:rat"])
def test_refine_compares_weights_across_numeric_types(selector):
    cfg = parse_selector(selector)
    sys_ = _weighted_system(cfg, {
        "x": {("a", "y"): 1},
        "z": {("a", "y"): Fraction(1)},
        "u": {("a", "y"): Fraction(1, 2), ("a", "v"): Fraction(1, 2)},
        "w": {("a", "y"): Fraction(1, 2)},
        "y": {("b", TICK): True},
        "v": {("b", TICK): Fraction(1)},
    })
    values = state_values(sys_)
    assert values["x"] == values["z"]
    part = refine(sys_)
    assert part == brute_bisim(sys_) == {"x": 0, "z": 0, "u": 0, "w": 1, "y": 2, "v": 2}


def test_flat_signatures_agree_with_mapped_values(cfg, rng):
    for _ in range(40):
        sys_ = gen.rand_system(rng, cfg, rng.randint(1, 12), ("a", "b"))
        sign = cfg.theory.sign
        row = dict(zip(sys_.states, sys_.rows))
        # few blocks, so that pairs meet and their weights add up
        block = {x: rng.randint(0, 2) for x in sys_.states}
        labels = [block[x] for x in sys_.states] + [-1]
        mapped = {x: bisim._mapped_value(m, block) for x, m in state_values(sys_).items()}
        for x in sys_.states:
            for y in sys_.states:
                same = mapped[x] == mapped[y]
                assert (sign(row[x], labels) == sign(row[y], labels)) == same


def test_bisimilar_examples():
    sys1, r1 = reachable(SL, parse("a + a", SL))
    sys2, r2 = reachable(SL, parse("a", SL))
    assert bisimilar(sys1, r1, sys2, r2)
    sys3, r3 = reachable(SL, parse("b", SL))
    assert not bisimilar(sys1, r1, sys3, r3)


def test_bisimilar_to_hand_built_binary_star_chart():
    # the classic one-state chart for looping on a or b, exiting on c
    chart = sl_system({"r": [("a", "r"), ("b", "r"), ("c", TICK)]}, root="r")
    sys_, root = reachable(SL, parse("(a+b) *{u+v} c", SL))
    assert bisimilar(chart, "r", sys_, root)
    assert brute_bisimilar(chart, "r", sys_, root)


def test_minimize_merges_equivalent_states():
    sys_ = sl_system({"x": [("a", TICK)], "y": [("a", TICK)]})
    msys, h = minimize(sys_)
    assert len(msys.states) == 1
    assert h["x"] == h["y"]


def test_minimize_preserves_already_minimal():
    sys_ = sl_system({"x": [("a", "y")], "y": [("b", TICK)]}, root="x")
    msys, h = minimize(sys_)
    assert len(msys.states) == 2
    assert len(set(h.values())) == 2


def test_minimize_homomorphism_equation(cfg, rng):
    for _ in range(40):
        sys_ = gen.rand_system(rng, cfg, rng.randint(1, 5))
        msys, h = minimize(sys_)

        def relabel(pair):
            action, tgt = pair
            return pair if tgt is TICK else (action, State(h[tgt.sid]))

        values, mvalues = state_values(sys_), state_values(msys)
        for x in sys_.states:
            assert mval_map(relabel, values[x]) == mvalues[h[x]]
        # in the quotient, equivalence is equality
        part = refine(msys)
        assert len(set(part.values())) == len(msys.states)
        again, h2 = minimize(msys)
        assert len(again.states) == len(msys.states)


def _row_entries(row):
    """A row's entries in a fixed order, and its distinct-labels flag: rows
    built from frozensets list their entries in hash order.  Guarded rows
    keep each entry's branch mask in a column after the flag."""
    return sorted(zip(*row[:4], *row[5:])), row[4:5]


def _check_quotient_and_documents(sys_):
    """Oracle for the row path: each quotient row's value is the state's
    value mapped through h, and a document round trip keeps the rows and
    the values."""
    msys, h = minimize(sys_)

    def relabel(pair):
        action, tgt = pair
        return pair if tgt is TICK else (action, State(h[tgt.sid]))

    values, mvalues = state_values(sys_), state_values(msys)
    for x in sys_.states:
        assert mvalues[h[x]] == mval_map(relabel, values[x])
    for s in (sys_, msys):
        back = load_system(json.loads(json.dumps(export_system(s))))
        assert [_row_entries(r) for r in back.rows] == [_row_entries(r) for r in s.rows]
        assert state_values(back) == state_values(s)
    return msys, h


def test_quotient_rows_agree_with_mapped_values(cfg, rng):
    merged = 0
    for i in range(30):
        # one action and many states, so that blocks merge and pairs meet
        actions = ("a",) if i % 2 else ("a", "b")
        sys_ = gen.rand_system(rng, cfg, rng.randint(1, 30), actions)
        msys, _ = _check_quotient_and_documents(sys_)
        merged += len(msys.states) < len(sys_.states)
    assert merged > 0


def test_quotient_rows_with_cancelling_weights(zint, rng):
    def val(pairs):
        return zint.theory.value({("a", State(t)): w for t, w in pairs})

    beta = {"x": val([("y", 1), ("z", -1)]), "y": val([("y", 2)]),
            "z": val([("z", 2)]), "w": val([])}
    msys, h = _check_quotient_and_documents(value_system(zint, ("x", "y", "z", "w"), beta))
    # y and z merge, so x's two transitions cancel in its quotient row
    assert h["x"] == h["w"] and msys.rows[msys.index[h["x"]]] == ((), (), (), (), True)
    for _ in range(30):
        _check_quotient_and_documents(gen.rand_system(rng, zint, rng.randint(1, 30), ("a",)))


def test_minimize_star_idempotence_example():
    sys_, root = reachable(SL, parse("(a+a) *{u+v} b", SL))
    msys, h = minimize(sys_)
    target, troot = reachable(SL, parse("a *{u+v} b", SL))
    assert bisimilar(msys, h[root], target, troot)
    assert brute_bisimilar(msys, h[root], target, troot)


def test_decide_equiv_distribution():
    assert decide_equiv(SL, parse("(a+b);c", SL), parse("a;c + b;c", SL))
    sys1, r1 = reachable(SL, parse("(a+b);c", SL))
    sys2, r2 = reachable(SL, parse("a;c + b;c", SL))
    assert brute_bisimilar(sys1, r1, sys2, r2)


def test_decide_equiv_unrolling():
    assert decide_equiv(SL, parse("a *{u+v} b", SL),
                        parse("(a;(a *{u+v} b)) + b", SL))


def test_decide_equiv_counterexample():
    assert not decide_equiv(SL, parse("a", SL), parse("a;a", SL))


def test_decide_equiv_is_equivalence_relation(cfg, rng):
    exprs = [gen.rand_expr(rng, cfg, 1 + i % 5) for i in range(8)]
    for e in exprs:
        assert decide_equiv(cfg, e, e)
    for e1 in exprs[:5]:
        for e2 in exprs[:5]:
            assert decide_equiv(cfg, e1, e2) == decide_equiv(cfg, e2, e1)
    for e1 in exprs[:4]:
        for e2 in exprs[:4]:
            for e3 in exprs[:4]:
                if decide_equiv(cfg, e1, e2) and decide_equiv(cfg, e2, e3):
                    assert decide_equiv(cfg, e1, e3)


def _two_system_verdict(cfg, e1, e2):
    """The verdict through two separate reachable systems and their union."""
    sys1, root1 = reachable(cfg, e1)
    sys2, root2 = reachable(cfg, e2)
    return bisimilar(sys1, root1, sys2, root2)


def test_decide_equiv_matches_two_system_path(cfg):
    exprs = list(gen.corpus(cfg, 24, 6, seed=19))
    pairs = list(zip(exprs, exprs[1:])) + [(e, roundtrip(cfg, e)) for e in exprs[:8]]
    verdicts = [decide_equiv(cfg, e1, e2) for e1, e2 in pairs]
    assert verdicts == [_two_system_verdict(cfg, e1, e2) for e1, e2 in pairs]
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("selector, unit", [("sl", "a"), ("ca", "(a (+1/2) b)")])
def test_decide_equiv_on_long_chains_parsed_twice(selector, unit):
    cfg = parse_selector(selector)
    chain = " ; ".join([unit] * 450)
    e1, e2 = parse(chain, cfg), parse(chain, cfg)
    other = parse(" ; ".join([unit] * 449 + ["c"]), cfg)
    assert e1 is not e2
    assert decide_equiv(cfg, e1, e2)
    assert not decide_equiv(cfg, e1, other)
    assert not decide_equiv(cfg, other, e2)
    assert not _two_system_verdict(cfg, e1, other)


# ---------------------------------------------------------------------------
# soundness of the equational schemas


def test_schema_soundness(cfg, rng):
    for i in range(40):
        e = gen.rand_expr(rng, cfg, 1 + i % 4)
        f = gen.rand_expr(rng, cfg, 1 + (i + 1) % 4)
        g = gen.rand_expr(rng, cfg, 1 + (i + 2) % 3)
        s = gen.rand_loop_term(rng, cfg)
        t = gen.rand_term(rng, cfg, ("m", "n"), 2)
        teq = gen.rand_term(rng, cfg, ("m", "n"), 3)
        assert props.check_schemas(cfg, (e, f, g, s, t, teq)) is None


def test_unfolding_equation(cfg, rng):
    # every expression is equivalent to the reification of its behaviour
    for i in range(30):
        e = gen.rand_expr(rng, cfg, 1 + i % 5)
        assert props.check_unfolding(cfg, e) is None


# an 11-state probe: eleven guarded loops in sequence, over two tests only
PROBE_LOOP = "((a +[p0] b) *{u +[p1] v} c)"
PROBE = " ; ".join([PROBE_LOOP] * 11)
PROBE_UNROLLED = f"(((a +[p0] b) ; {PROBE_LOOP}) +[p1] c) ; " + " ; ".join([PROBE_LOOP] * 10)
PROBE_OTHER = " ; ".join([PROBE_LOOP] * 10 + ["((a +[p1] b) *{u +[p1] v} c)"])


def _probe_counts(n_tests):
    """What exploring, refining and deciding the probe gives, and the size
    of every row and signature, in ``ga`` over tests p0..p(n-1)."""
    cfg = parse_selector("ga:tests=" + ",".join(f"p{i}" for i in range(n_tests)))
    e = parse(PROBE, cfg)
    sys_, _ = reachable(cfg, e)
    part = refine(sys_)
    labels = [part[x] for x in sys_.states] + [-1]
    sign = cfg.theory.sign
    return (len(sys_.states), len(set(part.values())),
            decide_equiv(cfg, e, parse(PROBE_UNROLLED, cfg)),
            decide_equiv(cfg, e, parse(PROBE_OTHER, cfg)),
            [len(row[0]) for row in sys_.rows], [len(sign(row, labels)) for row in sys_.rows])


def test_many_test_guards_cost_per_branch_not_per_atom():
    # the probe reads two tests: with twelve declared, it explores, refines
    # and decides as with two, and no row or signature grows with the atoms
    two = _probe_counts(2)
    assert two[:4] == (11, 11, True, False)
    assert _probe_counts(12) == two
