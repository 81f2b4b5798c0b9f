"""One-step behaviour, reachable systems, and document round-trips."""

import json
from fractions import Fraction

import pytest

from conftest import BAD_ENTRIES, bad_entry_doc, sl_system
from starexpr import gen
from starexpr.errors import DocumentError
from starexpr.semantics import (
    State, System, TICK, _pair_key, export_dot, export_system, load_system, reachable,
    step,
)
from starexpr.syntax import Act, Seq, compute_U, parse, print_expr
from starexpr.theory import (
    SEMIRINGS, Semiring, element_sort_key, eta, eval_term, mval_ca, mval_map, mval_sl,
    parse_selector, register_semiring, reify, supp,
)

SL = parse_selector("sl")


def test_step_action_is_unit(cfg):
    assert step(cfg, Act("a")) == eta(cfg, ("a", TICK))


def test_step_choice():
    assert step(SL, parse("a + b", SL)) == mval_sl(SL, [("a", TICK), ("b", TICK)])


def test_step_sequencing_pushes_continuation():
    got = step(SL, parse("(a + b) ; c", SL))
    assert got == mval_sl(SL, [("a", Act("c")), ("b", Act("c"))])


def test_step_star_loops_back():
    e = parse("(a + b) *{u + v} c", SL)
    assert step(SL, e) == mval_sl(SL, [("a", e), ("b", e), ("c", TICK)])


def test_step_degenerate_loop_terms():
    # a loop that can never be entered behaves like its exit
    e = parse("a *{v} b", SL)
    assert step(SL, e) == step(SL, parse("b", SL))
    # a loop that can never exit keeps cycling
    e = parse("a *{u} b", SL)
    assert step(SL, e) == mval_sl(SL, [("a", e)])
    assert step(SL, parse("a *{0} b", SL)) == mval_sl(SL, [])


def test_reachable_single_action():
    sys_, root = reachable(SL, Act("a"))
    assert sys_.states == ("s0",)
    assert sys_.beta[root] == mval_sl(SL, [("a", TICK)])


def test_reachable_star_folds_self_loop():
    sys_, root = reachable(SL, parse("a *{u+v} b", SL))
    assert len(sys_.states) == 1
    assert sys_.beta[root] == mval_sl(SL, [("a", State(root)), ("b", TICK)])


def test_reachable_two_state_loop():
    e = parse("(a;b) *{u+v} c", SL)
    sys_, root = reachable(SL, e)
    assert len(sys_.states) == 2
    exprs = {print_expr(sys_.exprs[x]) for x in sys_.states}
    assert exprs == {"(a ; b) *{u + v} c", "b ; (a ; b) *{u + v} c"}


def test_reachable_is_subsystem(cfg, rng):
    # replacing state ids back by their expressions recovers the step values
    for i in range(60):
        e = gen.rand_expr(rng, cfg, 1 + i % 8)
        sys_, root = reachable(cfg, e)
        for x in sys_.states:
            back = mval_map(
                lambda pair: pair if pair[1] is TICK else (pair[0], sys_.exprs[pair[1].sid]),
                sys_.beta[x])
            assert back == step(cfg, sys_.exprs[x])


def test_reachable_bounded_by_u(cfg, rng):
    for i in range(80):
        e = gen.rand_expr(rng, cfg, 1 + i % 8)
        sys_, _ = reachable(cfg, e)
        assert len(sys_.states) <= len(compute_U(e))


def test_step_term_substitution_agrees_with_relabelling(cfg, rng):
    # the loop rule computed by reifying the body's behaviour and substituting
    # targets textually must agree with the functorial relabelling
    for i in range(60):
        e1 = gen.rand_expr(rng, cfg, 1 + i % 4)
        e2 = gen.rand_expr(rng, cfg, 1 + (i // 2) % 4)
        s = gen.rand_loop_term(rng, cfg)
        from starexpr.syntax import Star
        star = Star(e1, s, e2)
        t = reify(step(cfg, e1))

        def relabel(pair):
            action, tgt = pair
            return (action, star) if tgt is TICK else (action, Seq(tgt, star))

        env = {p: eta(cfg, relabel(p)) for p in supp(step(cfg, e1))}
        u_val = eval_term(cfg, t, env)
        expected = eval_term(cfg, s, {"u": u_val, "v": step(cfg, e2)})
        assert expected == step(cfg, star)


def test_flat_pair_key_orders_as_element_sort_key(cfg):
    # successors of corpus expressions and of every state reachable from
    # them: Expr and Tick targets, then State targets
    for e in gen.corpus(cfg, 60, 8, seed=13):
        sys_, _ = reachable(cfg, e)
        for x in sys_.states:
            for m in (step(cfg, sys_.exprs[x]), sys_.beta[x]):
                pairs = list(supp(m))
                assert len({_pair_key(p) for p in pairs}) == len(pairs)
                assert sorted(pairs, key=_pair_key) == sorted(pairs, key=element_sort_key)


# ---------------------------------------------------------------------------
# documents


def test_export_single_state_document():
    sys_, _ = reachable(SL, Act("a"))
    assert export_system(sys_) == {
        "theory": "sl",
        "states": ["s0"],
        "root": "s0",
        "beta": {"s0": [["a", "✓"]]},
    }


def test_document_round_trip(cfg, rng):
    for _ in range(30):
        sys_ = gen.rand_system(rng, cfg, rng.randint(1, 5))
        doc = json.loads(json.dumps(export_system(sys_)))
        back = load_system(doc)
        assert back.cfg == sys_.cfg
        assert back.states == sys_.states
        assert back.beta == sys_.beta
        assert back.root == sys_.root


def test_load_rejects_dangling_reference():
    doc = {"theory": "sl", "states": ["s0"], "root": "s0",
           "beta": {"s0": [["a", "zz"]]}}
    with pytest.raises(DocumentError) as err:
        load_system(doc)
    assert "dangling" in str(err.value)


def test_load_rejects_excess_mass():
    doc = {"theory": "ca", "states": ["s0"],
           "beta": {"s0": [{"p": "2/3", "a": "a", "t": "s0"},
                            {"p": "1/2", "a": "b", "t": "✓"}]}}
    with pytest.raises(DocumentError) as err:
        load_system(doc)
    assert "mass" in str(err.value)


def test_load_rejects_zero_weight():
    doc = {"theory": "smod:nat", "states": ["s0"],
           "beta": {"s0": [{"w": "0", "a": "a", "t": "✓"}]}}
    with pytest.raises(DocumentError):
        load_system(doc)


@pytest.mark.parametrize("selector, entry", BAD_ENTRIES)
def test_load_rejects_bad_masses_and_weights(selector, entry):
    with pytest.raises(DocumentError):
        load_system(bad_entry_doc(selector, entry))


def test_load_checks_weights_against_the_semiring():
    # parse accepts any integer, but only even ones are weights
    ring = register_semiring(Semiring(
        "even", 0, 2, add=lambda a, b: a + b, mul=lambda a, b: a * b // 2,
        parse=int, fmt=str, contains=lambda x: type(x) is int and x % 2 == 0,
        sample=lambda rng: 2 * rng.randint(0, 2)))
    def doc(w):
        return {"theory": "smod:even", "states": ["s0"],
                "beta": {"s0": [{"w": w, "a": "a", "t": "s0"}]}}

    try:
        assert dict(load_system(doc("4")).beta["s0"].data) == {("a", State("s0")): 4}
        with pytest.raises(DocumentError, match="not a"):
            load_system(doc("3"))
    finally:
        del SEMIRINGS[ring.name]


@pytest.mark.parametrize("selector, key", [("ca", "p"), ("smod:nat", "w")])
def test_load_rejects_duplicate_weighted_pairs(selector, key):
    entry = {key: "1/4" if key == "p" else "1", "a": "a", "t": "s0"}
    doc = {"theory": selector, "states": ["s0"], "beta": {"s0": [entry, dict(entry)]}}
    with pytest.raises(DocumentError) as err:
        load_system(doc)
    assert "duplicate" in str(err.value)


def test_load_rejects_partial_beta_and_missing_atoms():
    with pytest.raises(DocumentError):
        load_system({"theory": "sl", "states": ["s0", "s1"], "beta": {"s0": []}})
    with pytest.raises(DocumentError):
        load_system({"theory": "ga:tests=t", "states": ["s0"],
                     "beta": {"s0": {"1": None}}})


def test_ga_document_uses_atom_bitstrings():
    ga = parse_selector("ga:tests=p,q")
    sys_, _ = reachable(ga, parse("a +[p & !q] b", ga))
    doc = export_system(sys_)
    assert set(doc["beta"]["s0"]) == {"00", "01", "10", "11"}
    assert doc["beta"]["s0"]["10"] == ["a", "✓"]
    assert doc["beta"]["s0"]["01"] == ["b", "✓"]
    assert load_system(doc).beta == sys_.beta


def test_dot_output_mentions_every_edge():
    chart = sl_system({
        "x": [("a", "y"), ("b", TICK)],
        "y": [("c", "y"), ("d", TICK)],
    }, root="x")
    dot = export_dot(chart)
    assert dot.count("->") == 5  # start arrow + four transitions
    assert '"✓" [shape=doublecircle]' in dot
    for label in ("a", "b", "c", "d"):
        assert f'[label="{label}"]' in dot


def test_dot_weighted_edges_show_masses():
    ca = parse_selector("ca")
    sys_ = System(ca, ("s0",), {"s0": mval_ca(ca, {("a", State("s0")): Fraction(1, 2),
                                                   ("b", TICK): Fraction(1, 4)})})
    dot = export_dot(sys_)
    assert "a 1/2" in dot and "b 1/4" in dot
