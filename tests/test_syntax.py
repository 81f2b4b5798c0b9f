"""Grammar, printing, and structural measures."""

import tracemalloc
from fractions import Fraction

import pytest

from starexpr import gen, theory
from starexpr.errors import ParseError
from starexpr.syntax import (
    Act, Seq, Star, TOp, compute_U, parse, print_expr, star_height,
)
from starexpr.theory import (
    BAnd, BTest, ChoiceSym, PLUS, SOp, SVar, SZERO, guard_sym, parse_selector,
)


SL = parse_selector("sl")
CA = parse_selector("ca")


def test_parse_branch_and_seq():
    e = parse("(a + b) ; c", SL)
    assert e == Seq(TOp(PLUS, (Act("a"), Act("b"))), Act("c"))


def test_parse_star_sl():
    e = parse("a *{u + v} b", SL)
    assert e == Star(Act("a"), SOp(PLUS, (SVar("u"), SVar("v"))), Act("b"))


def test_parse_star_ca():
    e = parse("a *{u (+1/2) v} b", CA)
    loop = SOp(ChoiceSym(Fraction(1, 2)), (SVar("u"), SVar("v")))
    assert e == Star(Act("a"), loop, Act("b"))


def test_print_examples():
    assert print_expr(Star(Act("a"), SOp(PLUS, (SVar("u"), SVar("v"))), Act("b"))) \
        == "a *{u + v} b"
    assert print_expr(Seq(Seq(Act("a"), Act("b")), Act("c"))) == "(a ; b) ; c"
    assert print_expr(TOp(SZERO.sym)) == "0"


def test_seq_is_right_nested_without_parens():
    assert parse("a ; b ; c", SL) == Seq(Act("a"), Seq(Act("b"), Act("c")))
    assert print_expr(parse("a ; b ; c", SL)) == "a ; b ; c"


def test_star_binds_tighter_than_seq():
    e = parse("a ; b *{u+v} c", SL)
    assert e == Seq(Act("a"), Star(Act("b"), SOp(PLUS, (SVar("u"), SVar("v"))), Act("c")))
    e = parse("a *{u+v} b ; c", SL)
    assert isinstance(e, Seq) and isinstance(e.left, Star)


def test_star_chains_left():
    e = parse("a *{u+v} b *{u+v} c", SL)
    assert isinstance(e, Star) and isinstance(e.body, Star)
    assert print_expr(e) == "a *{u + v} b *{u + v} c"
    e2 = parse("a *{u+v} (b *{u+v} c)", SL)
    assert isinstance(e2.exit, Star)
    assert parse(print_expr(e2), SL) == e2


def test_branching_is_non_associative():
    with pytest.raises(ParseError):
        parse("a + b + c", SL)
    assert parse("(a + b) + c", SL) == TOp(PLUS, (TOp(PLUS, (Act("a"), Act("b"))), Act("c")))


def test_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("a ; (b", SL)
    assert err.value.position == 6
    with pytest.raises(ParseError):
        parse("a (+1/2 b", CA)


def test_unknown_test_rejected():
    ga = parse_selector("ga:tests=p")
    with pytest.raises(ParseError) as err:
        parse("a +[q] b", ga)
    assert "unknown test" in str(err.value)


def test_probability_out_of_range_rejected():
    with pytest.raises(ParseError) as err:
        parse("a (+3/2) b", CA)
    assert "probability" in str(err.value)


def test_operator_theory_mismatch_rejected():
    with pytest.raises(ParseError):
        parse("a + b", CA)
    with pytest.raises(ParseError):
        parse("a (+1/2) b", SL)
    with pytest.raises(ParseError):
        parse("a (+) b", SL)


def test_loop_variables_restricted():
    with pytest.raises(ParseError):
        parse("a *{u + w} b", SL)


def test_smod_scaling():
    sm = parse_selector("smod:rat")
    e = parse("1/2 . a (+) b", sm)
    assert isinstance(e, TOp) and e.sym.text() == "(+)"
    assert print_expr(e) == "1/2 . a (+) b"
    e2 = parse("1/2 . (a (+) b)", sm)
    assert print_expr(e2) == "1/2 . (a (+) b)"
    assert e != e2


def test_smod_zero_atom_vs_weight():
    sm = parse_selector("smod:nat")
    assert parse("0", sm) == TOp(SZERO.sym)
    scaled = parse("0 . a", sm)
    assert print_expr(scaled) == "0 . a"


def test_print_parse_round_trip_random(cfg, rng):
    for i in range(400):
        e = gen.rand_expr(rng, cfg, 1 + i % 9)
        text = print_expr(e)
        assert parse(text, cfg) == e, text


def _unshared(e):
    """A structurally equal tree that shares no node object."""
    if isinstance(e, Act):
        return Act(e.name)
    if isinstance(e, TOp):
        return TOp(e.sym, [_unshared(a) for a in e.args])
    if isinstance(e, Seq):
        return Seq(_unshared(e.left), _unshared(e.right))
    return Star(_unshared(e.body), e.loop, _unshared(e.exit))


def test_print_shared_node_parenthesized_per_parent():
    # one node, first met as a branch argument (no parentheses), then as a
    # Seq left child, a Star body and a Star exit (parentheses)
    shared = Seq(Act("a"), TOp(PLUS, (Act("b"), Act("c"))))
    loop = SOp(PLUS, (SVar("u"), SVar("v")))
    dag = TOp(PLUS, (shared, Seq(shared, Star(shared, loop, shared))))
    text = print_expr(dag)
    assert text == "a ; (b + c) + (a ; (b + c)) ; (a ; (b + c)) *{u + v} (a ; (b + c))"
    assert text == print_expr(_unshared(dag))
    assert parse(text, SL) == dag


def test_print_renders_a_shared_guard_once(monkeypatch):
    ga = parse_selector("ga:tests=p,q")
    e = TOp(guard_sym(ga, BAnd(BTest("p"), BTest("q"))), (Act("a"), Act("b")))
    for _ in range(16):
        e = Seq(e, e)
    calls = 0
    bool_text = theory.bool_text

    def counting(b):
        nonlocal calls
        calls += 1
        return bool_text(b)

    monkeypatch.setattr(theory, "bool_text", counting)
    text = print_expr(e)
    assert calls == 1
    assert text == print_expr(_unshared(e))


def test_print_keeps_no_text_per_nesting_level():
    # a shared subexpression under 800 unshared levels: keeping every
    # level's text would take about 800 times the output's length
    x = TOp(PLUS, (Act("a"), Act("b")))
    for _ in range(13):
        x = Seq(x, x)
    e = x
    for _ in range(800):
        e = Seq(Act("a"), e)
    tracemalloc.start()
    try:
        text = print_expr(e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * len(text)


def test_print_long_seq_chain():
    e = Act("a")
    for _ in range(899):
        e = Seq(Act("a"), e)
    assert print_expr(e) == " ; ".join(["a"] * 900)


def test_star_height_examples():
    assert star_height(parse("a", SL)) == 0
    assert star_height(parse("a *{u+v} b", SL)) == 1
    assert star_height(parse("(a *{u+v} b) *{u+v} c", SL)) == 2
    assert star_height(parse("a *{u+v} (b *{u+v} c)", SL)) == 1
    assert star_height(parse("(a + (b *{u+v} c)) ; d", SL)) == 1


def test_compute_u_examples():
    a = parse("a", SL)
    assert compute_U(a) == {a}
    ab = parse("a ; b", SL)
    assert compute_U(ab) == {ab, parse("b", SL)}
    star = parse("a *{u+v} b", SL)
    assert compute_U(star) == {star, Seq(Act("a"), star), Act("b")}


def test_compute_u_contains_root(cfg, rng):
    for i in range(100):
        e = gen.rand_expr(rng, cfg, 1 + i % 8)
        assert e in compute_U(e)
