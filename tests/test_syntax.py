"""Grammar, printing, and structural measures."""

import random
import tracemalloc
from fractions import Fraction

import pytest

from conftest import (
    ALL_SELECTORS, benchmark_inputs, corpus, guard, nested_loops, reference_tokenize,
)
from starexpr import cli, gen, props, syntax
from starexpr.bisim import decide_equiv
from starexpr.errors import ParseError
from starexpr.semantics import export_system, reachable
from starexpr.syntax import (
    Act, Seq, Star, TOp, compute_U, parse, print_expr, star_height,
)
from starexpr.theory import (
    ChoiceSym, GuardSym, PLUS, SOp, SVar, SZERO, parse_selector, term_variables,
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


def test_a_loop_term_may_mention_only_u_and_v():
    # each term keeps its variables, so a deep loop term is checked at once
    u, v = SVar("u"), SVar("v")
    deep = v
    for _ in range(5000):
        deep = SOp(PLUS, (u, deep))
    assert term_variables(deep) == {"u", "v"}
    assert Star(Act("a"), deep, Act("b")).loop is deep
    for bad in (SVar("w"), SOp(PLUS, (u, SVar("w"))), SOp(PLUS, (deep, SVar(("a", "x"))))):
        with pytest.raises(ValueError, match=r"^loop term may mention only u and v$"):
            Star(Act("a"), bad, Act("b"))


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


def test_digits_that_are_not_decimal_fail_at_their_position():
    # '²' is a digit to str.isdigit but no number to int(); a decimal digit
    # of another script still reads as its number
    nat = parse_selector("smod:nat")
    for text, selector, position in (("² . a", nat, 0), ("a (+1/²) b", CA, 6)):
        with pytest.raises(ParseError) as err:
            parse(text, selector)
        assert err.value.position == position
        assert "unexpected character '²'" in str(err.value)
    assert parse("٣ . a", nat) == parse("3 . a", nat)


def test_identifiers_are_ascii():
    # actions and tests are [a-z][a-z0-9_]*: a lowercase or digit character
    # of another script ends the identifier or starts none
    for text, position, char in (("é ; a²", 0, "é"), ("a²", 1, "²"), ("a ; bé", 5, "é")):
        with pytest.raises(ParseError) as err:
            parse(text, SL)
        assert err.value.position == position
        assert f"unexpected character {char!r}" in str(err.value)
    assert parse("a_1 ; z9", SL) == Seq(Act("a_1"), Act("z9"))


def _token_texts(text):
    """`syntax._tokenize`'s tokens with their positions, each loop term taken
    whole split into its '*{', the tokens between its braces and its '}'."""
    matches = list(syntax._TOKEN.finditer(text))
    assert syntax._tokenize(text) == [m.group() for m in matches] + [""]
    out = []
    for m in matches:
        start, stop = m.span()
        if stop - start > 2 and text[start:start + 2] == "*{":
            out.append(("*{", start))
            out += [(t.group(), t.start())
                    for t in syntax._TOKEN.finditer(text, start + 2, stop - 1)]
            out.append(("}", stop - 1))
        else:
            out.append((m.group(), start))
    return out + [("", len(text))]


def _tokenizer_texts():
    for selector in ALL_SELECTORS:
        for size in (8, 64):
            yield from map(print_expr, corpus(selector, size=size))
    for n in (1, 2, 50):
        yield " ; ".join(["a"] * n)
        yield " ; ".join(["a *{u + v} b"] * n)
        yield nested_loops(n, text=True)
    alphabet = ["a", "b", "z9", "a_1", "u", "v", "p", "0", "12", "/", ".", ";", "+", "[", "(",
                ")", "]", "{", "}", "*", "*{", "+[", "(+", "&", "|", "!", " ", "\t", "\x1c",
                "\u0663", "\u00b2", "B", "_", "\u00e9", "%"]
    rng = random.Random(11)
    for _ in range(3000):
        yield "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 16)))


def test_tokenizer_matches_the_reference_scanner():
    # the same tokens at the same positions, the same kinds as the parser
    # tells them apart, and the same error for a character that starts none
    for text in _tokenizer_texts():
        try:
            expected = reference_tokenize(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as info:
                syntax._tokenize(text)
            assert (str(info.value), info.value.position) == (str(exc), exc.position), text
            continue
        assert _token_texts(text) == [(value, pos) for _, value, pos in expected], text
        for kind, value, _ in expected:
            assert ("a" <= value < "{") == (kind == "ident"), value
            assert value.isdecimal() == (kind == "int"), value


# (selector, text, message, position): one malformed input per place that
# raises a ParseError, several of them inside or after a loop term taken
# whole, whose positions are found again only when the error is raised
PARSE_ERRORS = [
    ("sl", "a *{u + v} b ; a * b", "expected '{' after '*'", 17),
    ("sl", "a ; b ; B", "identifiers are lowercase, got 'B'", 8),
    ("sl", "a ; b *{u + v} c ; %", "unexpected character '%'", 19),
    ("sl", "a *{u % v} b + c + d", "unexpected character '%'", 6),
    ("sl", "(a ; b *{u + v} c", "expected ')', got ''", 17),
    ("sl", "a *{(u + v} b", "expected ')', got '}'", 10),
    ("sl", "a *{u + v", "expected '}', got ''", 9),
    ("sl", "a *{u *{ v} b", "expected '}', got '*{'", 6),
    ("sl", "a + b *{u + v} c + d", "branching operators are non-associative; add parentheses",
     17),
    ("sl", "a *{u + v} b ; a *{u + v + 0} b",
     "branching operators are non-associative; add parentheses", 25),
    ("sl", "a ; *{u + v} b", "expected an expression, got '*{'", 4),
    ("sl", "a\t;\x1c*{u\t+ v} b ; ;", "expected an expression, got '*{'", 4),
    ("smod:nat", "\u0663 . a *{u (+) v} \u0663", "expected an expression, got '\u0663'", 17),
    ("sl", "a *{u + v} b ; c *{u + w} b", "loop terms may mention only u and v, got 'w'", 23),
    ("sl", "a *{u + v} b ; c *{u + ;} b", "expected a loop term, got ';'", 23),
    ("sl", "a *{} b", "expected a loop term, got '}'", 4),
    ("sl", "a *{u + v} b *{u + v} c *{u +", "expected a loop term, got ''", 29),
    ("sl", "a *{u + v} b ; c +[p] b", "guarded choice is not in the sl signature", 17),
    ("ca", "a *{u (+1/2) v} b ; c (+3/2) b", "probability outside [0,1]: 3/2", 22),
    ("ca", "a *{u (+1/2) v} b ; c (+x) b", "expected a number, got 'x'", 24),
    ("ca", "a *{u (+1/2) v} b ; c (+1/0) b", "expected a nonzero denominator, got '0'", 26),
    ("smod:nat", "a *{u (+) v} b (+) 1/2 . c", "not a natural number: '1/2'", 19),
    ("smod:bool", "a (+) 2 . c", "boolean weight must be 0 or 1, got '2'", 6),
    ("ga:tests=p", "a *{u +[p] v} b ; c +[q] b", "unknown test 'q' (declared: p)", 22),
    ("ga:tests=p", "a *{u +[p] v} b ; c +[p & ;] b", "expected a test expression, got ';'",
     26),
    ("sl", "a *{u + v} b ; c d", "unexpected trailing input 'd'", 17),
    ("sl", "a ; b) *{u + v} c", "unexpected trailing input ')'", 5),
]


@pytest.mark.parametrize("selector, text, message, position", PARSE_ERRORS)
def test_parse_error_messages_and_positions(selector, text, message, position):
    with pytest.raises(ParseError) as info:
        parse(text, parse_selector(selector))
    assert (str(info.value), info.value.position) == (f"{message} (at position {position})",
                                                      position)


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
        assert props.check_print_parse(cfg, e) is None, print_expr(e)


def _unshared(e):
    """A structurally equal tree that shares no node object, loop terms
    included."""
    if isinstance(e, Act):
        return Act(e.name)
    if isinstance(e, TOp):
        return TOp(e.sym, [_unshared(a) for a in e.args])
    if isinstance(e, Seq):
        return Seq(_unshared(e.left), _unshared(e.right))
    return Star(_unshared(e.body), _unshared_term(e.loop), _unshared(e.exit))


def _unshared_term(t):
    if isinstance(t, SVar):
        return SVar(t.name)
    return SOp(t.sym, tuple(map(_unshared_term, t.args)))


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
    e = TOp(guard(ga, "p & q"), (Act("a"), Act("b")))
    for _ in range(16):
        e = Seq(e, e)
    want = print_expr(_unshared(e))
    # printing builds no guard text: it reads the guard's text, made when
    # the guard was built, once for the one shared node
    reads = 0
    text = GuardSym.text

    def counting(sym):
        nonlocal reads
        reads += 1
        return text(sym)

    def building(*args):
        raise AssertionError("printing built a guard")

    monkeypatch.setattr(GuardSym, "text", counting)
    for name in ("guard_not", "guard_join", "guard_sym"):
        monkeypatch.setattr(type(ga.theory), name, building)
    assert print_expr(e) == want
    assert reads == 1


def test_parse_builds_one_guard_symbol_per_written_guard(monkeypatch):
    ga = parse_selector("ga:tests=p,q")
    calls = []
    guarded = type(ga.theory)
    guard_sym = guarded.guard_sym
    monkeypatch.setattr(guarded, "guard_sym",
                        lambda theory, b: calls.append(b) or guard_sym(theory, b))
    text = "((a +[p & q] b) +[!!p] (a +[p & q] c)) *{u +[p & q] (v +[p] 0)} (a +[p] b)"
    e = parse(text, ga)
    # one symbol per distinct written guard; equal guards written
    # differently keep their own text
    assert len(calls) == 3
    assert print_expr(e) == text
    assert e.body.args[0].sym is e.body.args[1].sym is e.loop.sym
    assert e.body.sym == e.exit.sym and e.body.sym is not e.exit.sym


def test_parse_shares_repeated_actions_loop_terms_and_loops():
    e = parse("a *{u + v} b ; a *{u + v} b", SL)
    assert e.left is e.right
    # where the loops differ, their repeated actions, loop term and 0s are
    # still one object each
    e = parse("a *{u + v} b ; (a ; 0) *{u + v} (0 + b)", SL)
    first, second = e.left, e.right
    assert first.body is second.body.left and first.exit is second.exit.args[1]
    assert first.loop is second.loop
    assert second.body.right is second.exit.args[0]


def test_parse_shares_by_written_text():
    # equal loop terms written differently stay two objects
    e = parse("a *{u+v} b ; a *{u + v} b", SL)
    assert e.left.loop == e.right.loop and e.left.loop is not e.right.loop
    assert e.left == e.right and e.left is not e.right
    # loops share only when their parts are one object: two parsed bodies
    # (a ; b) are two
    e = parse("(a ; b) *{u + v} c ; (a ; b) *{u + v} c", SL)
    assert e.left.loop is e.right.loop
    assert e.left == e.right and e.left is not e.right


def test_parse_keeps_nothing_between_calls():
    text = "a *{u + v} b ; a *{u + v} b ; 0"
    e, f = parse(text, SL), parse(text, SL)
    assert e == f
    assert e.left is not f.left
    assert e.left.body is not f.left.body and e.left.loop is not f.left.loop
    assert e.right.right is not f.right.right


def _same_outputs(cfg, e):
    """The outputs that `print_expr` and `reach` give for a parsed
    expression, and for an equal tree built without sharing."""
    outputs = []
    for tree in (e, _unshared(e)):
        outputs.append((print_expr(tree), export_system(reachable(cfg, tree)[0])))
    return outputs[0] == outputs[1]


def test_shared_parses_give_the_outputs_of_unshared_trees():
    inputs = benchmark_inputs()
    for case in inputs.equiv_cases(1):
        cfg = parse_selector(case["theory"])
        left, right = parse(case["left"], cfg), parse(case["right"], cfg)
        assert _same_outputs(cfg, left) and _same_outputs(cfg, right)
        verdict = decide_equiv(cfg, left, right)
        assert verdict == decide_equiv(cfg, _unshared(left), _unshared(right)) == case["expected"]
    for case in inputs.roundtrip_cases(1):
        cfg = parse_selector(case["theory"])
        assert _same_outputs(cfg, parse(case["expr"], cfg)), case["expr"]


@pytest.mark.parametrize("text, message, position", [
    ("a *{u + v} b ; c *{u + v+", "branching operators are non-associative", 24),
    ("a *{u + v} b ; c *{u + v;", "expected '}', got ';'", 24),
    ("a *{u + v} b ; c *{u + v}", "expected an expression, got ''", 25),
    ("a *{u + v} b ; c *{u + v} %", "unexpected character '%'", 26),
])
def test_errors_after_a_repeated_loop_term(capsys, text, message, position):
    with pytest.raises(ParseError) as info:
        parse(text, SL)
    assert message in str(info.value) and info.value.position == position
    assert cli.run(["parse", "--theory", "sl", text]) == 2
    err = capsys.readouterr().err
    assert message in err and f"(at position {position})" in err


def test_symbols_hash_once(monkeypatch):
    p = Fraction(1, 3)
    choice = ChoiceSym(p)
    loop = SOp(choice, (SVar("u"), SVar("v")))
    calls = []
    fraction_hash = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda f: calls.append(f) or fraction_hash(f))
    assert hash(choice) == hash((p,))
    assert hash(loop) == hash((choice, (SVar("u"), SVar("v"))))
    Star(Act("a"), loop, Act("b"))
    assert calls == [p]  # only the reference hash of (p,) above


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


def test_long_chains_and_deep_nesting_compare_without_recursing():
    # a ';' spine parses in a loop, and equality walks an explicit stack:
    # two separately parsed 5000-unit chains are equal and are decided
    # equivalent in process, within the default recursion limit
    text = " ; ".join(["a"] * 5000)
    e, f = parse(text, SL), parse(text, SL)
    assert e == f and e is not f and e.right is not f.right
    assert decide_equiv(SL, e, f)
    assert not decide_equiv(SL, e, parse(text + " ; z", SL))
    unit = e
    for _ in range(4999):
        assert type(unit) is Seq and unit.left.name == "a"
        unit = unit.right
    assert unit == Act("a")

    def branches(n):
        e = Act("a")
        for _ in range(n):
            e = TOp(PLUS, (Act("a"), e))
        return e

    assert nested_loops(2000) == nested_loops(2000) != nested_loops(1999)
    assert branches(5000) == branches(5000) != branches(4999)


@pytest.mark.parametrize("selector, text, expected", [
    ("sl", "(a + 0) ; b *{u + v} c", "Seq(TOp(+, [Act(a), TOp(0)]), Star(Act(b), u + v, Act(c)))"),
    ("smod:nat", "2 . a (+) (b ; c) *{(2 . u) (+) v} 0",
     "TOp((+), [TOp(2 ., [Act(a)]), Star(Seq(Act(b), Act(c)), 2 . u (+) v, TOp(0))])"),
    ("ga:tests=p", "a +[p & !p] (b *{u +[p] v} c)",
     "TOp(+[p & !p], [Act(a), Star(Act(b), u +[p] v, Act(c))])"),
])
def test_repr_writes_the_constructors(selector, text, expected):
    assert repr(parse(text, parse_selector(selector))) == expected


def test_long_chains_and_deep_nesting_key_and_repr_without_recursing():
    # sort keys are filled children first, and repr is written, from an
    # explicit stack: within the default recursion limit in process
    e = parse(" ; ".join(["a"] * 5000), SL)
    key = e.sort_key()
    for _ in range(4999):
        assert key[:2] == (2, (0, "a"))
        key = key[2]
    assert key == (0, "a")
    assert repr(e) == "Seq(Act(a), " * 4999 + "Act(a)" + ")" * 4999
    deep = nested_loops(2000)
    key = deep.sort_key()
    for _ in range(2000):  # each loop's key holds its body's, (a ; (E ; c))
        assert key[0] == 3
        key = key[1][2][1]
    assert key == (0, "a")
    assert repr(deep).count("Star(") == 2000


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
