"""One-step behaviour, reachable systems, and document round-trips."""

import fractions
import json
import random
import re
from fractions import Fraction

import pytest

from conftest import (
    ALL_SELECTORS, BAD_ENTRIES, NOT_RATIONAL_EDGES, RATIONAL_EDGES, bad_entry_doc,
    benchmark_inputs, corpus, nested_loops, reference_reachable, repeated_doc, same_syntax,
    sl_system, state_values, value_system, weighted_doc,
)
from starexpr import gen, props, theory
from starexpr.bisim import decide_equiv
from starexpr.errors import DocumentError
from starexpr.semantics import (
    State, TICK, _target_key, export_dot, export_system, load_system,
    reachable, reachable_from, step, step_doc,
)
from starexpr.solve import roundtrip
from starexpr.syntax import Act, Seq, parse, print_expr
from starexpr.theory import (
    SEMIRINGS, SOp, SVar, Semiring, eta, eval_term, mval_map,
    parse_selector, register_semiring, reify, supp,
)

SL = parse_selector("sl")


def test_step_action_is_unit(cfg):
    assert step(cfg, Act("a")) == eta(cfg, ("a", TICK))


def test_step_choice():
    assert step(SL, parse("a + b", SL)) == SL.theory.value([("a", TICK), ("b", TICK)])


def test_step_sequencing_pushes_continuation():
    got = step(SL, parse("(a + b) ; c", SL))
    assert got == SL.theory.value([("a", Act("c")), ("b", Act("c"))])


def test_step_star_loops_back():
    e = parse("(a + b) *{u + v} c", SL)
    assert step(SL, e) == SL.theory.value([("a", e), ("b", e), ("c", TICK)])


def test_step_degenerate_loop_terms():
    # a loop that can never be entered behaves like its exit
    e = parse("a *{v} b", SL)
    assert step(SL, e) == step(SL, parse("b", SL))
    # a loop that can never exit keeps cycling
    e = parse("a *{u} b", SL)
    assert step(SL, e) == SL.theory.value([("a", e)])
    assert step(SL, parse("a *{0} b", SL)) == SL.theory.value([])


def test_reachable_single_action():
    sys_, root = reachable(SL, Act("a"))
    assert sys_.states == ("s0",)
    assert state_values(sys_)[root] == SL.theory.value([("a", TICK)])


def test_reachable_star_folds_self_loop():
    sys_, root = reachable(SL, parse("a *{u+v} b", SL))
    assert len(sys_.states) == 1
    assert state_values(sys_)[root] == SL.theory.value([("a", State(root)), ("b", TICK)])


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
        values = state_values(sys_)
        for x in sys_.states:
            back = mval_map(
                lambda pair: pair if pair[1] is TICK else (pair[0], sys_.exprs[pair[1].sid]),
                values[x])
            assert back == step(cfg, sys_.exprs[x])


def test_reachable_bounded_by_u(cfg, rng):
    for i in range(80):
        e = gen.rand_expr(rng, cfg, 1 + i % 8)
        assert props.check_layering(cfg, e) is None, print_expr(e)


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


TOP_HEAVY = {
    "sl": "((a + b) + (c + 0)) *{u + v} ((a ; b) + (0 + c))",
    "ga:tests=p,q": "((a +[p] b) +[!q] (c +[p & q] 0)) *{u +[q] v} (a +[p] (b +[q] c))",
    "ca": "((a (+1/2) b) (+1/3) (c (+1/4) 0)) *{u (+1/2) v} (a (+2/3) b)",
    "gc:tests=p": "((a (+1/2) b) +[p] (c (+1/4) 0)) *{u (+1/3) (u +[p] v)} (a +[p] b)",
    "smod:nat": "(2 . a (+) (b (+) 3 . c)) *{u (+) 2 . v} (a (+) (b (+) 0))",
}


def _count_constructions(monkeypatch, classes):
    counts = dict.fromkeys(classes, 0)
    for cls in classes:
        def counting(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            counts[_cls] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    return counts


@pytest.mark.parametrize("selector", sorted(TOP_HEAVY))
def test_step_builds_no_terms(selector, monkeypatch):
    cfg = parse_selector(selector)
    e = parse(TOP_HEAVY[selector], cfg)
    counts = _count_constructions(monkeypatch, (SOp, SVar))
    m = step(cfg, e)
    assert counts == {SOp: 0, SVar: 0}
    reify(m)  # positive control: reifying builds both
    assert counts[SOp] > 0 and counts[SVar] > 0


def test_exploration_sorts_only_branching_successors(monkeypatch):
    import starexpr.semantics as semantics

    calls = []
    monkeypatch.setattr(semantics, "_target_key", lambda t: calls.append(t) or _target_key(t))
    reachable(SL, parse("a ; b ; c ; d", SL))
    assert calls == []
    reachable(SL, parse("(a + b) ; c", SL))  # the actions alone order the targets
    assert calls == []
    reachable(SL, parse("(a ; b) + (a ; c)", SL))  # positive control
    assert len(calls) == 2


def test_successor_order_does_not_depend_on_the_stack():
    # a state's successors are ordered by its head's own targets: the two
    # a-successors of (a ; b) + (a ; c) keep their order under any stack
    for text, first, second in [
            ("(a ; b) + (a ; c)", "b", "c"),
            ("((a ; b) + (a ; c)) ; d", "b ; d", "c ; d"),
            ("(((a ; b) + (a ; c)) ; d) ; e", "(b ; d) ; e", "(c ; d) ; e")]:
        exprs = reachable(SL, parse(text, SL))[0].exprs
        assert (print_expr(exprs["s1"]), print_expr(exprs["s2"])) == (first, second), text
    # and the state that a tick pops to comes first, whichever the stack's top
    for top in ("d", "c *{u + v} d"):
        exprs = reachable(SL, parse(f"(a + (a ; b)) ; ({top})", SL))[0].exprs
        assert print_expr(exprs["s1"]) == top and exprs["s2"] == parse(f"b ; ({top})", SL)


def test_step_is_served_for_the_syntax_stepped():
    # guards written differently are equal operators, but a step's targets
    # print as the expression stepped, whatever was stepped before
    ga = parse_selector("ga:tests=p")
    for first, second in [("a ; (b +[p] c)", "a ; (b +[p & p] c)"),
                          ("a ; (b *{u +[p] v} c)", "a ; (b *{u +[!!p] v} c)")]:
        e1, e2 = parse(first, ga), parse(second, ga)
        assert e1 == e2 and step(ga, e1) == step(ga, e2)
        for e, text in ((e1, first), (e2, second), (e1, first)):
            target = text.partition(" ; ")[2][1:-1]
            assert step_doc(ga, step(ga, e)) == {"0": ["a", target], "1": ["a", target]}
        # so does each state's expression, whichever was explored first
        for e, text in ((e2, second), (e1, first)):
            assert print_expr(reachable(ga, e)[0].exprs["s1"]) == text.partition(" ; ")[2][1:-1]


def _same_exploration(cfg, roots):
    """Whether exploring the roots gives the reference's system up to the
    bijection that the state expressions, written alike, give: as many
    states, each with the reference's row and each root with its id under
    the bijection."""
    sys_, ids = reachable_from(cfg, roots)
    ref, exprs, ref_ids = reference_reachable(cfg, roots)
    where = {e: i for i, e in enumerate(exprs)}
    rename = {}
    for x, e in sys_.exprs.items():
        i = where.get(e)
        if i is None or not same_syntax(e, exprs[i]):
            return False
        rename[x] = ref.states[i]
    if len(sys_.states) != len(ref.states) or len(set(rename.values())) != len(rename):
        return False

    def renamed(pair):
        return pair if pair[1] is TICK else (pair[0], State(rename[pair[1].sid]))

    values, ref_values = state_values(sys_), state_values(ref)
    return [rename[x] for x in ids] == ref_ids and all(
        mval_map(renamed, values[x]) == ref_values[rename[x]] for x in sys_.states)


@pytest.mark.parametrize("selector", ALL_SELECTORS)
def test_exploration_matches_the_expression_reference(selector):
    cfg = parse_selector(selector)
    for e in corpus(selector):
        assert _same_exploration(cfg, (e,)), print_expr(e)
    for e in corpus(selector, count=20, size=64):
        assert _same_exploration(cfg, (e,)), print_expr(e)


def test_exploration_matches_the_expression_reference_on_benchmark_inputs():
    inputs = benchmark_inputs()
    for case in inputs.roundtrip_cases(1):
        cfg = parse_selector(case["theory"])
        e = parse(case["expr"], cfg)
        assert _same_exploration(cfg, (e,)), case["expr"]
        # the verification explores the output beside the input
        assert _same_exploration(cfg, (roundtrip(cfg, e), e)), case["expr"]
    for case in inputs.equiv_cases(1):
        cfg = parse_selector(case["theory"])
        roots = (parse(case["left"], cfg), parse(case["right"], cfg))
        assert _same_exploration(cfg, roots), case["left"]


def test_nested_loops_have_2d_plus_1_states():
    # a state's stack grows with the nesting, but no step walks it: 800
    # loops deep explore and solve within the default recursion limit
    for d in (0, 1, 5, 40, 800):
        e = nested_loops(d)
        sys_, root = reachable(SL, e)
        assert len(sys_.states) == 2 * d + 1 and root == "s0"
    assert decide_equiv(SL, roundtrip(SL, e), e)
    assert _same_exploration(SL, (nested_loops(12),))


def test_index_maps_each_state_to_its_position(cfg, rng):
    for _ in range(20):
        sys_ = gen.rand_system(rng, cfg, rng.randint(1, 6))
        index = sys_.index
        assert list(index) == list(sys_.states)
        assert all(sys_.states[i] == x for x, i in index.items())
        assert sys_.index is index  # kept after the first read


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
        assert state_values(back) == state_values(sys_)
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


@pytest.mark.parametrize("masses, total", [
    (["1/2", "1/3", "1/4"], "13/12"),
    (["2/4", "3/6", "1/100"], "101/100"),
    (["1", "1"], "2"),
    (["1/2", "1/3", "1/6"], None),
    (["1/3", "2/6", "3/9"], None),
    (["7/10", "3/10"], None),
])
def test_total_mass_is_checked_exactly(masses, total):
    entries = [{"p": m, "a": f"a{i}", "t": "s0"} for i, m in enumerate(masses)]
    for selector, value in (("ca", entries), ("gc:tests=p", {"0": entries, "1": []})):
        doc = {"theory": selector, "states": ["s0"], "beta": {"s0": value}}
        if total is None:
            load_system(doc)
            continue
        with pytest.raises(DocumentError) as err:
            load_system(doc)
        assert str(err.value) == f"total mass {total} exceeds 1"


def test_load_rejects_zero_weight():
    doc = {"theory": "smod:nat", "states": ["s0"],
           "beta": {"s0": [{"w": "0", "a": "a", "t": "✓"}]}}
    with pytest.raises(DocumentError):
        load_system(doc)


@pytest.mark.parametrize("selector, entry", BAD_ENTRIES)
def test_load_rejects_bad_masses_and_weights(selector, entry):
    with pytest.raises(DocumentError):
        load_system(bad_entry_doc(selector, entry))


def _load_error(doc) -> str:
    with pytest.raises(DocumentError) as err:
        load_system(doc)
    return str(err.value)


@pytest.mark.parametrize("raw", NOT_RATIONAL_EDGES + ["-1/2"])
@pytest.mark.parametrize("selector", ["ca", "gc:tests=p", "smod:rat"])
def test_load_rejects_strings_that_are_not_positive_rationals(selector, raw):
    text = _load_error(weighted_doc(selector, raw))
    assert _load_error(repeated_doc(selector, raw)) == text


@pytest.mark.parametrize("raw", [True, 1, 0.5, None, ["1/2"], {}])
@pytest.mark.parametrize("selector", ["ca", "gc:tests=p", "smod:rat", "smod:nat"])
def test_load_refuses_masses_and_weights_that_are_not_strings(selector, raw):
    # a JSON number may have lost digits already: 0.1 is a binary fraction
    text = _load_error(weighted_doc(selector, raw))
    assert text.endswith(f" {raw!r}: expected a string")
    assert _load_error(repeated_doc(selector, raw)) == text


@pytest.mark.parametrize("selector", ["ca", "gc:tests=p", "smod:rat"])
def test_each_number_string_is_parsed_once_per_load(selector, monkeypatch):
    """1000 entries of one number parse it once per `load_system` call:
    the memo lasts one document, across its rows, and no longer."""
    smod = selector.startswith("smod")
    owner, name = (SEMIRINGS["rat"], "parse_weight") if smod else (theory, "_parse_mass")
    calls = []
    parse = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda raw: calls.append(raw) or parse(raw))
    n = 500 if selector.startswith("gc") else 1000  # gc: two branches per state
    states = [f"s{i}" for i in range(n)]
    beta = {}
    for i, x in enumerate(states):
        value = [{"w" if smod else "p": "1/2", "a": "a", "t": states[i - 1]}]
        if selector.startswith("gc"):
            value = {"0": value, "1": [dict(value[0], t=states[i - 2])]}
        beta[x] = value
    doc = {"theory": selector, "states": states, "beta": beta}
    sys_ = load_system(doc)
    assert sum(len(row[0]) for row in sys_.rows) == 1000
    assert {w for row in sys_.rows for w in row[2]} == {Fraction(1, 2)}
    assert calls == ["1/2"]
    load_system(doc)
    assert calls == ["1/2", "1/2"]


def test_numbers_past_the_memo_size_load_as_the_others(monkeypatch):
    """A document keeps at most `_MEMO_SIZE` number strings: those past it
    are parsed wherever they appear, to the same weights."""
    size = theory._MEMO_SIZE
    calls = []
    parse = SEMIRINGS["rat"].parse_weight
    monkeypatch.setattr(SEMIRINGS["rat"], "parse_weight",
                        lambda raw: calls.append(raw) or parse(raw))
    numbers = [f"{i}/7" for i in range(1, size + 3)]
    beta = {"s0": [{"w": w, "a": f"a{i}", "t": "s0"} for i, w in enumerate(numbers)],
            "s1": [{"w": w, "a": f"a{i}", "t": "s1"} for i, w in enumerate(numbers)]}
    sys_ = load_system({"theory": "smod:rat", "states": ["s0", "s1"], "beta": beta})
    assert [list(row[2]) for row in sys_.rows] == [[Fraction(w) for w in numbers]] * 2
    assert calls == numbers + numbers[size:]


@pytest.mark.parametrize("raw", RATIONAL_EDGES)
def test_load_reads_rational_weights_as_fraction_does(raw):
    sys_ = load_system(weighted_doc("smod:rat", raw))
    assert dict(state_values(sys_)["s0"].data) == {("a", State("s0")): Fraction(raw)}


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
        assert dict(state_values(load_system(doc("4")))["s0"].data) == {("a", State("s0")): 4}
        with pytest.raises(DocumentError, match="not a"):
            load_system(doc("3"))
    finally:
        del SEMIRINGS[ring.name]


def _weight_in_three_checks(ring, raw):
    """The document weight check as separate steps: the semiring's parse
    (for ``nat`` the regular expression ``\\d+``), its membership test and
    a comparison with its zero."""
    if ring.name == "nat":
        if not re.fullmatch(r"\d+", raw):
            raise ValueError(f"not a natural number: {raw!r}")
        w = int(raw)
    else:
        w = Fraction(raw)
        if w < 0:
            raise ValueError(f"negative weight: {raw!r}")
    if not ring.contains(w):
        raise ValueError(f"{w!r} is not a {ring.name} weight")
    if w == ring.zero:
        raise ValueError("zero weights must be left out")
    return w


def _outcome(f, raw):
    try:
        w = f(raw)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared whole
        return type(exc), str(exc)
    return type(w), w


WEIGHT_EDGES = ["0", "1", "007", "12", "\u0663", "\u0663\u0664", "\uff11", "\u00b2", "",
                " 1", "1 ", "1\n", "-1", "-0", "+1", "1/0", "0/5", "-1/2", "1/2", "3/6",
                "1.5", "1_0", "1e3", "nan", 0, 3, -1, 1.5, 0.0, None, [1], {}, True, False]


@pytest.mark.parametrize("name", ["nat", "rat"])
def test_weights_parse_as_three_separate_checks_do(name):
    ring = SEMIRINGS[name]
    for raw in WEIGHT_EDGES:
        expected = _outcome(lambda r: _weight_in_three_checks(ring, r), raw)
        assert _outcome(ring.parse_weight, raw) == expected, raw
        doc = {"theory": f"smod:{name}", "states": ["s0"],
               "beta": {"s0": [{"w": raw, "a": "a", "t": "s0"}]}}
        # the same weight twice, after a good "1", loads or fails alike
        repeated = repeated_doc(f"smod:{name}", raw)
        if not isinstance(raw, str):  # documents write weights as strings
            text = f"bad weight {raw!r}: expected a string"
            assert _load_error(doc) == _load_error(repeated) == text
        elif isinstance(expected[0], type) and issubclass(expected[0], Exception):
            text = f"bad weight {raw!r}: {expected[1]}"
            assert _load_error(doc) == _load_error(repeated) == text
        else:
            w = load_system(doc).rows[0][2][0]
            assert (type(w), w) == expected
            rows = load_system(repeated).rows
            assert [(type(v), v) for v in (rows[0][2][1], rows[1][2][0])] == [expected] * 2


def test_rational_weights_load_without_fraction_comparisons(monkeypatch):
    counts = {"compare": 0}

    def counted(name):
        f = getattr(Fraction, name)

        def counting(*args):
            counts["compare"] += 1
            return f(*args)
        return counting

    cfg = parse_selector("smod:rat")
    doc = export_system(gen.rand_system(random.Random(3), cfg, 200, ("a", "b")))
    for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
        monkeypatch.setattr(fractions.Fraction, name, counted(name))
    sys_ = load_system(doc)
    assert sum(len(row[0]) for row in sys_.rows) > 200 and counts["compare"] == 0
    # positive control: the generic check compares each weight three times
    SEMIRINGS["rat"]._checked_weight("1/2")
    assert counts["compare"] == 3


@pytest.mark.parametrize("selector, key", [("ca", "p"), ("smod:nat", "w")])
def test_load_rejects_duplicate_weighted_pairs(selector, key):
    number = "1/8" if key == "p" else "1"
    entry = {key: number, "a": "a", "t": "s0"}
    doc = {"theory": selector, "states": ["s0"], "beta": {"s0": [entry, dict(entry)]}}
    with pytest.raises(DocumentError) as err:
        load_system(doc)
    assert "duplicate" in str(err.value)
    # the first error in document order wins: the 4th entry duplicates the
    # 2nd, and the 5th has a bad number
    entries = [{key: number, "a": a, "t": "s0"} for a in "abc"]
    entries += [dict(entries[1]), {key: "x", "a": "d", "t": "s0"}]
    doc["beta"]["s0"] = entries
    assert _load_error(doc) == f"duplicate weighted pair: {entries[3]!r}"


def test_load_rejects_guard_constants_as_test_names():
    doc = {"theory": "ga:tests=true", "states": ["s0"], "beta": {"s0": {"0": None, "1": None}}}
    with pytest.raises(DocumentError, match="reserved"):
        load_system(doc)


@pytest.mark.parametrize("selector", ["ga:tests=p,,q", "ga:tests=p,", "gc:tests=,p"])
def test_load_rejects_empty_test_names(selector):
    with pytest.raises(DocumentError, match="bad test name: ''"):
        load_system({"theory": selector, "states": ["s0"], "beta": {"s0": {}}})


@pytest.mark.parametrize("theory", [5, None, ["sl"]])
def test_load_rejects_a_theory_that_is_no_string(theory):
    with pytest.raises(DocumentError, match="theory must be a selector string"):
        load_system({"theory": theory, "states": ["s0"], "beta": {"s0": []}})


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
    assert state_values(load_system(doc)) == state_values(sys_)


def test_guarded_documents_group_atoms_into_branches():
    # one row entry per pair of each distinct branch; exports list every atom
    ga = parse_selector("ga:tests=p,q")
    doc = {"theory": "ga:tests=p,q", "states": ["s0"], "beta": {"s0": {
        "00": ["a", "s0"], "01": None, "10": ["a", "s0"], "11": ["b", "✓"]}}}
    sys_ = load_system(doc)
    row = sys_.rows[0]
    assert sorted(zip(row[0], row[1], row[5])) == [("a", 0, 0b0101), ("b", -1, 0b1000)]
    assert export_system(sys_) == doc
    assert '[label="a [00,10]"]' in export_dot(sys_)
    gc = parse_selector("gc:tests=p")
    half = [{"p": "1/2", "a": "a", "t": "s0"}]
    doc = {"theory": "gc:tests=p", "states": ["s0"], "beta": {"s0": {"0": half, "1": half}}}
    sys_ = load_system(doc)
    assert (sys_.rows[0][0], sys_.rows[0][5]) == (("a",), (0b11,))
    assert state_values(sys_)["s0"] == gc.theory.value([{("a", State("s0")): Fraction(1, 2)}] * 2)
    assert export_system(sys_)["beta"] == doc["beta"]


def test_guarded_documents_group_equal_branches_however_written():
    # one distribution, listed in two entry orders and spellings, is one branch
    entries = [{"p": "1/2", "a": "a", "t": "s0"}, {"p": "1/4", "a": "b", "t": "✓"}]
    reordered = [{"p": "1/4", "a": "b", "t": "✓"}, {"p": "2/4", "a": "a", "t": "s0"}]
    doc = {"theory": "gc:tests=p", "states": ["s0"], "beta": {"s0": {"0": entries, "1": reordered}}}
    sys_ = load_system(doc)
    dist = frozenset({(("a", State("s0")), Fraction(1, 2)), (("b", TICK), Fraction(1, 4))})
    assert state_values(sys_)["s0"].data == {(dist, 0b11)} and len(sys_.rows[0][0]) == 2
    assert export_system(sys_)["beta"] == {"s0": {"0": entries, "1": entries}}
    # a pair repeated at two atoms is one branch
    doc = {"theory": "ga:tests=p,q", "states": ["s0"], "beta": {"s0": {
        "00": ["a", "s0"], "01": ["b", "✓"], "10": None, "11": ["a", "s0"]}}}
    sys_ = load_system(doc)
    assert state_values(sys_)["s0"].data == {(("a", State("s0")), 0b1001), (("b", TICK), 0b0010)}
    assert len(sys_.rows[0][0]) == 2 and export_system(sys_) == doc


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
    value = ca.theory.value({("a", State("s0")): Fraction(1, 2), ("b", TICK): Fraction(1, 4)})
    sys_ = value_system(ca, ("s0",), {"s0": value})
    dot = export_dot(sys_)
    assert "a 1/2" in dot and "b 1/4" in dot
