"""Free-algebra values: units, evaluation, support, reification, splitting."""

import copy
import gc
import itertools
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import ALL_SELECTORS, NOT_RATIONAL_EDGES, RATIONAL_EDGES, guard
from starexpr import gen, props
from starexpr.errors import LimitExceededError, TheoryMismatchError, UnboundVariableError
from starexpr.layering import Labelling, LayerVerdict, _Layers
from starexpr.semantics import State, TICK
from starexpr.theory import (
    ChoiceSym, GuardSym, OPLUS, PLUS, SEMIRINGS, SOp, SVar,
    SZERO, ScaleSym, TheoryConfig, ZERO, element_sort_key, eta, eval_term, mval_map,
    parse_rational, parse_selector, rand_prob, reify, row_support, split, supp, term_variables,
    weight_key,
)


def ident_env(cfg, m):
    return {e: eta(cfg, e) for e in supp(m)}


# ---------------------------------------------------------------------------
# value records


def test_values_refuse_assignment():
    values = {"kind": parse_selector("sl"), "args": SOp(PLUS, (SVar("u"), SVar("v"))),
              "sid": State("s0"), "entry": Labelling(frozenset())}
    for name, value in values.items():
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            setattr(value, "other", None)
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_values_copy_and_pickle():
    values = [parse_selector("ga:tests=p"), SOp(ChoiceSym(Fraction(1, 2)), (SVar("u"), SZERO)),
              guard(parse_selector("ga:tests=p"), "p & true"), State("s0"),
              Labelling(frozenset({("s0", "a", "s0")})), LayerVerdict(False, 3, ("s0",))]
    for value in values:
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)


def test_values_pickled_under_another_hash_seed_keep_their_hash():
    # a cached hash of strings depends on the hash seed, so it is computed
    # anew, not restored
    src = Path(__file__).resolve().parents[1] / "src"
    script = ("import pickle, sys; from starexpr.theory import PLUS, SOp, SVar, parse_selector; "
              "sys.stdout.buffer.write(pickle.dumps("
              "[parse_selector('ga:tests=p'), parse_selector('sl'), SOp(PLUS, (SVar('u'), SVar('v')))]))")
    fresh = [parse_selector("ga:tests=p"), parse_selector("sl"), SOp(PLUS, (SVar("u"), SVar("v")))]
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              timeout=60, check=True)
        for value, twin in zip(fresh, pickle.loads(done.stdout)):
            assert twin == value and hash(twin) == hash(value) and twin in {value}


def test_expressions_and_values_pickled_under_another_hash_seed_keep_their_hash():
    # pickled by one process and loaded by another with a different hash
    # seed, each equals its freshly built twin: expressions, guard symbols
    # and values hash strings, so their cached hashes are computed anew
    src = Path(__file__).resolve().parents[1] / "src"
    build = ("from starexpr.semantics import step; from starexpr.syntax import parse; "
             "from starexpr.theory import parse_selector; sl = parse_selector('sl'); "
             "values = [parse('a ; b', sl), step(sl, parse('a + b', sl)), "
             "parse('a *{u + v} b', sl), "
             "parse('a +[p] b', parse_selector('ga:tests=p'))]; ")
    dump = "import pickle, sys; " + build + "sys.stdout.buffer.write(pickle.dumps(values))"
    load = ("import pickle, sys; " + build + "twins = pickle.loads(sys.stdin.buffer.read()); "
            "print([t == v and hash(t) == hash(v) and t in {v} for t, v in zip(twins, values)])")

    def run(seed, script, given=b""):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        return subprocess.run([sys.executable, "-c", script], env=env, input=given,
                              capture_output=True, timeout=60, check=True).stdout

    assert run("2", load, run("1", dump)) == b"[True, True, True, True]\n"


def test_value_reprs():
    half = ChoiceSym(Fraction(1, 2))
    cases = [
        (parse_selector("ga:tests=p,q"),
         "TheoryConfig(kind='ga', tests=('p', 'q'), semiring=None, "
         "atoms=('00', '01', '10', '11'))"),
        (parse_selector("smod:nat"),
         "TheoryConfig(kind='smod', tests=(), semiring=Semiring(nat), atoms=())"),
        (guard(parse_selector("ga:tests=p,q"), "((p) & !(q | true))"), "GuardSym(p & !(q | true))"),
        (OPLUS, "OplusSym()"),
        (ScaleSym(Fraction(2)), "ScaleSym(weight=Fraction(2, 1))"),
        (SOp(half, (SVar("u"), SZERO)),
         "SOp(sym=ChoiceSym(prob=Fraction(1, 2)), args=(SVar(name='u'), "
         "SOp(sym=ZeroSym(), args=())))"),
        (SOp(PLUS, (SVar("u"), SVar("v"))),
         "SOp(sym=PlusSym(), args=(SVar(name='u'), SVar(name='v')))"),
        (State("s1"), "State(s1)"),
        (Labelling(frozenset({("s0", "a", "s1")})),
         "Labelling(entry=frozenset({('s0', 'a', 's1')}))"),
        (LayerVerdict(True), "LayerVerdict(ok=True, condition=None, witness=None)"),
        (LayerVerdict(False, 2, ("s0", "s1")),
         "LayerVerdict(ok=False, condition=2, witness=('s0', 's1'))"),
        (_Layers([[1]], [[]], [True], [0], {}),
         "_Layers(entry=[[1]], body=[[]], accepts=[True], rank=[0], steps={}, post=None, "
         "loops=None, loop_post=None)"),
    ]
    for value, text in cases:
        assert repr(value) == text


def test_values_compare_by_class_and_fields():
    assert ZERO != PLUS and SVar("u") != State("u")
    assert SOp(ChoiceSym(Fraction(1, 2)), (SVar("u"), SZERO)) == \
        SOp(ChoiceSym(Fraction(2, 4)), (SVar("u"), SOp(ZERO)))
    assert hash(SVar("u")) == hash(("u",)) and hash(State("s")) == hash(("s",))
    assert hash(ZERO) == hash(())
    # a config compares on kind, tests and semiring: its theory object is
    # built anew each time
    assert TheoryConfig("ga", ("p",)) == parse_selector("ga:tests=p")
    assert hash(TheoryConfig("smod", semiring=SEMIRINGS["nat"])) == \
        hash(("smod", (), SEMIRINGS["nat"]))
    assert LayerVerdict(False, 1, ("s0",)) == LayerVerdict(False, 1, ("s0",))


# ---------------------------------------------------------------------------
# configuration


def test_selector_round_trip(cfg):
    assert parse_selector(cfg.selector()) == cfg


def test_atoms_enumerate_all_assignments():
    cfg = parse_selector("ga:tests=p,q")
    assert cfg.atoms == ("00", "01", "10", "11")
    assert parse_selector("ga:tests=").atoms == ("",)


def test_bad_selectors_rejected():
    # a test named true or false would print as the guard constant
    for text in ["xyz", "sl:tests=p", "smod", "smod:float", "ca:tests=p", "ga:tests=true",
                 "gc:tests=p,false"]:
        with pytest.raises(ValueError):
            parse_selector(text)


def test_test_count_is_bounded_at_its_edge():
    names = [f"t{i}" for i in range(TheoryConfig.MAX_TESTS + 1)]
    assert len(parse_selector("ga:tests=" + ",".join(names[:-1])).atoms) == 4096
    for kind in ("ga", "gc"):
        with pytest.raises(LimitExceededError):
            parse_selector(f"{kind}:tests=" + ",".join(names))
    # refused before any atom is built
    with pytest.raises(LimitExceededError):
        TheoryConfig("ga", tests=tuple(f"t{i}" for i in range(64)))


def _outcome(parse, raw):
    try:
        return parse(raw)
    except Exception as exc:  # the exception type is the outcome
        return type(exc)


@pytest.mark.parametrize("raw", RATIONAL_EDGES + NOT_RATIONAL_EDGES + [
    "-1/2", "12", "0/5", "1 /2", "+1", None, 2, 1.5, ["1"],
    pytest.param("9" * 5000, id="5000-digits"),
    pytest.param("1/" + "9" * 5000, id="5000-digit-denominator")])
def test_parse_rational_matches_fraction(raw):
    expected, got = _outcome(Fraction, raw), _outcome(parse_rational, raw)
    assert got == expected and type(got) is type(expected)


def test_weight_keys_meet_exactly_when_weights_are_equal():
    weights = [0, 1, 2, True, False, Fraction(0), Fraction(1), Fraction(1, 2),
               Fraction(2, 4), Fraction(3, 2), -1, Fraction(-1)]
    for v in weights:
        for w in weights:
            assert (weight_key(v) == weight_key(w)) == (v == w), (v, w)


def test_semiring_laws_on_random_elements(rng):
    for name, sr in SEMIRINGS.items():
        for _ in range(200):
            a, b, c = (sr.sample(rng) for _ in range(3))
            assert sr.add(a, sr.zero) == a
            assert sr.mul(a, sr.one) == a and sr.mul(sr.one, a) == a
            assert sr.add(a, b) == sr.add(b, a)
            assert sr.add(sr.add(a, b), c) == sr.add(a, sr.add(b, c))
            assert sr.mul(sr.mul(a, b), c) == sr.mul(a, sr.mul(b, c))
            assert sr.mul(a, sr.add(b, c)) == sr.add(sr.mul(a, b), sr.mul(a, c))
            assert sr.mul(sr.add(a, b), c) == sr.add(sr.mul(a, c), sr.mul(b, c))


# ---------------------------------------------------------------------------
# units and evaluation


def test_eta_shapes():
    sl = parse_selector("sl")
    assert eta(sl, "x") == sl.theory.value(["x"])
    ca = parse_selector("ca")
    assert eta(ca, "x") == ca.theory.value({"x": Fraction(1)})
    ga = parse_selector("ga:tests=t")
    assert eta(ga, "x") == ga.theory.value(("x", "x"))


def test_eval_sl_union():
    sl = parse_selector("sl")
    t = SOp(PLUS, (SVar("u"), SVar("v")))
    got = eval_term(sl, t, {"u": sl.theory.value(["x"]), "v": sl.theory.value(["y"])})
    assert got == sl.theory.value(["x", "y"])


def test_eval_ca_convex_combination():
    ca = parse_selector("ca")
    t = SOp(ChoiceSym(Fraction(1, 2)), (SVar("u"), SVar("v")))
    got = eval_term(ca, t, {"u": eta(ca, "x"), "v": eta(ca, "y")})
    assert got == ca.theory.value({"x": Fraction(1, 2), "y": Fraction(1, 2)})


def test_eval_ga_guard_selects_by_atom():
    # oracle: the if-then-else clause applied at each atom by hand;
    # with tests=(t,) the atoms are "0" (t fails) and "1" (t holds)
    ga = parse_selector("ga:tests=t")
    t = SOp(guard(ga, "t"), (SVar("u"), SVar("v")))
    got = eval_term(ga, t, {"u": eta(ga, "x"), "v": eta(ga, "y")})
    assert got == ga.theory.value(("y", "x"))


def test_eval_smod_weighted_sum():
    sm = parse_selector("smod:nat")
    t = SOp(OPLUS, (SOp(ScaleSym(2), (SVar("u"),)), SVar("v")))
    got = eval_term(sm, t, {"u": eta(sm, "x"), "v": eta(sm, "x")})
    assert got == sm.theory.value({"x": 3})


def test_eval_errors():
    sl = parse_selector("sl")
    ca = parse_selector("ca")
    with pytest.raises(UnboundVariableError):
        eval_term(sl, SVar("u"), {})
    with pytest.raises(TheoryMismatchError):
        eval_term(sl, SVar("u"), {"u": eta(ca, "x")})
    with pytest.raises(TheoryMismatchError):
        eval_term(sl, SOp(ChoiceSym(Fraction(1, 2)), (SVar("u"), SVar("u"))),
                  {"u": eta(sl, "x")})


def test_probability_bounds():
    with pytest.raises(ValueError):
        ChoiceSym(Fraction(3, 2))


def test_guard_symbols_compare_by_atom_semantics():
    ga = parse_selector("ga:tests=p,q")
    lhs = guard(ga, "p")
    rhs = guard(ga, "!!p")
    assert lhs == rhs and hash(lhs) == hash(rhs)
    assert lhs != guard(ga, "p & q")


# ---------------------------------------------------------------------------
# map and support examples


def test_map_examples():
    sl = parse_selector("sl")
    merged = mval_map(lambda e: "z", sl.theory.value(["x", "y"]))
    assert merged == sl.theory.value(["z"])
    ca = parse_selector("ca")
    m = ca.theory.value({"x": Fraction(1, 2), "y": Fraction(1, 4)})
    assert mval_map(lambda e: "z", m) == ca.theory.value({"z": Fraction(3, 4)})
    sm = parse_selector("smod:nat")
    m = sm.theory.value({"x": 2, "y": 3})
    assert mval_map(lambda e: "z", m) == sm.theory.value({"z": 5})


def test_supp_examples():
    ca = parse_selector("ca")
    assert supp(ca.theory.value({"x": Fraction(1, 2), "y": Fraction(1, 4)})) == {"x", "y"}
    ga = parse_selector("ga:tests=t")
    assert supp(ga.theory.value(("x", None))) == {"x"}


def test_supp_of_unit(cfg):
    assert supp(eta(cfg, "x")) == {"x"}


# ---------------------------------------------------------------------------
# reify examples (expected values computed by evaluating the stated builders)


def test_reify_sl_is_ordered_sum():
    sl = parse_selector("sl")
    t = reify(sl.theory.value(["y", "x"]))
    assert t == SOp(PLUS, (SVar("x"), SVar("y")))
    assert reify(sl.theory.value([])) == SZERO


def test_reify_ca_conditional_chain():
    ca = parse_selector("ca")
    m = ca.theory.value({"x": Fraction(1, 2), "y": Fraction(1, 4)})
    t = reify(m)
    inner = SOp(ChoiceSym(Fraction(2, 3)), (SVar("x"), SVar("y")))
    assert t == SOp(ChoiceSym(Fraction(3, 4)), (inner, SZERO))
    assert eval_term(ca, t, ident_env(ca, m)) == m


def test_reify_round_trip_random(cfg, rng):
    for i in range(300):
        universe = [f"x{j}" for j in range(1 + i % 4)]
        m = cfg.theory.rand_value(rng, universe)
        assert props.check_reify(cfg, m) is None


# ---------------------------------------------------------------------------
# splitting


def test_split_sl_example():
    sl = parse_selector("sl")
    m = sl.theory.value(["ax", "bt"])
    s, t1, t2 = split(m, lambda e: e == "ax")
    assert s == SOp(PLUS, (SVar("u"), SVar("v")))
    assert t1 == SVar("ax") and t2 == SVar("bt")
    s, t1, t2 = split(sl.theory.value(["bt"]), lambda e: False)
    assert t1 == SZERO and t2 == SVar("bt")


def test_split_ca_example():
    ca = parse_selector("ca")
    m = ca.theory.value({"ax": Fraction(1, 2), "by": Fraction(1, 4)})
    s, t1, t2 = split(m, lambda e: e == "ax")
    inner = SOp(ChoiceSym(Fraction(2, 3)), (SVar("u"), SVar("v")))
    assert s == SOp(ChoiceSym(Fraction(3, 4)), (inner, SZERO))
    assert t1 == SVar("ax") and t2 == SVar("by")
    got = eval_term(ca, s, {"u": eval_term(ca, t1, ident_env(ca, m)),
                            "v": eval_term(ca, t2, ident_env(ca, m))})
    assert got == m


def test_zero_test_guarded_algebra():
    # with no tests there is exactly one atom, the empty bitstring
    ga0 = parse_selector("ga:tests=")
    assert ga0.atoms == ("",)
    assert parse_selector(ga0.selector()) == ga0
    t = SOp(guard(ga0, "true"), (SVar("u"), SVar("v")))
    got = eval_term(ga0, t, {"u": eta(ga0, "x"), "v": eta(ga0, "y")})
    assert got == eta(ga0, "x")
    m = ga0.theory.value(("y",))
    assert eval_term(ga0, reify(m), {"y": eta(ga0, "y")}) == m


def test_split_identity_two_test_guarded_convex_and_rationals(rng):
    # configurations beyond the standard fixture list
    for sel in ("gc:tests=p,q", "smod:rat", "ga:tests="):
        other = parse_selector(sel)
        for i in range(150):
            universe = [f"x{j}" for j in range(1 + i % 4)]
            m = other.theory.rand_value(rng, universe)
            left = frozenset(e for e in universe if rng.random() < 0.5)
            assert props.check_split(other, m, left) is None
            assert props.check_reify(other, m) is None


def test_split_identity_random(cfg, rng):
    for i in range(400):
        universe = [f"x{j}" for j in range(1 + i % 5)]
        m = cfg.theory.rand_value(rng, universe)
        left = frozenset(e for e in universe if rng.random() < 0.5)
        assert props.check_split(cfg, m, left) is None


def _renamed(t, targets):
    """t with each variable (label, t) renamed to (label, targets[t]); u
    and v stay."""
    if isinstance(t, SVar):
        return t if t.name in ("u", "v") else SVar((t.name[0], targets[t.name[1]]))
    return SOp(t.sym, tuple(_renamed(a, targets) for a in t.args))


TWELVE_TESTS = "p,q,r,s,t,u,v,w,x,y,z,o"


@pytest.mark.parametrize("selector", ALL_SELECTORS + (f"ga:tests={TWELVE_TESTS}",
                                                      f"gc:tests={TWELVE_TESTS}"))
def test_rows_split_and_reify_as_their_values_do(selector):
    # states s0..s10 sort by id string, not by index, as element_sort_key
    # does; at 12 tests, a random value has hundreds of branches
    cfg = parse_selector(selector)
    rng = random.Random(selector)
    for n in (1, 3) if len(cfg.tests) == 12 else (1, 4, 11):
        sys_ = gen.rand_system(rng, cfg, n)
        ranks = {x: r for r, x in enumerate(sorted(sys_.states))}
        order = [ranks[x] for x in sys_.states] + [n]
        targets = [State(x) for x in sys_.states] + [TICK]
        for row in sys_.rows:
            m = cfg.theory.row_value(row, targets)
            assert _renamed(cfg.theory.reify_row(row, order), targets) == reify(m)
            left = {(a, t) for a, t in row_support(row) if rng.random() < 0.5}
            s, t1, t2 = cfg.theory.split_row(row, order, left)
            expected = split(m, {(a, targets[t]) for a, t in left}.__contains__)
            assert (s, _renamed(t1, targets), _renamed(t2, targets)) == expected


# ---------------------------------------------------------------------------
# structural laws


def test_functoriality(cfg, rng):
    f = {f"x{j}": f"y{j % 2}" for j in range(4)}
    g = {"y0": "z", "y1": "w"}
    for _ in range(150):
        m = cfg.theory.rand_value(rng, list(f))
        assert props.check_functoriality(m, f, g) is None


def test_support_naturality(cfg, rng):
    f = {f"x{j}": f"y{j % 2}" for j in range(4)}
    for _ in range(150):
        m = cfg.theory.rand_value(rng, list(f))
        assert props.check_naturality(m, f) is None


def test_support_bounded_by_term_variables(cfg, rng):
    # evaluating any term cannot introduce elements beyond its variables
    names = ["x", "y", "z"]
    env = {n: eta(cfg, n) for n in names}
    for i in range(200):
        t = gen.rand_term(rng, cfg, names, 1 + i % 4)
        assert supp(eval_term(cfg, t, env)) <= term_variables(t)


def _axiom_instances(cfg, rng):
    """Randomly parametrized equations of the configured theory."""
    kind = cfg.kind
    x, y, z = SVar("x"), SVar("y"), SVar("z")
    out = []
    if kind == "sl":
        out += [
            ("unit", SOp(PLUS, (x, SZERO)), x),
            ("idem", SOp(PLUS, (x, x)), x),
            ("comm", SOp(PLUS, (x, y)), SOp(PLUS, (y, x))),
            ("assoc", SOp(PLUS, (x, SOp(PLUS, (y, z)))), SOp(PLUS, (SOp(PLUS, (x, y)), z))),
        ]
    if kind in ("ga", "gc"):
        th = cfg.theory
        bp, cp = th.rand_guard(rng), th.rand_guard(rng)  # their parts
        b, c = th.guard_sym(bp), th.guard_sym(cp)
        negb = th.guard_sym(th.guard_not(bp))
        bandc = th.guard_sym(th.guard_join("&", [bp, cp]))
        out += [
            ("guard-idem", SOp(b, (x, x)), x),
            ("guard-skew", SOp(b, (x, y)), SOp(negb, (y, x))),
            ("guard-assoc", SOp(c, (SOp(b, (x, y)), z)),
             SOp(bandc, (x, SOp(c, (y, z))))),
        ]
    if kind in ("ca", "gc"):
        p, q = rand_prob(rng), rand_prob(rng)
        one = ChoiceSym(Fraction(1))
        out += [
            ("choice-one", SOp(one, (x, y)), x),
            ("choice-idem", SOp(ChoiceSym(p), (x, x)), x),
            ("choice-skew", SOp(ChoiceSym(p), (x, y)),
             SOp(ChoiceSym(1 - p), (y, x))),
        ]
        if p * q < 1:
            r = q * (1 - p) / (1 - p * q)
            out.append((
                "choice-assoc",
                SOp(ChoiceSym(q), (SOp(ChoiceSym(p), (x, y)), z)),
                SOp(ChoiceSym(p * q), (x, SOp(ChoiceSym(r), (y, z)))),
            ))
    if kind == "gc":
        p = rand_prob(rng)
        b = cfg.theory.guard_sym(cfg.theory.rand_guard(rng))
        lhs = SOp(ChoiceSym(p), (x, SOp(b, (y, z))))
        rhs = SOp(b, (SOp(ChoiceSym(p), (x, y)), SOp(ChoiceSym(p), (x, z))))
        out.append(("guard-choice-dist", lhs, rhs))
    if kind == "smod":
        sr = cfg.semiring
        p, q = sr.sample(rng), sr.sample(rng)
        sp, sq = ScaleSym(p), ScaleSym(q)
        out += [
            ("monoid-unit", SOp(OPLUS, (x, SZERO)), x),
            ("monoid-comm", SOp(OPLUS, (x, y)), SOp(OPLUS, (y, x))),
            ("monoid-assoc", SOp(OPLUS, (x, SOp(OPLUS, (y, z)))),
             SOp(OPLUS, (SOp(OPLUS, (x, y)), z))),
            ("scale-zero", SOp(ScaleSym(sr.zero), (x,)), SZERO),
            ("scale-one", SOp(ScaleSym(sr.one), (x,)), x),
            ("scale-mul", SOp(sp, (SOp(sq, (x,)),)),
             SOp(ScaleSym(sr.mul(p, q)), (x,))),
            ("scale-dist-sum", SOp(sp, (SOp(OPLUS, (x, y)),)),
             SOp(OPLUS, (SOp(sp, (x,)), SOp(sp, (y,))))),
            ("scale-add", SOp(ScaleSym(sr.add(p, q)), (x,)),
             SOp(OPLUS, (SOp(sp, (x,)), SOp(sq, (x,))))),
        ]
    return out


def test_theory_axioms_hold_in_normal_forms(cfg, rng):
    universe = ["e0", "e1", "e2"]
    for _ in range(150):
        env = {n: cfg.theory.rand_value(rng, universe) for n in ("x", "y", "z")}
        for name, lhs, rhs in _axiom_instances(cfg, rng):
            assert eval_term(cfg, lhs, env) == eval_term(cfg, rhs, env), name


def test_element_order_is_total_on_mixed_elements():
    items = ["b", ("a", 1), ("a", "x"), None, 3, Fraction(1, 2), ("a",), True]
    keys = [element_sort_key(i) for i in items]
    assert len(set(keys)) == len(keys)
    assert sorted(keys) == sorted(keys, reverse=True)[::-1]


# ---------------------------------------------------------------------------
# guarded values as reduced decision trees


def _left_sets(m):
    elems = sorted(supp(m))
    for r in range(len(elems) + 1):
        for left in itertools.combinations(elems, r):
            yield frozenset(left)


def _check_reify_and_splits(cfg, m):
    # each check also asks for reduced decision trees over the tests
    assert props.check_reify(cfg, m) is None
    for left in _left_sets(m):
        assert props.check_split(cfg, m, left) is None


def test_tree_checks_reject_unreduced_trees(monkeypatch):
    cfg = parse_selector("ga:tests=p,q")
    m = eta(cfg, "x")
    p, q = (guard(cfg, t) for t in "pq")
    bad = {
        "guard +[p] has equal branches": SOp(p, (SVar("x"), SVar("x"))),
        "guard +[p] out of declared order on a path": SOp(q, (SOp(p, (SVar("x"), SVar("x"))), SVar("x"))),
        "guard +[p] holds at the wrong atoms": SOp(GuardSym("p", q.mask),
                                                  (SVar("x"), SVar("x"))),
        "guard +[p | q] is not one test": SOp(guard(cfg, "p | q"),
                            (SVar("x"), SVar("x"))),
    }
    for name, t in bad.items():
        monkeypatch.setattr(props, "reify", lambda m, t=t: t)
        assert props.check_reify(cfg, m) == ("decision-tree", f"reify: {name}"), name
    # a bad tree in any of split's three terms fails the split
    for k in range(3):
        def bad_split(m, in_left, k=k):
            terms = [SVar("u"), SVar("x"), SZERO]
            terms[k] = SOp(p, (terms[k], terms[k]))
            return tuple(terms)

        monkeypatch.setattr(props, "split", bad_split)
        failure = props.check_split(cfg, m, frozenset({"x"}))
        assert failure is not None and failure.prop == "decision-tree", k


def test_ga_reify_and_split_on_every_value_of_three_tests():
    cfg = parse_selector("ga:tests=p,q,r")
    for data in itertools.product((None, "x", "y"), repeat=len(cfg.atoms)):
        _check_reify_and_splits(cfg, cfg.theory.value(data))


def test_reify_and_split_leave_no_cyclic_garbage():
    # a decision tree's memo, nodes and keys are freed by reference counting
    cfg = parse_selector("ga:tests=p,q")
    m = cfg.theory.value(("x", None, "y", "x"))
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert reify(m) != SZERO
        assert split(m, lambda e: e == "x")[1] != SZERO
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_gc_reify_and_split_on_every_value_of_two_tests():
    cfg = parse_selector("gc:tests=p,q")
    dists = [{}, {"x": Fraction(1)}, {"y": Fraction(1, 2)},
             {"x": Fraction(1, 2), "y": Fraction(1, 2)}, {"x": Fraction(1, 3), "y": Fraction(1, 3)}]
    for per_atom in itertools.product(dists, repeat=len(cfg.atoms)):
        _check_reify_and_splits(cfg, cfg.theory.value(per_atom))


@pytest.mark.parametrize("selector", ["ga:tests=", "ga:tests=p", "ga:tests=p,q",
                                      "gc:tests=p", "gc:tests=p,q"])
def test_units_reify_to_their_variable(selector, rng):
    cfg = parse_selector(selector)
    assert reify(eta(cfg, "x")) == SVar("x")
    s, t1, t2 = split(eta(cfg, "x"), lambda e: True)
    assert (t1, t2) == (SVar("x"), SZERO) and "v" not in term_variables(s)
    for _ in range(50):
        _check_reify_and_splits(cfg, cfg.theory.rand_value(rng, ["x", "y", "z"]))


def test_decision_tree_size_follows_the_tests_it_reads():
    # a value that depends on the first test only reifies to one guard,
    # whatever the number of tests
    for n in (1, 4, 8, 12):
        cfg = parse_selector("ga:tests=" + ",".join(f"t{i}" for i in range(n)))
        half = len(cfg.atoms) // 2
        m = cfg.theory.value(["x"] * half + ["y"] * half)
        t = reify(m)
        assert t == SOp(guard(cfg, "t0"), (SVar("y"), SVar("x")))
        s, t1, t2 = split(m, lambda e: e == "x")
        assert (s, t1, t2) == (
            SOp(t.sym, (SVar("v"), SVar("u"))),
            SOp(t.sym, (SZERO, SVar("x"))),
            SOp(t.sym, (SVar("y"), SZERO)))


# ---------------------------------------------------------------------------
# guarded values as atom partitions, against a per-atom reference


def _holds(text, cfg):
    """Whether a guard holds at each atom, in atom order, read from its text
    alone: as the Python expression it spells with not, and, or (which bind
    as !, &, | do), each test named by its bit of the atom."""
    python = text.replace("!", " not ").replace("&", " and ").replace("|", " or ")
    code = compile(f"({python})", "<guard>", "eval")
    return [bool(eval(code, {"__builtins__": {}},
                      {"true": True, "false": False,
                       **{t: bit == "1" for t, bit in zip(cfg.tests, atom)}}))
            for atom in cfg.atoms]


def _guarded_configs():
    for kind in ("ga", "gc"):
        for n in (0, 1, 2, 4, 12):
            yield parse_selector(f"{kind}:tests=" + ",".join(f"t{i}" for i in range(n)))


def _branch_key(cfg, branch):
    return branch if cfg.kind == "ga" else frozenset(branch.items())


def _zero(cfg):
    return None if cfg.kind == "ga" else {}


def _rand_per_atom(rng, cfg, universe):
    """Per-atom branches drawn from a few: either at random per atom, or
    picked by two random guards, so masks are scattered or structured."""
    if cfg.kind == "ga":
        branches = [None] + [rng.choice(universe) for _ in range(3)]
    else:
        branches = [{}] + [{e: Fraction(rng.randint(1, 3), 8) for e in rng.sample(universe, 2)}
                           for _ in range(3)]
    if rng.random() < 0.5:
        return [rng.choice(branches) for _ in cfg.atoms]
    g1, g2 = cfg.theory.rand_guard(rng), cfg.theory.rand_guard(rng)
    return [branches[2 * h1 + h2] for h1, h2 in zip(_holds(g1[0], cfg), _holds(g2[0], cfg))]


def _map_branch(cfg, f, branch):
    if cfg.kind == "ga":
        return None if branch is None else f(branch)
    out: dict = {}
    for e, mass in branch.items():
        k = f(e)
        out[k] = out.get(k, 0) + mass
    return out


def _check_partition_size(cfg, m, per_atom):
    zero = _branch_key(cfg, _zero(cfg))
    live = {_branch_key(cfg, b) for b in per_atom} - {zero}
    assert len(m.data) == len(live)


def test_guarded_partitions_agree_with_per_atom_values(rng):
    pairs = [(a, t) for a in "ab" for t in range(6)]
    block = [0, 0, 1, 1, 2, 2]  # targets 2k and 2k+1 meet
    labels = block + [-1]
    for cfg in _guarded_configs():
        n_atoms = len(cfg.atoms)
        sign = cfg.theory.sign
        for _ in range(4 if len(cfg.tests) == 12 else 30):
            left = _rand_per_atom(rng, cfg, pairs)
            right = _rand_per_atom(rng, cfg, pairs)
            m, other = cfg.theory.value(left), cfg.theory.value(right)
            _check_partition_size(cfg, m, left)
            # units and zero
            unit = ("a", 0) if cfg.kind == "ga" else {("a", 0): Fraction(1)}
            assert eta(cfg, ("a", 0)) == cfg.theory.value([unit] * n_atoms)
            zero = eval_term(cfg, SZERO, {})
            assert zero == cfg.theory.value([_zero(cfg)] * n_atoms)
            assert len(eta(cfg, ("a", 0)).data) == 1 and not zero.data
            # a guard picks its left branch where it holds
            b = cfg.theory.rand_guard(rng)
            env = {"u": m, "v": other}
            got = eval_term(cfg, SOp(cfg.theory.guard_sym(b), (SVar("u"), SVar("v"))), env)
            want = [x if h else y for h, x, y in zip(_holds(b[0], cfg), left, right)]
            assert got == cfg.theory.value(want)
            _check_partition_size(cfg, got, want)
            # convex choice atom by atom
            if cfg.kind == "gc":
                p = rand_prob(rng)
                got = eval_term(cfg, SOp(ChoiceSym(p), (SVar("u"), SVar("v"))), env)
                want = [{e: p * x.get(e, 0) + (1 - p) * y.get(e, 0) for e in {*x, *y}}
                        for x, y in zip(left, right)]
                assert got == cfg.theory.value(want)
                _check_partition_size(cfg, got, [{e: w for e, w in d.items() if w} for d in want])
            # relabelling merges branches that become equal
            f = lambda e: (e[0], block[e[1]])  # noqa: E731
            want = [_map_branch(cfg, f, x) for x in left]
            assert mval_map(f, m) == cfg.theory.value(want)
            _check_partition_size(cfg, mval_map(f, m), want)
            # support
            elems = {e for x in left if x for e in ((x,) if cfg.kind == "ga" else x)}
            assert supp(m) == elems
            # rows stand for their values, and relabel and sign as mval_map does
            (row,) = cfg.theory.flat_rows([m], lambda t: t)
            assert cfg.theory.row_value(row, list(range(6))) == m
            assert cfg.theory.row_value(cfg.theory.relabel_row(row, labels), list(range(3))) == \
                mval_map(f, m)
            # the same value with each target moved within its block, per atom
            moved = [_map_branch(cfg, lambda e: (e[0], e[1] ^ rng.randint(0, 1)), x)
                     for x in left]
            (row2,) = cfg.theory.flat_rows([cfg.theory.value(moved)], lambda t: t)
            (row3,) = cfg.theory.flat_rows([other], lambda t: t)
            assert sign(row, labels) == sign(row2, labels)
            assert (sign(row, labels) == sign(row3, labels)) == \
                (mval_map(f, m) == mval_map(f, other))


def test_guard_masks_agree_with_per_atom_evaluation(rng):
    for cfg in _guarded_configs():
        for _ in range(20):
            b = cfg.theory.rand_guard(rng, depth=3)
            want = sum(1 << i for i, h in enumerate(_holds(b[0], cfg)) if h)
            assert cfg.theory.guard_sym(b).mask == want
            # the text reads back as itself, with the same mask
            back = guard(cfg, b[0])
            assert (back.guard, back.mask) == (b[0], want)
