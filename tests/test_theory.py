"""Free-algebra values: units, evaluation, support, reification, splitting."""

from fractions import Fraction

import pytest

from starexpr import gen
from starexpr.errors import TheoryMismatchError, UnboundVariableError
from starexpr.theory import (
    BAnd, BNot, BTest, ChoiceSym, OPLUS, PLUS, SEMIRINGS, SOp, SVar,
    SZERO, ScaleSym, atoms_expr, bool_text, element_sort_key, eta, eval_term, guard_sym,
    mval_ca, mval_ga, mval_sl, mval_smod, mval_map, parse_selector,
    reify, split, supp, term_variables,
)


def ident_env(cfg, m):
    return {e: eta(cfg, e) for e in supp(m)}


# ---------------------------------------------------------------------------
# configuration


def test_selector_round_trip(cfg):
    assert parse_selector(cfg.selector()) == cfg


def test_atoms_enumerate_all_assignments():
    cfg = parse_selector("ga:tests=p,q")
    assert cfg.atoms == ("00", "01", "10", "11")
    assert parse_selector("ga:tests=").atoms == ("",)


def test_bad_selectors_rejected():
    for text in ["xyz", "sl:tests=p", "smod", "smod:float", "ca:tests=p"]:
        with pytest.raises(ValueError):
            parse_selector(text)


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
    assert eta(sl, "x") == mval_sl(sl, ["x"])
    ca = parse_selector("ca")
    assert eta(ca, "x") == mval_ca(ca, {"x": Fraction(1)})
    ga = parse_selector("ga:tests=t")
    assert eta(ga, "x") == mval_ga(ga, ("x", "x"))


def test_eval_sl_union():
    sl = parse_selector("sl")
    t = SOp(PLUS, (SVar("u"), SVar("v")))
    got = eval_term(sl, t, {"u": mval_sl(sl, ["x"]), "v": mval_sl(sl, ["y"])})
    assert got == mval_sl(sl, ["x", "y"])


def test_eval_ca_convex_combination():
    ca = parse_selector("ca")
    t = SOp(ChoiceSym(Fraction(1, 2)), (SVar("u"), SVar("v")))
    got = eval_term(ca, t, {"u": eta(ca, "x"), "v": eta(ca, "y")})
    assert got == mval_ca(ca, {"x": Fraction(1, 2), "y": Fraction(1, 2)})


def test_eval_ga_guard_selects_by_atom():
    # oracle: the if-then-else clause applied at each atom by hand;
    # with tests=(t,) the atoms are "0" (t fails) and "1" (t holds)
    ga = parse_selector("ga:tests=t")
    t = SOp(guard_sym(ga, BTest("t")), (SVar("u"), SVar("v")))
    got = eval_term(ga, t, {"u": eta(ga, "x"), "v": eta(ga, "y")})
    assert got == mval_ga(ga, ("y", "x"))


def test_eval_smod_weighted_sum():
    sm = parse_selector("smod:nat")
    t = SOp(OPLUS, (SOp(ScaleSym(2), (SVar("u"),)), SVar("v")))
    got = eval_term(sm, t, {"u": eta(sm, "x"), "v": eta(sm, "x")})
    assert got == mval_smod(sm, {"x": 3})


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
    lhs = guard_sym(ga, BTest("p"))
    rhs = guard_sym(ga, BNot(BNot(BTest("p"))))
    assert lhs == rhs and hash(lhs) == hash(rhs)
    assert lhs != guard_sym(ga, BAnd(BTest("p"), BTest("q")))


def test_atoms_expr_reads_an_iterator_once():
    ga = parse_selector("ga:tests=p,q")
    assert bool_text(atoms_expr(ga, (a for a in ["01", "10"]))) == "!p & q | p & !q"
    assert bool_text(atoms_expr(ga, [])) == "false"


# ---------------------------------------------------------------------------
# map and support examples


def test_map_examples():
    sl = parse_selector("sl")
    merged = mval_map(lambda e: "z", mval_sl(sl, ["x", "y"]))
    assert merged == mval_sl(sl, ["z"])
    ca = parse_selector("ca")
    m = mval_ca(ca, {"x": Fraction(1, 2), "y": Fraction(1, 4)})
    assert mval_map(lambda e: "z", m) == mval_ca(ca, {"z": Fraction(3, 4)})
    sm = parse_selector("smod:nat")
    m = mval_smod(sm, {"x": 2, "y": 3})
    assert mval_map(lambda e: "z", m) == mval_smod(sm, {"z": 5})


def test_supp_examples():
    ca = parse_selector("ca")
    assert supp(mval_ca(ca, {"x": Fraction(1, 2), "y": Fraction(1, 4)})) == {"x", "y"}
    ga = parse_selector("ga:tests=t")
    assert supp(mval_ga(ga, ("x", None))) == {"x"}


def test_supp_of_unit(cfg):
    assert supp(eta(cfg, "x")) == {"x"}


# ---------------------------------------------------------------------------
# reify examples (expected values computed by evaluating the stated builders)


def test_reify_sl_is_ordered_sum():
    sl = parse_selector("sl")
    t = reify(mval_sl(sl, ["y", "x"]))
    assert t == SOp(PLUS, (SVar("x"), SVar("y")))
    assert reify(mval_sl(sl, [])) == SZERO


def test_reify_ca_conditional_chain():
    ca = parse_selector("ca")
    m = mval_ca(ca, {"x": Fraction(1, 2), "y": Fraction(1, 4)})
    t = reify(m)
    inner = SOp(ChoiceSym(Fraction(2, 3)), (SVar("x"), SVar("y")))
    assert t == SOp(ChoiceSym(Fraction(3, 4)), (inner, SZERO))
    assert eval_term(ca, t, ident_env(ca, m)) == m


def test_reify_round_trip_random(cfg, rng):
    for i in range(300):
        universe = [f"x{j}" for j in range(1 + i % 4)]
        m = gen.rand_mval(rng, cfg, universe)
        assert term_variables(reify(m)) <= supp(m)
        assert eval_term(cfg, reify(m), ident_env(cfg, m)) == m


# ---------------------------------------------------------------------------
# splitting


def test_split_sl_example():
    sl = parse_selector("sl")
    m = mval_sl(sl, ["ax", "bt"])
    s, t1, t2 = split(m, lambda e: e == "ax")
    assert s == SOp(PLUS, (SVar("u"), SVar("v")))
    assert t1 == SVar("ax") and t2 == SVar("bt")
    s, t1, t2 = split(mval_sl(sl, ["bt"]), lambda e: False)
    assert t1 == SZERO and t2 == SVar("bt")


def test_split_ca_example():
    ca = parse_selector("ca")
    m = mval_ca(ca, {"ax": Fraction(1, 2), "by": Fraction(1, 4)})
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
    from starexpr.theory import BTrue
    t = SOp(guard_sym(ga0, BTrue()), (SVar("u"), SVar("v")))
    got = eval_term(ga0, t, {"u": eta(ga0, "x"), "v": eta(ga0, "y")})
    assert got == eta(ga0, "x")
    m = mval_ga(ga0, ("y",))
    assert eval_term(ga0, reify(m), {"y": eta(ga0, "y")}) == m


def test_split_identity_two_test_guarded_convex_and_rationals(rng):
    # configurations beyond the standard fixture list
    for sel in ("gc:tests=p,q", "smod:rat", "ga:tests="):
        other = parse_selector(sel)
        for i in range(150):
            universe = [f"x{j}" for j in range(1 + i % 4)]
            m = gen.rand_mval(rng, other, universe)
            left = frozenset(e for e in universe if rng.random() < 0.5)
            s, t1, t2 = split(m, lambda e: e in left)
            env = ident_env(other, m)
            got = eval_term(other, s, {"u": eval_term(other, t1, env),
                                       "v": eval_term(other, t2, env)})
            assert got == m
            assert eval_term(other, reify(m), env) == m


def test_split_identity_random(cfg, rng):
    for i in range(400):
        universe = [f"x{j}" for j in range(1 + i % 5)]
        m = gen.rand_mval(rng, cfg, universe)
        left = frozenset(e for e in universe if rng.random() < 0.5)
        s, t1, t2 = split(m, lambda e: e in left)
        assert term_variables(s) <= {"u", "v"}
        assert term_variables(t1) <= left
        assert term_variables(t2) <= supp(m) - left
        env = ident_env(cfg, m)
        got = eval_term(cfg, s, {"u": eval_term(cfg, t1, env),
                                 "v": eval_term(cfg, t2, env)})
        assert got == m


# ---------------------------------------------------------------------------
# structural laws


def test_functoriality(cfg, rng):
    f = {f"x{j}": f"y{j % 2}" for j in range(4)}
    g = {"y0": "z", "y1": "w"}
    for _ in range(150):
        m = gen.rand_mval(rng, cfg, list(f))
        assert mval_map(lambda e: e, m) == m
        assert mval_map(lambda e: g[f[e]], m) == \
            mval_map(lambda e: g[e], mval_map(lambda e: f[e], m))


def test_support_naturality(cfg, rng):
    f = {f"x{j}": f"y{j % 2}" for j in range(4)}
    for _ in range(150):
        m = gen.rand_mval(rng, cfg, list(f))
        assert supp(mval_map(lambda e: f[e], m)) == {f[e] for e in supp(m)}


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
        b = guard_sym(cfg, gen.rand_bool_expr(rng, cfg))
        c = guard_sym(cfg, gen.rand_bool_expr(rng, cfg))
        negb = guard_sym(cfg, BNot(b.expr))
        bandc = guard_sym(cfg, BAnd(b.expr, c.expr))
        out += [
            ("guard-idem", SOp(b, (x, x)), x),
            ("guard-skew", SOp(b, (x, y)), SOp(negb, (y, x))),
            ("guard-assoc", SOp(c, (SOp(b, (x, y)), z)),
             SOp(bandc, (x, SOp(c, (y, z))))),
        ]
    if kind in ("ca", "gc"):
        p, q = gen.rand_prob(rng), gen.rand_prob(rng)
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
        p = gen.rand_prob(rng)
        b = guard_sym(cfg, gen.rand_bool_expr(rng, cfg))
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
        env = {n: gen.rand_mval(rng, cfg, universe) for n in ("x", "y", "z")}
        for name, lhs, rhs in _axiom_instances(cfg, rng):
            assert eval_term(cfg, lhs, env) == eval_term(cfg, rhs, env), name


def test_element_order_is_total_on_mixed_elements():
    items = ["b", ("a", 1), ("a", "x"), None, 3, Fraction(1, 2), ("a",), True]
    keys = [element_sort_key(i) for i in items]
    assert len(set(keys)) == len(keys)
    assert sorted(keys) == sorted(keys, reverse=True)[::-1]
