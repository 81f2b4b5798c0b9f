"""The property suites behind ``starexpr fuzz``.

A suite draws a case from a seeded ``random.Random`` and a budget, checks
it, and renders it as text.  A check returns ``None``, or the `Failure` of
the first property that does not hold.  The tests call the same checks on
cases drawn from their own seeds.
"""

from __future__ import annotations

import json
from collections import namedtuple

from . import gen
from .bisim import brute_bisim, decide_equiv, minimize, refine
from .layering import check_well_layered, search_labelling, syntactic_labelling
from .semantics import System, TICK, export_system, reachable, step
from .solve import canonical_solution, roundtrip, sterm_to_expr
from .syntax import Act, Expr, Seq, Star, compute_U, parse, print_expr, term_text
from .theory import (
    GuardSym, MVal, SVar, TheoryConfig, eta, eval_term, mval_map, reify, split, supp,
    term_variables,
)

Failure = namedtuple("Failure", "prop detail")
# A fuzz run checks count // divisor cases: draw(rng, cfg, budget) -> case,
# check(cfg, case) -> Failure | None, text(case) -> str.
Suite = namedtuple("Suite", "name divisor draw check text")


def check_print_parse(cfg: TheoryConfig, e: Expr) -> Failure | None:
    """Printed text parses back to the same expression."""
    back = parse(print_expr(e), cfg)
    if back != e:
        return Failure("print-parse", f"reparsed to {print_expr(back)}")
    return None


def _ident(cfg: TheoryConfig, m: MVal) -> dict:
    return {e: eta(cfg, e) for e in supp(m)}


def _tree_fault(cfg: TheoryConfig, terms) -> str | None:
    """Why one of the terms is no reduced decision tree over the declared
    tests, or None.  In a reduced tree every guard is ``+[t]`` for one test
    t, with t's atoms as its mask, and its two branches differ; each path
    tests each test at most once, in declared order; and no guard occurs
    below a node of another operator.  Terms without guards pass."""
    tests = cfg.tests
    holds = [sum(1 << k for k, atom in enumerate(cfg.atoms) if atom[i] == "1")
             for i in range(len(tests))]
    stack = [(t, -1) for t in terms]
    while stack:
        t, after = stack.pop()
        if isinstance(t, SVar):
            continue
        if not isinstance(t.sym, GuardSym):
            stack += [(a, len(tests)) for a in t.args]
            continue
        if t.sym.guard not in tests:
            return f"guard {t.sym.text()} is not one test"
        i = tests.index(t.sym.guard)
        if i <= after:
            return f"guard {t.sym.text()} out of declared order on a path"
        if t.sym.mask != holds[i]:
            return f"guard {t.sym.text()} holds at the wrong atoms"
        on, off = t.args
        if on == off:
            return f"guard {t.sym.text()} has equal branches"
        stack += [(on, i), (off, i)]
    return None


def check_reify(cfg: TheoryConfig, m: MVal) -> Failure | None:
    """reify(m) reads only m's support, evaluates back to m, and is a
    reduced decision tree."""
    t = reify(m)
    if not term_variables(t) <= supp(m):
        return Failure("reify-eval", "reify reads elements outside the support")
    if eval_term(cfg, t, _ident(cfg, m)) != m:
        return Failure("reify-eval", "reify does not evaluate back")
    fault = _tree_fault(cfg, [t])
    return None if fault is None else Failure("decision-tree", f"reify: {fault}")


def check_split(cfg: TheoryConfig, m: MVal, left: frozenset) -> Failure | None:
    """split(m) along ``left`` recomposes to m; its term reads only u and v,
    each part only its own side of the support, and all three are reduced
    decision trees."""
    s, t1, t2 = split(m, left.__contains__)
    if not (term_variables(s) <= {"u", "v"} and term_variables(t1) <= left
            and term_variables(t2) <= supp(m) - left):
        return Failure("split-identity", f"parts read the wrong side of {sorted(left)}")
    ident = _ident(cfg, m)
    if eval_term(cfg, s, {"u": eval_term(cfg, t1, ident), "v": eval_term(cfg, t2, ident)}) != m:
        return Failure("split-identity", f"partition {sorted(left)}")
    fault = _tree_fault(cfg, [s, t1, t2])
    return None if fault is None else Failure("decision-tree", f"split {sorted(left)}: {fault}")


def check_naturality(m: MVal, f: dict) -> Failure | None:
    """The support commutes with relabelling through ``f``."""
    if supp(mval_map(f.__getitem__, m)) != frozenset(f[e] for e in supp(m)):
        return Failure("support-naturality", "supp does not commute with map")
    return None


def check_functoriality(m: MVal, f: dict, g: dict) -> Failure | None:
    """Relabelling keeps identities and composition (``f``, then ``g``)."""
    if mval_map(lambda e: e, m) != m:
        return Failure("functoriality", "identity map changed the value")
    if mval_map(lambda e: g[f[e]], m) != mval_map(g.__getitem__, mval_map(f.__getitem__, m)):
        return Failure("functoriality", "map does not preserve composition")
    return None


def _draw_value(rng, cfg: TheoryConfig, budget: int):
    universe = [f"x{j}" for j in range(2 + budget % 4)]
    m = cfg.theory.rand_value(rng, universe)
    left = frozenset(e for e in universe if rng.random() < 0.5)
    return m, left, {e: (e[::-1] if rng.random() < 0.5 else e) for e in universe}


def _value_text(case) -> str:
    """A drawn case in a fixed order, whatever the hash seed."""
    m, left, swap = case
    return (f"{m.cfg.theory.ordered(m.data)!r}; left {sorted(left)!r}; "
            f"relabel {sorted(swap.items())!r}")


def _check_value(cfg: TheoryConfig, case) -> Failure | None:
    m, left, swap = case
    head = {e: e[0] for e in swap.values()}  # "x0" and "x1" meet at "x"
    return (check_reify(cfg, m) or check_split(cfg, m, left) or check_naturality(m, swap)
            or check_functoriality(m, swap, head))


def check_unfolding(cfg: TheoryConfig, e: Expr) -> Failure | None:
    """e is equivalent to its reified one-step behaviour."""
    t = reify(step(cfg, e))
    env = {pair: Act(pair[0]) if pair[1] is TICK else Seq(Act(pair[0]), pair[1])
           for pair in term_variables(t)}
    unfolding = sterm_to_expr(t, env)
    if not decide_equiv(cfg, e, unfolding):
        return Failure("unfolding", f"{print_expr(e)} vs {print_expr(unfolding)}")
    return None


def check_schemas(cfg: TheoryConfig, case) -> Failure | None:
    """Instances of the axiom schemas, and e's unfolding, are equivalent.
    The case is expressions e, f, g, a loop term s, and terms t and teq
    over m and n."""
    e, f, g, s, t, teq = case
    inst = {"m": e, "n": g}
    normal = reify(eval_term(cfg, teq, {"m": eta(cfg, "m"), "n": eta(cfg, "n")}))
    pairs = [
        ("assoc", Seq(e, Seq(f, g)), Seq(Seq(e, f), g)),
        ("unroll", Star(e, s, f), sterm_to_expr(s, {"u": Seq(e, Star(e, s, f)), "v": f})),
        ("star-dist", Seq(Star(e, s, f), g), Star(e, s, Seq(f, g))),
        ("dist-seq", Seq(sterm_to_expr(t, inst), f),
         sterm_to_expr(t, {k: Seq(v, f) for k, v in inst.items()})),
        ("theory-eq", sterm_to_expr(teq, inst), sterm_to_expr(normal, inst)),
    ]
    for name, lhs, rhs in pairs:
        if not decide_equiv(cfg, lhs, rhs):
            return Failure(name, f"{print_expr(lhs)} vs {print_expr(rhs)}")
    return check_unfolding(cfg, e)


def _draw_schemas(rng, cfg: TheoryConfig, budget: int):
    return (gen.rand_expr(rng, cfg, budget), gen.rand_expr(rng, cfg, max(1, budget - 1)),
            gen.rand_expr(rng, cfg, max(1, budget // 2)), gen.rand_loop_term(rng, cfg),
            gen.rand_term(rng, cfg, ("m", "n"), 2), gen.rand_term(rng, cfg, ("m", "n"), 3))


def _schemas_text(case) -> str:
    e, f, g, s, t, teq = case
    return (f"e = {print_expr(e)}; f = {print_expr(f)}; g = {print_expr(g)}; "
            f"s = {term_text(s)}; t = {term_text(t)}; teq = {term_text(teq)}")


def check_oracle(sys: System) -> Failure | None:
    """Refinement finds the brute-force oracle's partition."""
    if refine(sys) != brute_bisim(sys):
        return Failure("refine-vs-brute", "partitions differ")
    return None


def check_layering(cfg: TheoryConfig, e: Expr) -> Failure | None:
    """The syntactic labelling is well layered, and e reaches at most |U(e)|
    states."""
    sys, _ = reachable(cfg, e)
    verdict = check_well_layered(sys, syntactic_labelling(cfg, e, sys))
    if not verdict.ok:
        return Failure("syntactic-labelling", verdict.describe())
    if len(sys.states) > len(compute_U(e)):
        return Failure("reachable-bound", f"{len(sys.states)} states")
    return None


def check_labelling(cfg: TheoryConfig, e: Expr) -> Failure | None:
    """Loop elimination labels e's reachable and minimized systems well
    layered (the solver checks), and both root solutions are equivalent to e."""
    sys, root = reachable(cfg, e)
    msys, h = minimize(sys)
    for s, x in ((sys, root), (msys, h[root])):
        lab = search_labelling(s)
        out = lab and canonical_solution(s, lab)[x]
        if lab is None or not decide_equiv(cfg, out, e):
            return Failure("labelling", "none found" if lab is None else f"got {print_expr(out)}")
    return None


def check_roundtrip(cfg: TheoryConfig, e: Expr) -> Failure | None:
    """The roundtrip of e is equivalent to e."""
    out = roundtrip(cfg, e)
    if not decide_equiv(cfg, out, e):
        return Failure("roundtrip", f"got {print_expr(out)}")
    return None


SUITES = [
    Suite("print-parse", 1, gen.rand_expr, check_print_parse, print_expr),
    Suite("values", 1, _draw_value, _check_value, _value_text),
    Suite("axiom-schemas", 4, _draw_schemas, check_schemas, _schemas_text),
    Suite("refine-vs-brute", 4,
          lambda rng, cfg, budget: gen.rand_system(rng, cfg, rng.randint(1, 5)),
          lambda cfg, sys: check_oracle(sys), lambda sys: json.dumps(export_system(sys))),
    Suite("layering", 2, gen.rand_expr, check_layering, print_expr),
    Suite("roundtrip", 4, gen.rand_expr, check_roundtrip, print_expr),
    Suite("labelling", 2, gen.rand_expr, check_labelling, print_expr),
]
