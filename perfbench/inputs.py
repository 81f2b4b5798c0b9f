"""Seeded inputs for the three benchmark workloads, with their known answers.

This module does not import ``starexpr.gen``: the workloads must not change
when the library's own sampler does.  Expressions are produced directly as
text in the README grammar, with the same minimal parenthesization that
``print_expr`` uses, so the program under test receives exactly what a user
would type.  System documents are produced as JSON-ready dicts.

Every known answer comes from how the input is built, never from ``refine``:

* roundtrip-corpus: the verification verdict is "bisimilar" by the paper's
  completeness theorem.
* equiv-deep: a pair related by one axiom instance is equivalent; a pair
  that differs by a fresh action at the end of the chain is not.
* minimize-wide: each document is copies of small base systems; groups of
  copies use disjoint action names and every base state has a transition,
  so the quotient follows from ``brute_bisim`` on the bases alone.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

# The seven selectors of the library's standard corpus.
ROUNDTRIP_SELECTORS = (
    "sl", "ga:tests=p", "ga:tests=p,q", "ca", "gc:tests=p", "smod:nat", "smod:bool",
)
ROUNDTRIP_PER_THEORY = 300
ROUNDTRIP_MAX_SIZE = 16

EQUIV_SELECTORS = ("sl", "ga:tests=p,q,r,s", "ca", "smod:nat")
# Sequence depths n, 2n, 4n: the union of a pair has about 100 to 400 states.
# A loop unit a *{s} b counts as two.
EQUIV_DEPTHS = (50, 100, 200)
EQUIV_RULES = ("assoc", "star-dist", "unroll")
# Deep-but-narrow pairs that crash the parser today (ROADMAP item 4).
PROBE_DEPTHS = (300, 600, 1000)

MINIMIZE_SELECTORS = (
    "sl", "ga:tests=p,q,r,s", "ca", "gc:tests=p", "smod:nat", "smod:rat",
)
MINIMIZE_SIZES = (1000, 4000)
MINIMIZE_BASES = 6
MINIMIZE_BASE_STATES = 5

# Precedence levels of the expression grammar, loosest first.
_BRANCH, _SCALE, _SEQ, _STAR, _ATOM = range(5)
_ACTIONS = ("a", "b", "c")
_PROBS = ("1/2", "1/3", "2/3", "1/4", "3/4", "0", "1", "2/5")


def _wrap(node, minlevel):
    text, level = node
    return f"({text})" if level < minlevel else text


def _kind(selector):
    return selector.partition(":")[0]


def _tests(selector):
    _, _, rest = selector.partition(":")
    return rest[len("tests="):].split(",") if rest.startswith("tests=") else []


# ---------------------------------------------------------------------------
# expressions as text


class _ExprText:
    """Random expression text for one theory selector."""

    def __init__(self, rng: random.Random, selector: str):
        self.rng = rng
        self.kind = _kind(selector)
        self.tests = _tests(selector)
        self.semiring = selector.partition(":")[2] if self.kind == "smod" else ""

    def guard(self, depth=2):
        """A boolean guard as (text, level); levels: 0 or, 1 and, 2 literal."""
        rng = self.rng
        roll = rng.random()
        if depth == 0 or roll < 0.5:
            if self.tests and roll < 0.8:
                return rng.choice(self.tests), 2
            return rng.choice(("true", "false")), 2
        left, right = self.guard(depth - 1), self.guard(depth - 1)
        op = rng.randrange(3)
        if op == 0:
            return "!" + _wrap(left, 2), 2
        if op == 1:
            return f"{_wrap(left, 1)} & {_wrap(right, 2)}", 1
        return f"{_wrap(left, 0)} | {_wrap(right, 1)}", 0

    def branch_op(self):
        rng = self.rng
        if self.kind == "sl":
            return "+"
        if self.kind == "smod":
            return "(+)"
        if self.kind == "ca" or (self.kind == "gc" and rng.random() < 0.5):
            return f"(+{rng.choice(_PROBS)})"
        return f"+[{_wrap(self.guard(), 0)}]"

    def weight(self):
        if self.semiring == "bool":
            return self.rng.choice(("0", "1"))
        return str(self.rng.randint(0, 3))

    def term(self, size):
        """A loop term over u and v as (text, level)."""
        rng = self.rng
        if size <= 0 or rng.random() < 0.15:
            if rng.random() < 0.85:
                return rng.choice(("u", "v")), _ATOM
            return "0", _ATOM
        if self.kind == "smod" and rng.random() < 0.3:
            return f"{self.weight()} . {_wrap(self.term(size - 1), _SCALE)}", _SCALE
        lsize = rng.randint(0, size - 1)
        left, right = self.term(lsize), self.term(size - 1 - lsize)
        return f"{_wrap(left, _SCALE)} {self.branch_op()} {_wrap(right, _SCALE)}", _BRANCH

    def loop(self):
        rng = self.rng
        roll = rng.random()
        if roll < 0.6:
            return f"u {self.branch_op()} v"
        if roll < 0.7:
            return f"v {self.branch_op()} u"
        if roll < 0.8:
            return _wrap(self.term(2), _BRANCH)
        if roll < 0.9:
            return f"u {self.branch_op()} 0"
        return f"v {self.branch_op()} 0"

    def expr(self, size):
        """An expression with at most `size` constructors, as (text, level)."""
        rng = self.rng
        if size <= 1:
            if rng.random() < 0.1:
                return "0", _ATOM
            return rng.choice(_ACTIONS), _ATOM
        roll = rng.random()
        if self.kind == "smod" and roll < 0.1:
            return f"{self.weight()} . {_wrap(self.expr(size - 1), _SCALE)}", _SCALE
        lsize = rng.randint(1, size - 1)
        left, right = self.expr(lsize), self.expr(size - 1 - lsize)
        if roll < 0.35:
            return (f"{_wrap(left, _SCALE)} {self.branch_op()} {_wrap(right, _SCALE)}",
                    _BRANCH)
        if roll < 0.7:
            return f"{_wrap(left, _STAR)} ; {_wrap(right, _SEQ)}", _SEQ
        return f"{_wrap(left, _STAR)} *{{{self.loop()}}} {_wrap(right, _ATOM)}", _STAR


def roundtrip_cases(seed: int) -> list[dict]:
    """300 expressions per standard selector, sizes sweeping 1..16,
    in a seeded order that mixes theories and sizes."""
    cases = []
    for selector in ROUNDTRIP_SELECTORS:
        gen = _ExprText(random.Random(f"{seed}:roundtrip:{selector}"), selector)
        for i in range(ROUNDTRIP_PER_THEORY):
            size = 1 + (i * ROUNDTRIP_MAX_SIZE) // ROUNDTRIP_PER_THEORY
            cases.append({"theory": selector, "expr": gen.expr(size)[0], "size": size})
    random.Random(f"{seed}:roundtrip:order").shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# deep equivalence pairs


def _loop_text(kind):
    return {"sl": "u + v", "ga": "u +[p & !q] v", "ca": "u (+1/2) v",
            "smod": "u (+) v"}[kind]


def _seq(units):
    """Right-nested sequence text of already atomic-or-star units."""
    return " ; ".join(units)


def _deep_pair(rng: random.Random, selector: str, depth: int, shape: str,
               rule: str | None):
    """One (left, right) text pair of sequenced units.

    `shape` is "chain" (the single action a, repeated `depth` times) or
    "loops" (the loop a *{s} b, repeated `depth // 2` times).  With a rule,
    the right side rewrites the left by one axiom instance at a seeded
    position; without one, the right side appends the fresh action z, which
    makes the pair inequivalent.
    """
    kind = _kind(selector)
    loop = _loop_text(kind)
    star = f"a *{{{loop}}} b"
    units = ["a"] * depth if shape == "chain" else [star] * (depth // 2)
    left = _seq(units)
    if rule is None:
        return left, _seq(units + ["z"])
    k = rng.randint(1, len(units) - 1)
    head, tail = units[:k], units[k:]
    if rule == "assoc":
        # (x1 ; ... ; xk) ; (rest): the same sequence, regrouped.
        return left, _seq([f"({_seq(head)})", _seq(tail)])
    # The remaining rules rewrite one loop inserted at position k.
    left = _seq(head + [star] + tail)
    if rule == "star-dist":
        # (a *{s} b) ; g  =  a *{s} (b ; g)
        return left, _seq(head + [f"a *{{{loop}}} ({_seq(['b'] + tail)})"])
    # a *{s} b  =  s[u := a ; (a *{s} b), v := b]
    unrolled = loop.replace("v", "b", 1).replace("u", f"(a ; ({star}))", 1)
    return left, _seq(head + [f"({unrolled})"] + tail)


def equiv_cases(seed: int) -> list[dict]:
    """One deep pair per theory x depth x verdict, in seeded order.  Per
    theory, each axiom rule and each shape occurs at some depth, so the mix
    is the same for every seed; only the rewrite positions and the order
    depend on it."""
    rng = random.Random(f"{seed}:equiv")
    cases = []
    for i, selector in enumerate(EQUIV_SELECTORS):
        for j, depth in enumerate(EQUIV_DEPTHS):
            for expected in (True, False):
                shape = ("chain", "loops")[(i + j + expected) % 2]
                rule = EQUIV_RULES[(i + j) % 3] if expected else None
                left, right = _deep_pair(rng, selector, depth, shape, rule)
                cases.append({"theory": selector, "left": left, "right": right,
                              "expected": expected, "depth": depth,
                              "shape": shape, "rule": rule or "fresh-action"})
    rng.shuffle(cases)
    return cases


def depth_probe_cases() -> list[dict]:
    """Deep-but-narrow equivalent pairs: nested parentheses and nested
    branching.  They are not timed; they measure the depth defect."""
    cases = []
    for depth in PROBE_DEPTHS:
        cases.append({"theory": "sl", "left": "(" * depth + "a" + ")" * depth,
                      "right": "a", "expected": True, "depth": depth,
                      "shape": "parens", "rule": "parens"})
        nested = "a"
        for _ in range(depth):
            nested = f"a + ({nested})"
        cases.append({"theory": "sl", "left": nested, "right": "a", "expected": True,
                      "depth": depth, "shape": "branch", "rule": "idempotence"})
    return cases


# ---------------------------------------------------------------------------
# wide system documents


def _atoms(selector):
    n = len(_tests(selector))
    return [format(i, f"0{n}b") if n else "" for i in range(2 ** n)]


def _dist(rng, pairs):
    """A subprobability distribution over two of the pairs, as doc entries."""
    denom = rng.choice((3, 4, 6, 8))
    first = rng.randint(1, denom - 1)
    masses = (first, rng.randint(1, denom - first))
    return [{"p": str(Fraction(m, denom)), "a": a, "t": t}
            for m, (a, t) in zip(masses, rng.sample(pairs, 2))]


def _base_value(rng, selector, actions, targets):
    """A random transition value for one base state.  The shape is fixed
    (two pairs per branch, 60 % of guarded atoms live) so that document
    cost depends little on the seed; only the pairs and numbers vary."""
    kind = _kind(selector)
    pairs = [(a, t) for a in actions for t in targets]
    if kind == "sl":
        return [[a, t] for a, t in rng.sample(pairs, 2)]
    if kind == "ga":
        atoms = _atoms(selector)
        live = set(rng.sample(atoms, (len(atoms) * 3 + 4) // 5))
        return {atom: (list(rng.choice(pairs)) if atom in live else None)
                for atom in atoms}
    if kind == "ca":
        return _dist(rng, pairs)
    if kind == "gc":
        return {atom: _dist(rng, pairs) for atom in _atoms(selector)}
    chosen = rng.sample(pairs, 2)
    if selector == "smod:nat":
        return [{"w": str(rng.randint(1, 3)), "a": a, "t": t} for a, t in chosen]
    return [{"w": str(Fraction(rng.randint(1, 6), rng.randint(1, 4))), "a": a, "t": t}
            for a, t in chosen]


def _base_system(rng, selector):
    """A base system of five states over actions a, b, c, targets s0..s4
    and the tick.  State s3 copies an earlier state's value, so every
    quotient is non-trivial."""
    states = [f"s{i}" for i in range(MINIMIZE_BASE_STATES)]
    beta = {}
    for i, x in enumerate(states):
        if i == 3:
            beta[x] = beta[states[rng.randrange(i)]]
        else:
            beta[x] = _base_value(rng, selector, _ACTIONS, states + ["✓"])
    return {"theory": selector, "states": states, "root": "s0", "beta": beta}


def _rename(value, actions, states):
    """A copy of a base doc value with actions and states renamed."""
    if value is None:
        return None
    if isinstance(value, dict):
        if "a" in value:  # a weighted entry {"p" or "w", "a", "t"}
            return dict(value, a=actions[value["a"]], t=states.get(value["t"], value["t"]))
        return {atom: _rename(v, actions, states) for atom, v in value.items()}
    if value and isinstance(value[0], str):  # one [action, target] pair
        return [actions[value[0]], states.get(value[1], value[1])]
    return [_rename(item, actions, states) for item in value]


def minimize_docs(seed: int, base_partition) -> list[dict]:
    """Documents of 1000 and 4000 states per selector, each in a few-block
    form (one action namespace per base, so all copies of a base collapse)
    and a many-block form (every copy in its own namespace).

    `base_partition(doc)` returns the coarsest bisimulation of a small base
    document as a state -> block-id map; the benchmark passes the library's
    brute-force oracle.  Each entry carries the document's expected
    partition as a list of block ids, one per state in document order.
    """
    out = []
    for selector in MINIMIZE_SELECTORS:
        rng = random.Random(f"{seed}:minimize:{selector}")
        bases = [_base_system(rng, selector) for _ in range(MINIMIZE_BASES)]
        parts = [base_partition(b) for b in bases]
        for n_states in MINIMIZE_SIZES:
            for form in ("few-block", "many-block"):
                out.append(_assemble(selector, bases, parts, n_states, form))
    return out


def _assemble(selector, bases, parts, n_states, form):
    """Whole copies of the bases until the document has at least n_states."""
    states, beta, expected = [], {}, []
    block_of = {}
    copy = 0
    while len(states) < n_states:
        bi = copy % len(bases)
        group = copy if form == "many-block" else bi
        actions = {a: f"{a}{group}" for a in _ACTIONS}
        base = bases[bi]
        names = {x: f"s{len(states) + j}" for j, x in enumerate(base["states"])}
        for x in base["states"]:
            states.append(names[x])
            beta[names[x]] = _rename(base["beta"][x], actions, names)
            expected.append(block_of.setdefault((group, bi, parts[bi][x]), len(block_of)))
        copy += 1
    doc = {"theory": selector, "states": states, "root": states[0], "beta": beta}
    return {"theory": selector, "form": form, "states": len(states),
            "doc": doc, "expected": expected}


# ---------------------------------------------------------------------------


def digest(obj) -> str:
    """SHA-256 of the canonical JSON form of a workload's inputs."""
    text = json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
