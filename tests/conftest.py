"""Shared helpers: theory configs, corpora, oracles, small system builders."""

from __future__ import annotations

import importlib.util
import itertools
import random
from collections import deque
from functools import lru_cache
from pathlib import Path

import pytest

from starexpr import gen
from starexpr.bisim import brute_bisim, refine
from starexpr.errors import ParseError
from starexpr.layering import Labelling, check_well_layered
from starexpr.semantics import State, System, TICK
from starexpr.syntax import Act, Seq, Star, TOp, parse
from starexpr.theory import (
    GuardSym, SVar, TheoryConfig, element_sort_key, eta, eval_term, mval_map, parse_selector,
    supp,
)

ALL_SELECTORS = gen.STANDARD_CONFIGS  # sl, ga x2, ca, gc, smod:nat, smod:bool

CURATED = {
    "sl": ["a", "0", "a + b", "(a + b) ; c", "a *{u + v} b", "(a ; b) *{u + v} c",
           "(a + b) *{u + v} c", "(a *{u + v} b) *{u + v} c", "a *{v} b", "a *{u} b",
           "a *{0} b", "(a + a) *{u + v} b"],
    "ca": ["a", "a (+1/2) b", "a *{u (+1/2) v} b", "(a (+1/3) b) ; c",
           "a *{(u (+1/2) v) (+3/4) 0} b"],
    "ga": ["a", "a +[p] b", "a *{u +[p] v} b", "(a +[!p] b) ; c"],
    "gc": ["a", "a +[p] b", "a (+1/2) b", "a *{u (+1/3) (u +[p] v)} b",
           "a *{(u (+1/2) v) +[p] (v (+1/4) 0)} b"],
    "smod": ["a", "a (+) b", "2 . a", "a *{u (+) v} b", "a *{(2 . u) (+) v} b",
             "1 . a (+) 0"],
}


def curated_for(cfg: TheoryConfig):
    texts = CURATED[cfg.kind]
    if cfg.kind in ("ga", "gc") and not cfg.tests:
        texts = [t for t in texts if "[" not in t]
    if cfg.kind == "smod" and cfg.semiring.name == "bool":
        texts = [t for t in texts if "2 ." not in t]
    return [parse(t, cfg) for t in texts]


@lru_cache(maxsize=None)
def corpus(selector: str, count: int = 60, size: int = 8, seed: int = 77):
    cfg = parse_selector(selector)
    return tuple(curated_for(cfg)) + tuple(gen.corpus(cfg, count, size, seed))


def benchmark_inputs():
    """The benchmark's input generator, `perfbench/inputs.py`, loaded
    read-only: its seeded cases are corpora the tests share."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("benchmark_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def nested_loops(d: int, text: bool = False):
    """E_d of the nested loops E_0 = a, E_(k+1) = (a ; E_k ; c) *{u + v} b
    in ``sl``, built from constructors, or as text; 2d+1 states."""
    if text:
        e = "a"
        for _ in range(d):
            e = f"(a ; {e} ; c) *{{u + v}} b"
        return e
    loop = parse("a *{u + v} b", parse_selector("sl")).loop
    e = Act("a")
    for _ in range(d):
        e = Star(Seq(Act("a"), Seq(e, Act("c"))), loop, Act("b"))
    return e


# ---------------------------------------------------------------------------
# a reference exploration: every state an expression, stepped whole


def same_syntax(a, b) -> bool:
    """Whether two expressions or loop terms are equal with their guards
    written alike, so that they print alike.  Equality (``==``) holds
    when guards hold at the same atoms, however they are written."""
    if a is b:
        return True
    kind = type(a)
    if kind is not type(b):
        return False
    if kind is Act or kind is SVar:
        return a == b
    if hash(a) != hash(b):
        return False
    if kind is Seq:
        return same_syntax(a.left, b.left) and same_syntax(a.right, b.right)
    if kind is Star:
        return (same_syntax(a.body, b.body) and same_syntax(a.loop, b.loop)
                and same_syntax(a.exit, b.exit))
    # TOp and SOp: an operator symbol and its arguments
    return (a.sym == b.sym and (type(a.sym) is not GuardSym or a.sym.expr == b.sym.expr)
            and all(map(same_syntax, a.args, b.args)))


def reference_step(cfg: TheoryConfig, e):
    """The step of an expression whose targets are whole expressions:
    sequencing builds a `Seq` over every target of its left operand."""
    def push(cont):
        return lambda p: (p[0], cont if p[1] is TICK else Seq(p[1], cont))

    if isinstance(e, Act):
        return eta(cfg, (e.name, TICK))
    if isinstance(e, TOp):
        return cfg.theory.apply(e.sym, [reference_step(cfg, child) for child in e.args])
    if isinstance(e, Seq):
        return mval_map(push(e.right), reference_step(cfg, e.left))
    return eval_term(cfg, e.loop, {"u": mval_map(push(e), reference_step(cfg, e.body)),
                                   "v": reference_step(cfg, e.exit)})


def reference_reachable(cfg: TheoryConfig, roots):
    """Breadth-first exploration over whole expressions, each state's
    successors in `element_sort_key` order: the system, each state's
    expression, and each root's state id."""
    intern, order, steps = {}, [], []
    for r in roots:
        if r in intern:
            continue
        intern[r] = len(order)
        order.append(r)
        queue = deque([r])
        while queue:
            m = reference_step(cfg, queue.popleft())
            steps.append(m)
            for _, tgt in sorted(supp(m), key=element_sort_key):
                if tgt is not TICK and tgt not in intern:
                    intern[tgt] = len(order)
                    order.append(tgt)
                    queue.append(tgt)
    states = tuple(f"s{i}" for i in range(len(order)))
    rows = cfg.theory.flat_rows(steps, lambda t: -1 if t is TICK else intern[t])
    return System(cfg, states, rows, root="s0"), order, [states[intern[r]] for r in roots]


# ---------------------------------------------------------------------------
# a reference tokenizer: one character at a time


_PUNCT_SINGLE = set(";()]}&|!./")
_IDENT_TAIL = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_")


def reference_tokenize(text: str):
    """(kind, text, character position) of each token, then ("eof", "",
    len(text)); a character that starts no token raises the ParseError
    that `parse` raises for it.  A digit is what int() reads."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(("int", text[i:j], i))
            i = j
            continue
        if "a" <= c <= "z":
            j = i + 1
            while j < n and text[j] in _IDENT_TAIL:
                j += 1
            toks.append(("ident", text[i:j], i))
            i = j
            continue
        if c == "*":
            if i + 1 < n and text[i + 1] == "{":
                toks.append(("punct", "*{", i))
                i += 2
                continue
            raise ParseError("expected '{' after '*'", i)
        if c == "+":
            if i + 1 < n and text[i + 1] == "[":
                toks.append(("punct", "+[", i))
                i += 2
            else:
                toks.append(("punct", "+", i))
                i += 1
            continue
        if c == "(":
            if i + 1 < n and text[i + 1] == "+":
                if i + 2 < n and text[i + 2] == ")":
                    toks.append(("punct", "(+)", i))
                    i += 3
                else:
                    toks.append(("punct", "(+", i))
                    i += 2
            else:
                toks.append(("punct", "(", i))
                i += 1
            continue
        if c in _PUNCT_SINGLE:
            toks.append(("punct", c, i))
            i += 1
            continue
        if "A" <= c <= "Z":
            raise ParseError(f"identifiers are lowercase, got {c!r}", i)
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(("eof", "", n))
    return toks


@pytest.fixture(params=ALL_SELECTORS)
def cfg(request) -> TheoryConfig:
    return parse_selector(request.param)


@pytest.fixture
def sl() -> TheoryConfig:
    return parse_selector("sl")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


def state_values(sys_: System) -> dict:
    """Each state's transition value over (action, State | TICK) pairs, read
    from its row."""
    targets = [State(x) for x in sys_.states] + [TICK]
    return {x: sys_.cfg.theory.row_value(row, targets) for x, row in zip(sys_.states, sys_.rows)}


def value_system(cfg: TheoryConfig, states, beta: dict, root=None) -> System:
    """A system from each state's value over (action, State | TICK) pairs,
    flattened into rows once."""
    index = {x: i for i, x in enumerate(states)}
    rows = cfg.theory.flat_rows([beta[x] for x in states],
                                lambda t: -1 if t is TICK else index[t.sid])
    return System(cfg, states, rows, root=root)


def sl_system(edges, root=None) -> System:
    """Build a nondeterministic system from {state: [(action, 'state' | TICK)]}."""
    cfg = parse_selector("sl")
    beta = {
        x: cfg.theory.value([(a, TICK if t is TICK else State(t)) for a, t in pairs])
        for x, pairs in edges.items()
    }
    return value_system(cfg, tuple(edges), beta, root=root)


# one small sl system and labelling for each violated condition 1-4
ILL_LAYERED = {
    1: ({"x": [("a", "x")]}, set()),
    # the entry from x to y never returns to x; z's entry self-loop keeps
    # the body acyclic
    2: ({"x": [("a", "y"), ("d", TICK)], "y": [("b", "z")], "z": [("c", "z")]},
        {("x", "a", "y"), ("z", "c", "z")}),
    # x and y loop around to each other through p and q
    3: ({"x": [("a", "p")], "y": [("b", "q")], "p": [("c", "x"), ("d", "y")],
         "q": [("e", "x"), ("f", "y")]}, {("x", "a", "p"), ("y", "b", "q")}),
    4: ({"x": [("a", "y")], "y": [("b", "x"), ("t", TICK)]}, {("x", "a", "y")}),
}


# an smod:nat expression whose 5-state minimized system is ill layered under
# the image of its syntactic labelling
ILL_IMAGE = ("a ; 0 *{u (+) v} ((b (+) a) (+) c) (+) ((b *{u (+) v} c (+) b) (+) c) ; "
             "(b ; ((b ; b) *{u (+) v} b (+) 0)) *{u (+) 0} ((b ; b) ; b)")


def ill_layered(condition: int) -> tuple[System, Labelling]:
    edges, entry = ILL_LAYERED[condition]
    return sl_system(edges), Labelling(frozenset(entry))


# bad mass or weight entries a system document must reject
BAD_ENTRIES = [
    ("ca", {"p": "0", "a": "a", "t": "s0"}),
    ("ca", {"p": "-1/2", "a": "a", "t": "s0"}),
    ("ca", {"p": "1/0", "a": "a", "t": "s0"}),
    ("ca", {"p": ["1"], "a": "a", "t": "s0"}),
    ("ca", {"p": None, "a": "a", "t": "s0"}),
    ("ca", {"p": float("inf"), "a": "a", "t": "s0"}),
    ("ca", {"p": "1/2", "a": ["a"], "t": "s0"}),
    ("smod:nat", {"w": "x", "a": "a", "t": "s0"}),
    ("smod:nat", {"w": "1/2", "a": "a", "t": "s0"}),
    ("smod:nat", {"w": ["1"], "a": "a", "t": "s0"}),
    ("smod:rat", {"w": float("inf"), "a": "a", "t": "s0"}),
    ("smod:rat", {"w": "0", "a": "a", "t": "s0"}),
    ("smod:nat", {"w": "1", "a": {"a": 1}, "t": "s0"}),
]


# mass and weight strings at the edge of plain "m" and "m/n": the first five
# are rational numbers, the rest are not
RATIONAL_EDGES = ["007/014", " 1/2", "1.5", "1_0/3", "\u0663/4"]
NOT_RATIONAL_EDGES = ["\u00b2", "1/0", "", "/", "1/"]


def _weighted_value(selector, entries):
    """A value of (number, action) entries into s0; for ``gc`` with one
    test, at atom 1."""
    key = "w" if selector.startswith("smod") else "p"
    value = [{key: raw, "a": a, "t": "s0"} for raw, a in entries]
    return {"0": [], "1": value} if selector.startswith("gc") else value


def weighted_doc(selector, raw):
    """A one-state document whose only entry carries the mass or weight
    ``raw``."""
    return {"theory": selector, "states": ["s0"],
            "beta": {"s0": _weighted_value(selector, [(raw, "a")])}}


def repeated_doc(selector, raw):
    """`weighted_doc`'s ``raw`` twice: in s0 after an entry of the number
    "1", and alone in s1.  A load parses each number string once, so this
    document must load, or fail, as `weighted_doc`'s does."""
    return {"theory": selector, "states": ["s0", "s1"],
            "beta": {"s0": _weighted_value(selector, [("1", "a"), (raw, "b")]),
                     "s1": _weighted_value(selector, [(raw, "a")])}}


def bad_entry_doc(selector, entry):
    """A document whose only bad part is ``entry``, which follows good
    entries."""
    good = {"p": "1/4", "a": "b", "t": "s0"} if selector == "ca" else \
        {"w": "1", "a": "b", "t": "s0"}
    return {"theory": selector, "states": ["s0", "s1"],
            "beta": {"s0": [good], "s1": [good, entry]}}


def sl_chain_doc(n):
    """A labelled document of the chain s0 -a-> s1 -a-> ... -a-> ✓, with
    no entry transitions."""
    states = [f"s{i}" for i in range(n)]
    beta = {x: [["a", states[i + 1] if i + 1 < n else "✓"]] for i, x in enumerate(states)}
    return {"theory": "sl", "states": states, "root": "s0", "beta": beta,
            "labelling": {"entry": []}}


def loop_chain_doc(units, selector="sl"):
    """A labelled document of ``(a ; c) *{u + v} b ; ...`` with ``units``
    loops in sequence (``u (+1/2) v`` for ``ca``): state s(2k) enters the
    loop on a to s(2k+1), which returns on c, and leaves on b."""
    states = [f"s{i}" for i in range(2 * units)]
    beta, entry = {}, []
    for k in range(units):
        x, y = states[2 * k], states[2 * k + 1]
        nxt = states[2 * k + 2] if k + 1 < units else "✓"
        if selector == "sl":
            beta[x], beta[y] = [["a", y], ["b", nxt]], [["c", x]]
        else:
            beta[x] = [{"p": "1/2", "a": "a", "t": y}, {"p": "1/2", "a": "b", "t": nxt}]
            beta[y] = [{"p": "1", "a": "c", "t": x}]
        entry.append([x, "a", y])
    return {"theory": selector, "states": states, "root": "s0", "beta": beta,
            "labelling": {"entry": entry}}


def disjoint_union(sys1: System, sys2: System) -> tuple[System, dict, dict]:
    """Two systems over the same theory side by side, states renamed apart:
    the union and the two renaming maps."""
    assert sys1.cfg == sys2.cfg
    left = {x: f"l:{x}" for x in sys1.states}
    right = {x: f"r:{x}" for x in sys2.states}
    n = len(sys1.states)
    # targets sit at index 1 of every row layout; tick stays -1
    shifted = [(row[0], tuple([t + n if t >= 0 else t for t in row[1]]), *row[2:])
               for row in sys2.rows]
    states = tuple(left.values()) + tuple(right.values())
    return System(sys1.cfg, states, sys1.rows + shifted), left, right


def bisimilar(sys1, x1, sys2, x2) -> bool:
    """Whether two states of two systems are equivalent, by refining their
    union."""
    union, left, right = disjoint_union(sys1, sys2)
    part = refine(union)
    return part[left[x1]] == part[right[x2]]


def brute_bisimilar(sys1, x1, sys2, x2) -> bool:
    """Independent equivalence oracle: enumerate partitions on the union."""
    union, left, right = disjoint_union(sys1, sys2)
    part = brute_bisim(union)
    return part[left[x1]] == part[right[x2]]


def all_valid_labellings(sys: System, limit: int | None = None):
    """Every well-layered labelling at pair granularity, by ascending entry
    pair count; independent of the search implementation."""
    pairs = sorted({(x, y) for x, _, y in sys.state_transitions()})
    triples = sys.state_transitions()
    found = []
    for k in range(len(pairs) + 1):
        for chosen in itertools.combinations(pairs, k):
            entry = frozenset(t for t in triples if (t[0], t[2]) in set(chosen))
            lab = Labelling(entry)
            if check_well_layered(sys, lab).ok:
                found.append(lab)
                if limit is not None and len(found) >= limit:
                    return found
    return found
