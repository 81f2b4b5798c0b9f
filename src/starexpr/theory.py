"""Branching theories and their free-algebra values.

A branching theory fixes the signature that glues process branches together:
nondeterministic choice (``sl``), boolean-guarded choice over a finite test
set (``ga``), convex/probabilistic choice (``ca``), the guarded-convex mix of
the two (``gc``), or weighted sums over a semiring (``smod``).  Terms over a
signature evaluate into canonical normal-form values (`MVal`); two terms are
equal in the theory exactly when their normal forms coincide, which is what
every equivalence check in this package ultimately bottoms out in.

All arithmetic is exact: probabilities and rational weights are
`fractions.Fraction`, never floats.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, Iterable, Mapping

from .errors import TheoryMismatchError, UnboundVariableError

Element = Any  # any hashable value; systems use (action, target) pairs

KINDS = ("sl", "ga", "ca", "gc", "smod")

_IDENT = re.compile(r"[a-z][a-z0-9_]*\Z")


# ---------------------------------------------------------------------------
# semirings (smod only)


class Semiring:
    """Operation table for a semiring of transition weights.

    The three built-in tables live in `SEMIRINGS`; new ones can be added with
    `register_semiring` as long as the operations satisfy the semiring laws.
    """

    def __init__(self, name, zero, one, add, mul, parse, fmt, contains, sample):
        self.name = name
        self.zero = zero
        self.one = one
        self.add = add
        self.mul = mul
        self.parse = parse
        self.format = fmt
        self.contains = contains
        self.sample = sample

    def __repr__(self):
        return f"Semiring({self.name})"

    def __eq__(self, other):
        return isinstance(other, Semiring) and other.name == self.name

    def __hash__(self):
        return hash(("semiring", self.name))


def _parse_nat(text: str) -> int:
    if not re.fullmatch(r"\d+", text):
        raise ValueError(f"not a natural number: {text!r}")
    return int(text)


def _parse_bool_weight(text: str) -> bool:
    if text == "0":
        return False
    if text == "1":
        return True
    raise ValueError(f"boolean weight must be 0 or 1, got {text!r}")


def _parse_nonneg_rational(text: str) -> Fraction:
    value = Fraction(text)
    if value < 0:
        raise ValueError(f"negative weight: {text!r}")
    return value


SEMIRINGS: dict[str, Semiring] = {}


def register_semiring(semiring: Semiring) -> Semiring:
    SEMIRINGS[semiring.name] = semiring
    return semiring


register_semiring(Semiring(
    "nat", 0, 1,
    add=lambda a, b: a + b,
    mul=lambda a, b: a * b,
    parse=_parse_nat,
    fmt=str,
    contains=lambda x: type(x) is int and x >= 0,
    sample=lambda rng: rng.randint(0, 3),
))

register_semiring(Semiring(
    "bool", False, True,
    add=lambda a, b: a or b,
    mul=lambda a, b: a and b,
    parse=_parse_bool_weight,
    fmt=lambda x: "1" if x else "0",
    contains=lambda x: type(x) is bool,
    sample=lambda rng: rng.random() < 0.5,
))

register_semiring(Semiring(
    "rat", Fraction(0), Fraction(1),
    add=lambda a, b: a + b,
    mul=lambda a, b: a * b,
    parse=_parse_nonneg_rational,
    fmt=str,
    contains=lambda x: isinstance(x, Fraction) and x >= 0,
    sample=lambda rng: Fraction(rng.randint(0, 6), rng.randint(1, 4)),
))


# ---------------------------------------------------------------------------
# theory configuration


@dataclass(frozen=True)
class TheoryConfig:
    """A branching theory instance: kind plus its parameters.

    ``tests`` is the ordered test set for ``ga``/``gc``; atoms are all
    2^len(tests) truth assignments, encoded as bitstrings in test order
    ("10" means the first test holds and the second fails), enumerated in
    binary counting order.
    """

    kind: str
    tests: tuple[str, ...] = ()
    semiring: Semiring | None = None
    atoms: tuple[str, ...] = field(init=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown theory kind: {self.kind!r}")
        if self.kind in ("ga", "gc"):
            if len(set(self.tests)) != len(self.tests):
                raise ValueError("duplicate test names")
            for t in self.tests:
                if not _IDENT.match(t):
                    raise ValueError(f"bad test name: {t!r}")
            n = len(self.tests)
            atoms = tuple(format(i, f"0{n}b") if n else "" for i in range(2 ** n))
        else:
            if self.tests:
                raise ValueError(f"theory {self.kind} takes no tests")
            atoms = ()
        if self.kind == "smod":
            if self.semiring is None:
                raise ValueError("smod requires a semiring")
        elif self.semiring is not None:
            raise ValueError(f"theory {self.kind} takes no semiring")
        object.__setattr__(self, "atoms", atoms)

    def selector(self) -> str:
        """Render the selector string that `parse_selector` accepts."""
        if self.kind in ("ga", "gc"):
            return f"{self.kind}:tests={','.join(self.tests)}"
        if self.kind == "smod":
            return f"smod:{self.semiring.name}"
        return self.kind


def parse_selector(text: str) -> TheoryConfig:
    """Parse a theory selector: ``sl``, ``ga:tests=p,q``, ``ca``,
    ``gc:tests=p``, ``smod:nat|bool|rat``."""
    head, _, rest = text.partition(":")
    if head in ("sl", "ca"):
        if rest:
            raise ValueError(f"theory {head} takes no parameters: {text!r}")
        return TheoryConfig(head)
    if head in ("ga", "gc"):
        if not rest:
            return TheoryConfig(head)
        if not rest.startswith("tests="):
            raise ValueError(f"expected {head}:tests=..., got {text!r}")
        names = rest[len("tests="):]
        tests = tuple(n for n in names.split(",") if n)
        return TheoryConfig(head, tests=tests)
    if head == "smod":
        if rest not in SEMIRINGS:
            raise ValueError(f"unknown semiring {rest!r} (have {sorted(SEMIRINGS)})")
        return TheoryConfig("smod", semiring=SEMIRINGS[rest])
    raise ValueError(f"unknown theory selector: {text!r}")


# ---------------------------------------------------------------------------
# boolean guards over tests (ga / gc)


@dataclass(frozen=True)
class BTrue:
    pass


@dataclass(frozen=True)
class BFalse:
    pass


@dataclass(frozen=True)
class BTest:
    name: str


@dataclass(frozen=True)
class BNot:
    arg: "BoolExpr"


@dataclass(frozen=True)
class BAnd:
    left: "BoolExpr"
    right: "BoolExpr"


@dataclass(frozen=True)
class BOr:
    left: "BoolExpr"
    right: "BoolExpr"


BoolExpr = BTrue | BFalse | BTest | BNot | BAnd | BOr


def bool_holds(b: BoolExpr, atom: str, tests: tuple[str, ...]) -> bool:
    """Evaluate a guard at an atom (a truth-assignment bitstring)."""
    if isinstance(b, BTrue):
        return True
    if isinstance(b, BFalse):
        return False
    if isinstance(b, BTest):
        return atom[tests.index(b.name)] == "1"
    if isinstance(b, BNot):
        return not bool_holds(b.arg, atom, tests)
    if isinstance(b, BAnd):
        return bool_holds(b.left, atom, tests) and bool_holds(b.right, atom, tests)
    if isinstance(b, BOr):
        return bool_holds(b.left, atom, tests) or bool_holds(b.right, atom, tests)
    raise TypeError(f"not a boolean expression: {b!r}")


def atom_expr(cfg: TheoryConfig, atom: str) -> BoolExpr:
    """The conjunction of literals that picks out exactly one atom."""
    lits: list[BoolExpr] = []
    for bit, test in zip(atom, cfg.tests):
        lit: BoolExpr = BTest(test)
        if bit == "0":
            lit = BNot(lit)
        lits.append(lit)
    if not lits:
        return BTrue()
    out = lits[0]
    for lit in lits[1:]:
        out = BAnd(out, lit)
    return out


def atoms_expr(cfg: TheoryConfig, atoms: Iterable[str]) -> BoolExpr:
    """Disjunction of atom conjunctions; false if empty."""
    atoms = set(atoms)
    chosen = [a for a in cfg.atoms if a in atoms]
    if not chosen:
        return BFalse()
    out: BoolExpr = atom_expr(cfg, chosen[0])
    for a in chosen[1:]:
        out = BOr(out, atom_expr(cfg, a))
    return out


def bool_text(b: BoolExpr) -> str:
    """Concrete syntax for guards, minimal parentheses (! > & > |)."""

    def go(e, level):
        if isinstance(e, BTrue):
            return "true"
        if isinstance(e, BFalse):
            return "false"
        if isinstance(e, BTest):
            return e.name
        if isinstance(e, BNot):
            return "!" + go(e.arg, 3)
        if isinstance(e, BOr):
            text = f"{go(e.left, 1)} | {go(e.right, 2)}"
            lvl = 1
        elif isinstance(e, BAnd):
            text = f"{go(e.left, 2)} & {go(e.right, 3)}"
            lvl = 2
        else:
            raise TypeError(f"not a boolean expression: {e!r}")
        return f"({text})" if lvl < level else text

    return go(b, 0)


# ---------------------------------------------------------------------------
# operator symbols and terms


@dataclass(frozen=True)
class ZeroSym:
    arity = 0

    def text(self):
        return "0"


@dataclass(frozen=True)
class PlusSym:
    arity = 2

    def text(self):
        return "+"


class GuardSym:
    """Guarded choice +_b.  Two guard symbols are equal when their guards
    agree on every atom, regardless of how the guard was written.  The
    text is computed on first use; it is the same every time, so sharing
    one symbol between threads is safe."""

    __slots__ = ("expr", "sat", "_text")
    arity = 2

    def __init__(self, expr: BoolExpr, sat: frozenset[str]):
        self.expr = expr
        self.sat = sat
        self._text = None

    def text(self):
        if self._text is None:
            self._text = f"+[{bool_text(self.expr)}]"
        return self._text

    def __repr__(self):
        return f"GuardSym({bool_text(self.expr)})"

    def __eq__(self, other):
        return isinstance(other, GuardSym) and other.sat == self.sat

    def __hash__(self):
        return hash(("guard", self.sat))


def guard_sym(cfg: TheoryConfig, expr: BoolExpr) -> GuardSym:
    sat = frozenset(a for a in cfg.atoms if bool_holds(expr, a, cfg.tests))
    return GuardSym(expr, sat)


@dataclass(frozen=True)
class ChoiceSym:
    """Convex choice with probability p of taking the left branch."""

    prob: Fraction
    arity = 2

    def __post_init__(self):
        if not (0 <= self.prob <= 1):
            raise ValueError(f"probability outside [0,1]: {self.prob}")

    def text(self):
        return f"(+{self.prob})"


@dataclass(frozen=True)
class OplusSym:
    arity = 2

    def text(self):
        return "(+)"


@dataclass(frozen=True)
class ScaleSym:
    weight: Any
    arity = 1


ZERO = ZeroSym()
PLUS = PlusSym()
OPLUS = OplusSym()

OpSym = ZeroSym | PlusSym | GuardSym | ChoiceSym | OplusSym | ScaleSym


def allowed_symbol(cfg: TheoryConfig, sym: OpSym) -> bool:
    if isinstance(sym, ZeroSym):
        return True
    if isinstance(sym, PlusSym):
        return cfg.kind == "sl"
    if isinstance(sym, GuardSym):
        return cfg.kind in ("ga", "gc")
    if isinstance(sym, ChoiceSym):
        return cfg.kind in ("ca", "gc")
    if isinstance(sym, (OplusSym, ScaleSym)):
        return cfg.kind == "smod"
    return False


@dataclass(frozen=True)
class SVar:
    name: Any


@dataclass(frozen=True)
class SOp:
    sym: OpSym
    args: tuple["STerm", ...] = ()

    def __post_init__(self):
        if len(self.args) != self.sym.arity:
            raise ValueError(
                f"operator {self.sym!r} expects {self.sym.arity} arguments, got {len(self.args)}")


STerm = SVar | SOp

SZERO = SOp(ZERO)


def term_variables(t: STerm) -> set:
    if isinstance(t, SVar):
        return {t.name}
    out: set = set()
    for a in t.args:
        out |= term_variables(a)
    return out


def term_sort_key(t: STerm):
    if isinstance(t, SVar):
        return (0, element_sort_key(t.name))
    return (1, _sym_sort_key(t.sym), tuple(term_sort_key(a) for a in t.args))


def _sym_sort_key(sym: OpSym):
    if isinstance(sym, ZeroSym):
        return (0,)
    if isinstance(sym, PlusSym):
        return (1,)
    if isinstance(sym, GuardSym):
        return (2, tuple(sorted(sym.sat)))
    if isinstance(sym, ChoiceSym):
        return (3, sym.prob)
    if isinstance(sym, OplusSym):
        return (4,)
    if isinstance(sym, ScaleSym):
        return (5, element_sort_key(sym.weight))
    raise TypeError(f"not an operator symbol: {sym!r}")


# ---------------------------------------------------------------------------
# element ordering

def element_sort_key(x):
    """A total order on heterogeneous elements; keeps reify/split/exports
    deterministic.  Tuples order lexicographically; objects may provide a
    ``sort_key()`` method."""
    if x is None:
        return (0,)
    if isinstance(x, bool):
        return (1, x)
    if isinstance(x, int):
        return (2, x)
    if isinstance(x, Fraction):
        return (3, x)
    if isinstance(x, str):
        return (4, x)
    if isinstance(x, tuple):
        return (5, tuple(element_sort_key(i) for i in x))
    key = getattr(x, "sort_key", None)
    if key is not None:
        return (6, type(x).__name__, key())
    return (7, type(x).__name__, repr(x))


def _sorted_elements(elems):
    return sorted(elems, key=element_sort_key)


def _sorted_entries(pairs):
    """Weighted (element, weight) pairs in the canonical element order.
    Values keep their pairs unordered; only output (reify, split, exports)
    needs an order."""
    return sorted(pairs, key=lambda kv: element_sort_key(kv[0]))


# ---------------------------------------------------------------------------
# normal-form values


class MVal:
    """A normal-form value of the free algebra over some element universe.

    Internal data, canonical per kind:
      sl    frozenset of elements
      ga    tuple over atoms of element-or-None (None is the dead branch)
      ca    frozenset of (element, mass) pairs, mass > 0 and total <= 1
      gc    tuple over atoms of ca-style frozensets
      smod  frozenset of (element, weight) pairs with weight != 0

    Each element occurs in at most one pair.  Two values are equal iff their
    configs and data coincide; this equality is the decision procedure for
    theory-equality of terms.  The data is hash-canonical, not ordered:
    only `reify`, `split` and the document exports sort it.
    """

    __slots__ = ("cfg", "data", "_hash")

    def __init__(self, cfg: TheoryConfig, data):
        self.cfg = cfg
        self.data = data
        self._hash = hash((cfg, data))

    def __eq__(self, other):
        return (
            isinstance(other, MVal)
            and other._hash == self._hash
            and other.cfg == self.cfg
            and other.data == self.data
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"MVal({self.cfg.kind}, {self.data!r})"


_ONE = Fraction(1)


def _identity(e):
    return e


def _merge(pairs, f=_identity, add=operator.add, zero=None) -> frozenset:
    """Relabel the elements of weighted pairs through f and add up the
    weights of elements that meet; drop sums equal to ``zero`` (None: the
    weights are positive masses, which never cancel)."""
    acc: dict = {}
    for e, w in pairs:
        k = f(e)
        acc[k] = add(acc[k], w) if k in acc else w
    if zero is None:
        return frozenset(acc.items())
    return frozenset(kv for kv in acc.items() if kv[1] != zero)


def _norm_ca(mapping: Mapping[Element, Fraction]) -> frozenset:
    entries = []
    total = Fraction(0)
    for elem, mass in mapping.items():
        mass = Fraction(mass)
        if mass == 0:
            continue
        if mass < 0:
            raise ValueError(f"negative mass {mass} at {elem!r}")
        entries.append((elem, mass))
        total += mass
    if total > 1:
        raise ValueError(f"total mass {total} exceeds 1")
    return frozenset(entries)


def mval_sl(cfg: TheoryConfig, elems: Iterable[Element]) -> MVal:
    return MVal(cfg, frozenset(elems))


def mval_ga(cfg: TheoryConfig, per_atom: Iterable[Element | None]) -> MVal:
    data = tuple(per_atom)
    if len(data) != len(cfg.atoms):
        raise ValueError("one entry per atom required")
    return MVal(cfg, data)


def mval_ca(cfg: TheoryConfig, mapping: Mapping[Element, Fraction]) -> MVal:
    return MVal(cfg, _norm_ca(mapping))


def mval_gc(cfg: TheoryConfig, per_atom: Iterable[Mapping[Element, Fraction]]) -> MVal:
    dists = tuple(_norm_ca(m) for m in per_atom)
    if len(dists) != len(cfg.atoms):
        raise ValueError("one distribution per atom required")
    return MVal(cfg, dists)


def mval_smod(cfg: TheoryConfig, mapping: Mapping[Element, Any]) -> MVal:
    sr = cfg.semiring
    entries = []
    for elem, w in mapping.items():
        if not sr.contains(w):
            raise ValueError(f"{w!r} is not a {sr.name} weight")
        if w == sr.zero:
            continue
        entries.append((elem, w))
    return MVal(cfg, frozenset(entries))


def zero_mval(cfg: TheoryConfig) -> MVal:
    if cfg.kind == "ga":
        return MVal(cfg, (None,) * len(cfg.atoms))
    if cfg.kind == "gc":
        return MVal(cfg, (frozenset(),) * len(cfg.atoms))
    return MVal(cfg, frozenset())


def eta(cfg: TheoryConfig, x: Element) -> MVal:
    """The unit value at a single element."""
    if cfg.kind == "sl":
        return MVal(cfg, frozenset((x,)))
    if cfg.kind == "ga":
        return MVal(cfg, (x,) * len(cfg.atoms))
    if cfg.kind == "ca":
        return MVal(cfg, frozenset(((x, _ONE),)))
    if cfg.kind == "gc":
        return MVal(cfg, (frozenset(((x, _ONE),)),) * len(cfg.atoms))
    return MVal(cfg, frozenset(((x, cfg.semiring.one),)))


def supp(m: MVal) -> frozenset:
    """The essential elements of a value."""
    kind = m.cfg.kind
    if kind == "sl":
        return frozenset(m.data)
    if kind == "ga":
        return frozenset(e for e in m.data if e is not None)
    if kind == "ca" or kind == "smod":
        return frozenset(e for e, _ in m.data)
    return frozenset(e for dist in m.data for e, _ in dist)


def mval_map(f: Callable[[Element], Element], m: MVal) -> MVal:
    """Relabel elements through f, re-normalizing merged elements."""
    cfg = m.cfg
    kind = cfg.kind
    if kind == "sl":
        return MVal(cfg, frozenset(map(f, m.data)))
    if kind == "ga":
        return MVal(cfg, tuple(None if e is None else f(e) for e in m.data))
    if kind == "ca":
        return MVal(cfg, _merge(m.data, f))
    if kind == "gc":
        return MVal(cfg, tuple(_merge(dist, f) for dist in m.data))
    sr = cfg.semiring
    return MVal(cfg, _merge(m.data, f, sr.add, sr.zero))


# ---------------------------------------------------------------------------
# term evaluation


def eval_term(cfg: TheoryConfig, term: STerm, env: Mapping[Any, MVal]) -> MVal:
    """Evaluate a term under the theory's free-algebra operations.

    Every variable of the term must be bound in ``env`` to a value of the
    same theory; the result is in normal form.
    """
    if isinstance(term, SVar):
        try:
            val = env[term.name]
        except KeyError:
            raise UnboundVariableError(f"variable {term.name!r} is not bound") from None
        if val.cfg != cfg:
            raise TheoryMismatchError(
                f"value for {term.name!r} belongs to {val.cfg.selector()}, expected {cfg.selector()}")
        return val
    sym = term.sym
    if not allowed_symbol(cfg, sym):
        raise TheoryMismatchError(f"operator {sym!r} is not in the {cfg.kind} signature")
    if isinstance(sym, ZeroSym):
        return zero_mval(cfg)
    vals = [eval_term(cfg, a, env) for a in term.args]
    if isinstance(sym, PlusSym):
        return MVal(cfg, vals[0].data | vals[1].data)
    if isinstance(sym, GuardSym):
        sat = sym.sat
        picked = tuple(
            a if atom in sat else b
            for atom, a, b in zip(cfg.atoms, vals[0].data, vals[1].data))
        return MVal(cfg, picked)
    if isinstance(sym, ChoiceSym):
        p = sym.prob
        if cfg.kind == "ca":
            return MVal(cfg, _convex(p, vals[0].data, vals[1].data))
        return MVal(cfg, tuple(
            _convex(p, a, b) for a, b in zip(vals[0].data, vals[1].data)))
    if isinstance(sym, OplusSym):
        sr = cfg.semiring
        return MVal(cfg, _merge([*vals[0].data, *vals[1].data], add=sr.add, zero=sr.zero))
    if isinstance(sym, ScaleSym):
        w = sym.weight
        sr = cfg.semiring
        if not sr.contains(w):
            raise TheoryMismatchError(f"{w!r} is not a {sr.name} weight")
        scaled = ((e, sr.mul(w, x)) for e, x in vals[0].data)
        return MVal(cfg, frozenset(kv for kv in scaled if kv[1] != sr.zero))
    raise TypeError(f"not an operator symbol: {sym!r}")


def _convex(p: Fraction, left: frozenset, right: frozenset) -> frozenset:
    if p == 1:
        return left
    if p == 0:
        return right
    q = 1 - p
    return _merge([(e, p * mass) for e, mass in left]
                  + [(e, q * mass) for e, mass in right])


# ---------------------------------------------------------------------------
# reification: normal form -> term


def reify(m: MVal) -> STerm:
    """A term over supp(m) that evaluates back to m under the identity
    environment.  Deterministic: elements in the canonical order."""
    cfg = m.cfg
    kind = cfg.kind
    if kind == "sl":
        elems = _sorted_elements(m.data)
        if not elems:
            return SZERO
        t: STerm = SVar(elems[-1])
        for e in reversed(elems[:-1]):
            t = SOp(PLUS, (SVar(e), t))
        return t
    if kind == "ga":
        slots = [SZERO if e is None else SVar(e) for e in m.data]
        return _guard_chain(cfg, slots)
    if kind == "ca":
        return _ca_reify(m.data)
    if kind == "gc":
        return _guard_chain(cfg, [_ca_reify(dist) for dist in m.data])
    entries = _sorted_entries(m.data)
    if not entries:
        return SZERO
    t = SOp(ScaleSym(entries[-1][1]), (SVar(entries[-1][0]),))
    for e, w in reversed(entries[:-1]):
        t = SOp(OPLUS, (SOp(ScaleSym(w), (SVar(e),)), t))
    return t


def _ca_reify(dist) -> STerm:
    """Left-nested convex chain with conditional probabilities, over the
    elements in canonical order; a trailing choice against 0 carries any
    missing mass."""
    if not dist:
        return SZERO
    dist = _sorted_entries(dist)
    total = sum(mass for _, mass in dist)
    t: STerm = SVar(dist[0][0])
    seen = dist[0][1]
    for e, mass in dist[1:]:
        t = SOp(ChoiceSym(seen / (seen + mass)), (t, SVar(e)))
        seen += mass
    if total != 1:
        t = SOp(ChoiceSym(total), (t, SZERO))
    return t


def _guard_chain(cfg: TheoryConfig, slots: list[STerm]) -> STerm:
    """Right-nested guarded chain over the canonical atom order; the guard at
    position i selects exactly atom i, the final slot needs no guard."""
    guards = _atom_guards(cfg)
    t = slots[-1]
    for i in range(len(slots) - 2, -1, -1):
        t = SOp(guards[i], (slots[i], t))
    return t


@lru_cache
def _atom_guards(cfg: TheoryConfig) -> tuple[GuardSym, ...]:
    """One guard symbol per atom, selecting exactly that atom; shared by
    every chain of the theory, so printing renders each guard once."""
    return tuple(guard_sym(cfg, atom_expr(cfg, atom)) for atom in cfg.atoms)


# ---------------------------------------------------------------------------
# malleable splitting


U_VAR = SVar("u")
V_VAR = SVar("v")


def split(m: MVal, in_left: Callable[[Element], bool]) -> tuple[STerm, STerm, STerm]:
    """Split a value along a partition of its support.

    Returns (s, t1, t2) with s a term over {u, v}, t1 a term over the
    elements satisfying ``in_left``, t2 over the rest, such that evaluating
    s with u = t1's value and v = t2's value reproduces m exactly.  s may be
    degenerate (mention only one variable, or neither).
    """
    cfg = m.cfg
    universe = supp(m)
    left = frozenset(e for e in universe if in_left(e))
    kind = cfg.kind
    if kind == "sl":
        t1 = reify(MVal(cfg, frozenset(m.data & left)))
        t2 = reify(MVal(cfg, frozenset(m.data - left)))
        return SOp(PLUS, (U_VAR, V_VAR)), t1, t2
    if kind == "ga":
        in_u = [a for a, e in zip(cfg.atoms, m.data) if e is not None and e in left]
        in_v = [a for a, e in zip(cfg.atoms, m.data) if e is not None and e not in left]
        s = SOp(guard_sym(cfg, atoms_expr(cfg, in_u)),
                (U_VAR,
                 SOp(guard_sym(cfg, atoms_expr(cfg, in_v)), (V_VAR, SZERO))))
        t1 = reify(MVal(cfg, tuple(e if e in left else None for e in m.data)))
        t2 = reify(MVal(cfg, tuple(e if e is not None and e not in left else None
                                   for e in m.data)))
        return s, t1, t2
    if kind == "ca":
        s, d1, d2 = _split_dist(m.data, left)
        return s, _ca_reify(d1), _ca_reify(d2)
    if kind == "gc":
        parts = [_split_dist(dist, left) for dist in m.data]
        s = _guard_chain(cfg, [p[0] for p in parts])
        t1 = _guard_chain(cfg, [_ca_reify(p[1]) for p in parts])
        t2 = _guard_chain(cfg, [_ca_reify(p[2]) for p in parts])
        return s, t1, t2
    # smod
    t1 = reify(MVal(cfg, frozenset(kv for kv in m.data if kv[0] in left)))
    t2 = reify(MVal(cfg, frozenset(kv for kv in m.data if kv[0] not in left)))
    return SOp(OPLUS, (U_VAR, V_VAR)), t1, t2


def _split_dist(dist: frozenset, left: frozenset):
    """One convex split: s over {u, v} plus the two conditional
    distributions (each with full mass 1, or empty when its side is)."""
    u_part = tuple(kv for kv in dist if kv[0] in left)
    v_part = tuple(kv for kv in dist if kv[0] not in left)
    r = sum((mass for _, mass in dist), Fraction(0))
    if r == 0:
        return SZERO, (), ()
    pu = sum((mass for _, mass in u_part), Fraction(0))
    if not v_part:
        return SOp(ChoiceSym(r), (U_VAR, SZERO)), _rescale(u_part, pu), ()
    if not u_part:
        return SOp(ChoiceSym(r), (V_VAR, SZERO)), (), _rescale(v_part, r)
    p = pu / r
    s = SOp(ChoiceSym(r), (SOp(ChoiceSym(p), (U_VAR, V_VAR)), SZERO))
    return s, _rescale(u_part, pu), _rescale(v_part, r - pu)


def _rescale(dist: tuple, total: Fraction) -> tuple:
    return tuple((e, mass / total) for e, mass in dist)
