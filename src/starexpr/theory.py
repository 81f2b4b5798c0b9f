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

from .errors import LimitExceededError, TheoryMismatchError, UnboundVariableError

Element = Any  # any hashable value; systems use (action, target) pairs

KINDS = ("sl", "ga", "ca", "gc", "smod")

_IDENT = re.compile(r"[a-z][a-z0-9_]*\Z")


# ---------------------------------------------------------------------------
# semirings (smod only)


class Semiring:
    """Operation table for a semiring of transition weights.

    The three built-in tables live in `SEMIRINGS`; new ones can be added with
    `register_semiring` as long as the operations satisfy the semiring laws.
    ``parse_weight`` reads a document weight: a nonzero member, or
    ValueError/TypeError.  By default it is ``parse`` followed by the
    ``contains`` and zero checks; a table may pass one that checks less
    where its ``parse`` already guarantees more.
    """

    def __init__(self, name, zero, one, add, mul, parse, fmt, contains, sample,
                 parse_weight=None):
        self.name = name
        self.zero = zero
        self.one = one
        self.add = add
        self.mul = mul
        self.parse = parse
        self.format = fmt
        self.contains = contains
        self.sample = sample
        self.parse_weight = parse_weight or self._checked_weight

    def _checked_weight(self, raw):
        w = self.parse(raw)
        if not self.contains(w):
            raise ValueError(f"{w!r} is not a {self.name} weight")
        if w == self.zero:
            raise ValueError("zero weights must be left out")
        return w

    def __repr__(self):
        return f"Semiring({self.name})"

    def __eq__(self, other):
        return isinstance(other, Semiring) and other.name == self.name

    def __hash__(self):
        return hash(("semiring", self.name))


def _parse_nat(text: str) -> int:
    # str.isdecimal is the regular expression \d+ on a string: one or more
    # Unicode decimal digits, which int() reads; other inputs fail as that
    # expression's fullmatch does
    if isinstance(text, str):
        if text.isdecimal():
            return int(text)
        raise ValueError(f"not a natural number: {text!r}")
    if isinstance(text, (bytes, bytearray, memoryview)):
        raise TypeError("cannot use a string pattern on a bytes-like object")
    raise TypeError(f"expected string or bytes-like object, got {type(text).__name__!r}")


def _parse_bool_weight(text: str) -> bool:
    if text == "0":
        return False
    if text == "1":
        return True
    raise ValueError(f"boolean weight must be 0 or 1, got {text!r}")


def parse_rational(raw) -> Fraction:
    """``Fraction(raw)``, with plain ASCII ``m`` and ``m/n`` strings read
    directly as ``Fraction(int(m), int(n))``; every other input goes to
    ``Fraction(raw)`` unchanged, so values and exceptions are the same."""
    if type(raw) is str and raw.isascii():
        num, slash, den = raw.partition("/")
        if num.isdigit():
            if not slash:
                return Fraction(int(num))
            if den.isdigit():
                return Fraction(int(num), int(den))
    return Fraction(raw)


def _parse_nonneg_rational(text: str) -> Fraction:
    value = parse_rational(text)
    if value < 0:
        raise ValueError(f"negative weight: {text!r}")
    return value


def _parse_rat_weight(raw) -> Fraction:
    """`Semiring._checked_weight` for ``rat`` with one comparison: a parsed
    Fraction is normalized, so its numerator alone says negative, zero or
    positive, and a positive one is a member."""
    value = parse_rational(raw)
    num = value._numerator
    if num > 0:
        return value
    raise ValueError(f"negative weight: {raw!r}" if num else "zero weights must be left out")


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
    parse_weight=_parse_rat_weight,
))


# ---------------------------------------------------------------------------
# theory configuration


@dataclass(frozen=True)
class TheoryConfig:
    """A branching theory instance: kind plus its parameters.

    ``tests`` is the ordered test set for ``ga``/``gc``; atoms are all
    2^len(tests) truth assignments, encoded as bitstrings in test order
    ("10" means the first test holds and the second fails), enumerated in
    binary counting order.  A value holds one entry per atom, so at most
    ``MAX_TESTS`` tests are accepted (4096 atoms).
    """

    MAX_TESTS = 12

    kind: str
    tests: tuple[str, ...] = ()
    semiring: Semiring | None = None
    atoms: tuple[str, ...] = field(init=False, compare=False)
    # every value hashes its config, so the hash is computed once
    _hash: int = field(init=False, compare=False, repr=False)

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
            if n > self.MAX_TESTS:
                raise LimitExceededError(
                    f"{n} tests exceed the limit of {self.MAX_TESTS} "
                    f"({2 ** self.MAX_TESTS} atoms)")
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
        object.__setattr__(self, "_hash", hash((self.kind, self.tests, self.semiring)))

    def __hash__(self):
        return self._hash

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

    __slots__ = ("expr", "sat", "_text", "_hash")
    arity = 2

    def __init__(self, expr: BoolExpr, sat: frozenset[str]):
        self.expr = expr
        self.sat = sat
        self._text = None
        self._hash = hash(("guard", sat))

    def text(self):
        if self._text is None:
            self._text = f"+[{bool_text(self.expr)}]"
        return self._text

    def __repr__(self):
        return f"GuardSym({bool_text(self.expr)})"

    def __eq__(self, other):
        return isinstance(other, GuardSym) and other.sat == self.sat

    def __hash__(self):
        return self._hash


def guard_sym(cfg: TheoryConfig, expr: BoolExpr) -> GuardSym:
    sat = frozenset(a for a in cfg.atoms if bool_holds(expr, a, cfg.tests))
    return GuardSym(expr, sat)


@dataclass(frozen=True)
class ChoiceSym:
    """Convex choice with probability p of taking the left branch."""

    prob: Fraction
    arity = 2
    # hashing a Fraction takes a modular inverse, so it is done once
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not (0 <= self.prob <= 1):
            raise ValueError(f"probability outside [0,1]: {self.prob}")
        object.__setattr__(self, "_hash", hash((self.prob,)))

    def __hash__(self):
        return self._hash

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
    # computed once: every `Star` hashes its loop term
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.args) != self.sym.arity:
            raise ValueError(
                f"operator {self.sym!r} expects {self.sym.arity} arguments, got {len(self.args)}")
        object.__setattr__(self, "_hash", hash((self.sym, self.args)))

    def __hash__(self):
        return self._hash


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
    return frozenset(_merged(pairs, f, add, zero))


def _merged(pairs, f=_identity, add=operator.add, zero=None) -> list:
    """`_merge` as a list, in the order elements first occur."""
    acc: dict = {}
    for e, w in pairs:
        k = f(e)
        acc[k] = add(acc[k], w) if k in acc else w
    if zero is None:
        return list(acc.items())
    return [kv for kv in acc.items() if kv[1] != zero]


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
# flat rows


def weight_key(w):
    """An exact key for a weight: two keys are equal exactly when the
    weights are ``==``.  Numbers key as (numerator, denominator), so ``1``
    and ``Fraction(1)`` meet, and a key hashes without the modular inverse
    that `Fraction.__hash__` computes.  Any other weight is its own key, so
    a semiring must not mix it with equal weights of another type (``1.0``
    and ``1``)."""
    if type(w) is Fraction:  # read the slots; the properties are Python calls
        return (w._numerator, w._denominator)
    if isinstance(w, (int, Fraction)):
        return (w.numerator, w.denominator)
    return w


def flat_rows(cfg: TheoryConfig, values: Iterable[MVal],
              key: Callable[[Any], Any]) -> list:
    """Flatten values over (label, target) pairs into one row each.

    Each target ``t`` becomes ``key(t)``; systems key states by index and
    the tick target by -1.  The layout, per kind:

      sl    (labels, targets)
      ga    (atom-tagged labels, targets): one (atom index, label) entry per
            live atom, in atom order
      ca    (labels, targets, weights, weight keys, whether the labels are
            distinct: then no two pairs can meet)
      gc    as ca, with atom-tagged labels in atom order
      smod  as ca; zero weights are left out

    Rows are plain tuples: `row_signer` signs them, `relabel_row` maps their
    targets, `row_value` and `row_support` read them back.
    """
    kind = cfg.kind
    if kind == "sl":
        return [pair_row([(a, key(t)) for a, t in m.data]) for m in values]
    if kind == "ga":
        return [pair_row([((i, e[0]), key(e[1])) for i, e in enumerate(m.data)
                          if e is not None])
                for m in values]
    if kind == "ca":
        return [_weighted_row([(a, key(t), w) for (a, t), w in m.data]) for m in values]
    if kind == "gc":
        return [_weighted_row([((i, a), key(t), w) for i, dist in enumerate(m.data)
                               for (a, t), w in dist])
                for m in values]
    zero = cfg.semiring.zero
    return [_weighted_row([(a, key(t), w) for (a, t), w in m.data if w != zero])
            for m in values]


def pair_row(pairs) -> tuple[tuple, tuple]:
    """The (labels, targets) row of (label, target) pairs."""
    if not pairs:
        return (), ()
    return tuple(zip(*pairs))


def weighted_row(labels, targets, weights) -> tuple:
    """The row of parallel labels, targets and nonzero weights."""
    labels = tuple(labels)
    return (labels, tuple(targets), tuple(weights), tuple(map(weight_key, weights)),
            len(set(labels)) == len(labels))


def _weighted_row(entries) -> tuple:
    if not entries:
        return (), (), (), (), True
    return weighted_row(*zip(*entries))


def row_support(cfg: TheoryConfig, row) -> set:
    """The (label, target) pairs of a row's support."""
    if cfg.kind == "ga" or cfg.kind == "gc":
        return {(a, t) for (_, a), t in zip(row[0], row[1])}
    return set(zip(row[0], row[1]))


def row_value(cfg: TheoryConfig, row, targets) -> MVal:
    """The value a row stands for, with each target ``t`` read as
    ``targets[t]``."""
    kind = cfg.kind
    pairs = zip(row[0], map(targets.__getitem__, row[1]))
    if kind == "sl":
        return MVal(cfg, frozenset(pairs))
    if kind == "ga":
        data = [None] * len(cfg.atoms)
        for (i, a), t in pairs:
            data[i] = (a, t)
        return MVal(cfg, tuple(data))
    if kind != "gc":
        return MVal(cfg, frozenset(zip(pairs, row[2])))
    dists: list[list] = [[] for _ in cfg.atoms]
    for ((i, a), t), w in zip(pairs, row[2]):
        dists[i].append(((a, t), w))
    return MVal(cfg, tuple(map(frozenset, dists)))


def row_signer(cfg: TheoryConfig) -> Callable:
    """``sign(row, labels)``: a hashable signature of a row with each
    target ``t`` relabelled to ``labels[t]``.  Two signatures are equal
    exactly when the values relabelled by `mval_map` are.  Signatures are
    plain tuples and frozensets; weights appear as their `weight_key`s, and
    the weights of pairs that meet are added with the theory's addition,
    keyed again, and dropped when they sum to zero, as `mval_map` does.
    `gc` signs its per-atom distributions as one, with atom-tagged labels.
    """
    kind = cfg.kind
    if kind == "sl":
        return _sign_set
    if kind == "ga":
        return _sign_table
    if kind == "ca" or kind == "gc":
        return _sign_weighted
    sr = cfg.semiring
    add, zero = sr.add, sr.zero

    def sign(row, labels):
        return _sign_weighted(row, labels, add, zero)

    return sign


def _sign_set(row, labels) -> frozenset:
    acts, keys = row
    return frozenset(zip(acts, map(labels.__getitem__, keys)))


def _sign_table(row, labels) -> tuple:
    # one entry per live atom, in atom order, so a tuple is canonical
    acts, keys = row
    return tuple(zip(acts, map(labels.__getitem__, keys)))


def _sign_weighted(row, labels, add=operator.add, zero=None) -> frozenset:
    """A frozenset of (label, target label, weight key) triples."""
    acts, keys, weights, wkeys, distinct = row
    tlabels = list(map(labels.__getitem__, keys))
    if distinct or len(set(zip(acts, tlabels))) == len(acts):
        return frozenset(zip(acts, tlabels, wkeys))
    merged = _merge(zip(zip(acts, tlabels), weights), add=add, zero=zero)
    return frozenset((a, b, weight_key(w)) for (a, b), w in merged)


def relabel_row(cfg: TheoryConfig, row, labels) -> tuple:
    """The row of the value relabelled through ``labels`` (target ``t`` to
    ``labels[t]``), merging pairs that meet as `mval_map` does.  Entries
    keep their order, so tagged rows stay in atom order."""
    kind = cfg.kind
    if kind == "sl":
        return pair_row(_sign_set(row, labels))
    targets = tuple(map(labels.__getitem__, row[1]))
    if kind == "ga":
        return row[0], targets
    acts, _, weights, wkeys, distinct = row
    if distinct or len(set(zip(acts, targets))) == len(acts):
        return acts, targets, weights, wkeys, distinct
    add, zero = operator.add, None
    if kind == "smod":
        add, zero = cfg.semiring.add, cfg.semiring.zero
    return _weighted_row([(a, b, w) for (a, b), w in
                          _merged(zip(zip(acts, targets), weights), add=add, zero=zero)])


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
    return apply_sym(cfg, term.sym, [eval_term(cfg, a, env) for a in term.args])


def apply_sym(cfg: TheoryConfig, sym: OpSym, vals: list[MVal]) -> MVal:
    """The theory's operation ``sym`` applied to values in normal form."""
    if not allowed_symbol(cfg, sym):
        raise TheoryMismatchError(f"operator {sym!r} is not in the {cfg.kind} signature")
    if isinstance(sym, ZeroSym):
        return zero_mval(cfg)
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
    environment.  Deterministic: elements in the canonical order.  Reduced:
    no unit weight ``1 .`` and no choice of full mass against 0.  Guarded
    values (``ga``, ``gc``) become reduced decision trees over the declared
    tests (see `_decision_tree`)."""
    return _reify(m.cfg, _ordered(m.cfg, m.data))


def _reify(cfg: TheoryConfig, data) -> STerm:
    """`reify` of ordered data (see `_ordered`)."""
    kind = cfg.kind
    if kind == "ga":
        return _decision_tree(cfg, _once(_ga_slot, data))
    if kind == "gc":
        return _decision_tree(cfg, _once(_ca_chain, data))
    return _chain(cfg, data)


def _ordered(cfg: TheoryConfig, data):
    """A value's data in the form `reify` and `split` build terms from: a
    sorted list of elements (``sl``) or of (element, weight) pairs (``ca``,
    ``smod``); for ``gc`` one sorted tuple per atom, and for ``ga`` the
    atom-ordered slots, with equal ones as one object (see `_once`)."""
    kind = cfg.kind
    if kind == "sl":
        return _sorted_elements(data)
    memo: dict = {}
    if kind == "ga":
        return [memo.setdefault(e, e) for e in data]
    if kind == "gc":
        return [memo[d] if d in memo else memo.setdefault(d, tuple(_sorted_entries(d)))
                for d in data]
    return _sorted_entries(data)


def _chain(cfg: TheoryConfig, entries) -> STerm:
    """The term of ordered ``sl``, ``ca`` or ``smod`` entries: a right-nested
    sum, a convex chain (`_ca_chain`), or a right-nested sum of scaled
    variables, where a variable of the semiring's unit weight stays
    unscaled."""
    kind = cfg.kind
    if kind == "ca":
        return _ca_chain(entries)
    if not entries:
        return SZERO
    if kind == "sl":
        t: STerm = SVar(entries[-1])
        for e in reversed(entries[:-1]):
            t = SOp(PLUS, (SVar(e), t))
        return t
    one = cfg.semiring.one
    terms = [SVar(e) if w == one else SOp(ScaleSym(w), (SVar(e),)) for e, w in entries]
    t = terms[-1]
    for x in reversed(terms[:-1]):
        t = SOp(OPLUS, (x, t))
    return t


def _ga_slot(e) -> STerm:
    return SZERO if e is None else SVar(e)


def _ca_chain(dist) -> STerm:
    """A ``ca`` distribution of ordered (element, mass) pairs as a convex
    chain; a trailing choice against 0 carries any missing mass."""
    t, total = _convex_chain(dist)
    return _with_mass(t, total) if dist else t


def _with_mass(t: STerm, mass) -> STerm:
    """t taken with probability ``mass``: t itself at full mass, else a
    choice of t against 0."""
    return t if mass == 1 else SOp(ChoiceSym(mass), (t, SZERO))


def _convex_chain(dist) -> tuple[STerm, Any]:
    """The left-nested convex chain over ordered (element, mass) pairs, its
    probabilities conditional on the masses so far, and the masses' total.
    The chain depends only on the masses' ratios."""
    if not dist:
        return SZERO, 0
    t: STerm = SVar(dist[0][0])
    seen = dist[0][1]
    for e, mass in dist[1:]:
        total = seen + mass
        t = SOp(ChoiceSym(seen / total), (t, SVar(e)))
        seen = total
    return t, seen


def _once(f: Callable, entries) -> list:
    """``[f(x) for x in entries]``, calling f once per entry object, so
    entries that are one object get one result.  Callers pass equal
    entries as one object (`_ordered`, `split_row`): keyed by identity, the
    memo never hashes weights or states."""
    memo: dict = {}
    out = []
    for x in entries:
        k = id(x)
        if k not in memo:
            memo[k] = f(x)
        out.append(memo[k])
    return out


def _decision_tree(cfg: TheoryConfig, slots: list[STerm]) -> STerm:
    """The reduced ordered decision tree over the declared tests whose leaf
    at each atom is that atom's slot.

    Atoms are bitstrings in test order, so the first half of an atom range
    is "its first test fails" and the second half "it holds".  A node
    ``on +[t] off`` tests one test; a test whose two halves give the same
    term is skipped, so no node has equal branches and each path tests each
    test at most once, in declared order.  Equal slots and equal subtrees
    are one object, which makes that check an identity test and the result
    a DAG.  Built bottom up: two neighbouring ranges differ in the last
    test not yet decided.
    """
    leaves: dict = {}
    level = [leaves.setdefault(t, t) for t in slots]
    for guard in reversed(_test_guards(cfg)):
        nodes: dict = {}
        halves = iter(level)
        level = []
        for off, on in zip(halves, halves):
            if on is not off:
                key = (id(on), id(off))
                node = nodes.get(key)
                if node is None:
                    node = nodes[key] = SOp(guard, (on, off))
                off = node
            level.append(off)
    return level[0]


@lru_cache
def _test_guards(cfg: TheoryConfig) -> tuple[GuardSym, ...]:
    """One guard symbol ``+[t]`` per test, shared by every decision tree of
    the theory, so printing renders each guard once."""
    return tuple(guard_sym(cfg, BTest(t)) for t in cfg.tests)


# ---------------------------------------------------------------------------
# malleable splitting


U_VAR = SVar("u")
V_VAR = SVar("v")


def split(m: MVal, in_left: Callable[[Element], bool]) -> tuple[STerm, STerm, STerm]:
    """Split a value along a partition of its support.

    Returns (s, t1, t2) with s a term over {u, v}, t1 a term over the
    elements satisfying ``in_left``, t2 over the rest, such that evaluating
    s with u = t1's value and v = t2's value reproduces m exactly.  s may be
    degenerate (mention only one variable, or neither).  The terms are
    reduced as `reify`'s are: a convex s chooses against 0 only for a mass
    below 1, and an ``smod`` side scales no variable by the unit.  For
    ``ga`` and ``gc`` all three are reduced decision trees over the tests:
    s has the per-atom slots of the split (``u``, ``v`` or ``0`` for
    ``ga``), t1 and t2 the per-atom parts.
    """
    left = frozenset(e for e in supp(m) if in_left(e))
    return _split(m.cfg, _ordered(m.cfg, m.data), left.__contains__)


def split_row(cfg: TheoryConfig, row, order, left, targets=None) -> tuple[STerm, STerm, STerm]:
    """`split` of the value a row stands for, read from the row itself.

    ``order[t]`` orders row targets as `element_sort_key` orders the
    targets they stand for (for systems: states by id string, then tick),
    and ``left`` holds the support pairs (label, t) that go left.  The
    element of pair (label, t) is ``(label, targets[t])``, or the pair
    itself without ``targets``.  With the targets a system's values use,
    the terms equal those of `split` on `row_value`, and they are built
    without the value.
    """
    sides: dict = {}

    def elem(a, t):
        e = (a, t) if targets is None else (a, targets[t])
        sides[e] = (a, t) in left
        return e

    return _split(cfg, _row_data(cfg, row, order, elem), sides.__getitem__)


def reify_row(cfg: TheoryConfig, row, order) -> STerm:
    """`reify` of the value a row stands for, read from the row itself as
    `split_row` reads it, with the support pairs (label, t) as elements."""
    return _reify(cfg, _row_data(cfg, row, order, _pair))


def _pair(a, t):
    return a, t


def _row_data(cfg: TheoryConfig, row, order, elem: Callable):
    """The ordered data (see `_ordered`) of the value a row stands for,
    with ``elem(label, t)`` as the element of support pair (label, t)."""
    kind = cfg.kind
    if kind == "ga":
        data: list = [None] * len(cfg.atoms)
        elems: dict = {}
        for (i, a), t in zip(row[0], row[1]):
            if (a, t) not in elems:
                elems[a, t] = elem(a, t)
            data[i] = elems[a, t]
        return data
    if kind == "gc":
        dists: list[list] = [[] for _ in cfg.atoms]
        for (i, a), t, w, k in zip(row[0], row[1], row[2], row[3]):
            dists[i].append((a, order[t], t, k, w))
        elems = {}
        data = []
        for dist in dists:
            dist.sort()  # (label, order) is unique within an atom
            key = tuple((a, t, k) for a, _, t, k, _ in dist)
            d = elems.get(key)
            if d is None:
                d = elems[key] = tuple((elem(a, t), w) for a, _, t, _, w in dist)
            data.append(d)
        return data
    if kind == "sl":
        return [elem(a, t) for a, _, t in
                sorted([(a, order[t], t) for a, t in zip(row[0], row[1])])]
    return [(elem(a, t), w) for a, _, t, w in
            sorted([(a, order[t], t, w) for a, t, w in zip(row[0], row[1], row[2])])]


def _split(cfg: TheoryConfig, data, is_left: Callable[[Element], bool]):
    """`split` of ordered data (see `_ordered`) along ``is_left``."""
    kind = cfg.kind
    if kind == "sl":
        return (SOp(PLUS, (U_VAR, V_VAR)), _chain(cfg, [e for e in data if is_left(e)]),
                _chain(cfg, [e for e in data if not is_left(e)]))
    if kind == "ga":
        sides = [None if e is None else is_left(e) for e in data]
        s = _decision_tree(cfg, [SZERO if side is None else U_VAR if side else V_VAR
                                 for side in sides])
        t1 = _decision_tree(cfg, _once(_ga_slot, [e if side else None
                                                  for e, side in zip(data, sides)]))
        t2 = _decision_tree(cfg, _once(_ga_slot, [e if side is False else None
                                                  for e, side in zip(data, sides)]))
        return s, t1, t2
    if kind == "ca":
        return _split_dist(data, is_left)
    if kind == "gc":
        parts = _once(lambda dist: _split_dist(dist, is_left), data)
        return tuple(_decision_tree(cfg, [p[k] for p in parts]) for k in range(3))
    return (SOp(OPLUS, (U_VAR, V_VAR)), _chain(cfg, [kv for kv in data if is_left(kv[0])]),
            _chain(cfg, [kv for kv in data if not is_left(kv[0])]))


def _split_dist(dist, is_left: Callable[[Element], bool]):
    """One convex split of ordered (element, mass) pairs: s over {u, v},
    with a choice against 0 only for mass below 1, and each side's
    conditional distribution, which has full mass 1, as a chain (0 when the
    side is empty)."""
    t1, pu = _convex_chain(tuple(kv for kv in dist if is_left(kv[0])))
    t2, pv = _convex_chain(tuple(kv for kv in dist if not is_left(kv[0])))
    if not pv:
        return (_with_mass(U_VAR, pu) if pu else SZERO), t1, t2
    if not pu:
        return _with_mass(V_VAR, pv), t1, t2
    r = pu + pv
    return _with_mass(SOp(ChoiceSym(pu / r), (U_VAR, V_VAR)), r), t1, t2
