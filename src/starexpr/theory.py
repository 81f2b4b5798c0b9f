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
    binary counting order.  A set of atoms is an int mask whose bit i stands
    for atom i; ``full`` is the mask of every atom.  A guarded value holds
    one (branch, mask) pair per distinct branch, so its size does not grow
    with the atoms; but documents, exports and per-atom constructors list
    every atom, so at most ``MAX_TESTS`` tests are accepted (4096 atoms).
    """

    MAX_TESTS = 12

    kind: str
    tests: tuple[str, ...] = ()
    semiring: Semiring | None = None
    atoms: tuple[str, ...] = field(init=False, compare=False)
    full: int = field(init=False, compare=False, repr=False)
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
        object.__setattr__(self, "full", (1 << len(atoms)) - 1)
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


def guard_mask(cfg: TheoryConfig, b: BoolExpr) -> int:
    """The mask of the atoms at which a guard holds, built from the tests'
    masks with bit operations."""
    if isinstance(b, BTrue):
        return cfg.full
    if isinstance(b, BFalse):
        return 0
    if isinstance(b, BTest):
        return _test_masks(cfg)[cfg.tests.index(b.name)]
    if isinstance(b, BNot):
        return cfg.full ^ guard_mask(cfg, b.arg)
    if isinstance(b, BAnd):
        return guard_mask(cfg, b.left) & guard_mask(cfg, b.right)
    if isinstance(b, BOr):
        return guard_mask(cfg, b.left) | guard_mask(cfg, b.right)
    raise TypeError(f"not a boolean expression: {b!r}")


@lru_cache
def _test_masks(cfg: TheoryConfig) -> tuple[int, ...]:
    """The mask of the atoms at which each test holds.  Test j is bit
    n-1-j of an atom's index, so its atoms repeat with period 2h, where
    h = 2^(n-1-j): h atoms where it fails, then h where it holds."""
    n = len(cfg.tests)
    out = []
    for j in range(n):
        half = 1 << (n - 1 - j)
        out.append((((1 << half) - 1) << half) * (cfg.full // ((1 << 2 * half) - 1)))
    return tuple(out)


def mask_atoms(mask: int) -> list[int]:
    """The indices of the atoms in a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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
    """Guarded choice +_b.  ``mask`` holds the atoms at which b holds; two
    guard symbols are equal when their masks are, regardless of how the
    guard was written.  The text and the sort key are computed on first
    use; they are the same every time, so sharing one symbol between
    threads is safe."""

    __slots__ = ("expr", "mask", "_text", "_key", "_hash")
    arity = 2

    def __init__(self, expr: BoolExpr, mask: int):
        self.expr = expr
        self.mask = mask
        self._text = None
        self._key = None
        self._hash = hash(("guard", mask))

    def text(self):
        if self._text is None:
            self._text = f"+[{bool_text(self.expr)}]"
        return self._text

    def sort_key(self) -> tuple[int, ...]:
        """The indices of the guard's atoms, ascending: guards order as the
        sorted tuples of their atoms' bitstrings do."""
        if self._key is None:
            self._key = tuple(mask_atoms(self.mask))
        return self._key

    def __repr__(self):
        return f"GuardSym({bool_text(self.expr)})"

    def __eq__(self, other):
        return isinstance(other, GuardSym) and other.mask == self.mask

    def __hash__(self):
        return self._hash


def guard_sym(cfg: TheoryConfig, expr: BoolExpr) -> GuardSym:
    return GuardSym(expr, guard_mask(cfg, expr))


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
        return (2, sym.sort_key())
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
      ga    frozenset of (element, mask) pairs: the atoms of the int mask
            take that element; atoms of no mask take the dead branch 0
      ca    frozenset of (element, mass) pairs, mass > 0 and total <= 1
      gc    frozenset of (distribution, mask) pairs, each distribution a
            nonempty ca-style frozenset; atoms of no mask take the empty one
      smod  frozenset of (element, weight) pairs with weight != 0

    Each element (each distribution for ``gc``) occurs in at most one pair,
    and the masks of a guarded value are nonzero and disjoint, so a guarded
    value holds one pair per distinct branch, however many atoms take it.
    Two values are equal iff their configs and data coincide; this equality
    is the decision procedure for theory-equality of terms.  The data is
    hash-canonical, not ordered: only `reify`, `split` and the document
    exports sort it.
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
    weights are positive masses or masks, which never cancel)."""
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


def _partition(pairs) -> frozenset:
    """(branch, mask) pairs with the masks of equal branches joined."""
    return _merge(pairs, add=operator.or_)


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
    """The ``ga`` value with one element, or None, per atom."""
    data = tuple(per_atom)
    if len(data) != len(cfg.atoms):
        raise ValueError("one entry per atom required")
    return MVal(cfg, _partition((x, 1 << i) for i, x in enumerate(data) if x is not None))


def mval_ca(cfg: TheoryConfig, mapping: Mapping[Element, Fraction]) -> MVal:
    return MVal(cfg, _norm_ca(mapping))


def mval_gc(cfg: TheoryConfig, per_atom: Iterable[Mapping[Element, Fraction]]) -> MVal:
    """The ``gc`` value with one distribution per atom."""
    dists = [_norm_ca(m) for m in per_atom]
    if len(dists) != len(cfg.atoms):
        raise ValueError("one distribution per atom required")
    return MVal(cfg, _partition((d, 1 << i) for i, d in enumerate(dists) if d))


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
    return MVal(cfg, frozenset())


def eta(cfg: TheoryConfig, x: Element) -> MVal:
    """The unit value at a single element."""
    if cfg.kind == "sl":
        return MVal(cfg, frozenset((x,)))
    if cfg.kind == "ga":
        return MVal(cfg, frozenset(((x, cfg.full),)))
    if cfg.kind == "ca":
        return MVal(cfg, frozenset(((x, _ONE),)))
    if cfg.kind == "gc":
        return MVal(cfg, frozenset(((frozenset(((x, _ONE),)), cfg.full),)))
    return MVal(cfg, frozenset(((x, cfg.semiring.one),)))


def supp(m: MVal) -> frozenset:
    """The essential elements of a value."""
    kind = m.cfg.kind
    if kind == "sl":
        return frozenset(m.data)
    if kind == "gc":
        return frozenset(e for dist, _ in m.data for e, _ in dist)
    return frozenset(e for e, _ in m.data)


def mval_map(f: Callable[[Element], Element], m: MVal) -> MVal:
    """Relabel elements through f, re-normalizing merged elements and
    joining the masks of branches that become equal."""
    cfg = m.cfg
    kind = cfg.kind
    if kind == "sl":
        return MVal(cfg, frozenset(map(f, m.data)))
    if kind == "ga":
        return MVal(cfg, _partition((f(e), mask) for e, mask in m.data))
    if kind == "ca":
        return MVal(cfg, _merge(m.data, f))
    if kind == "gc":
        return MVal(cfg, _partition((_merge(dist, f), mask) for dist, mask in m.data))
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
      ca    (labels, targets, weights, weight keys, whether the labels are
            distinct: then no two pairs can meet)
      smod  as ca; zero weights are left out
      ga    as ca, with each pair's atom mask as its weight and its key
      gc    as ca, with each label tagged with its branch's mask: the
            entries of one tag are that branch's distribution

    A guarded row has one entry per pair of each distinct branch, however
    many atoms take the branch.  Rows are plain tuples: `row_signer` signs
    them, `relabel_row` maps their targets, `row_value` and `row_support`
    read them back.
    """
    kind = cfg.kind
    if kind == "sl":
        return [pair_row([(a, key(t)) for a, t in m.data]) for m in values]
    if kind == "ga":
        return [_mask_row([(a, key(t), mask) for (a, t), mask in m.data]) for m in values]
    if kind == "ca":
        return [_weighted_row([(a, key(t), w) for (a, t), w in m.data]) for m in values]
    if kind == "gc":
        return [_weighted_row([((mask, a), key(t), w) for dist, mask in m.data
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


def mask_row(labels, targets, masks) -> tuple:
    """The ``ga`` row of parallel labels, targets and disjoint nonzero atom
    masks; a mask is its own key."""
    labels, masks = tuple(labels), tuple(masks)
    return labels, tuple(targets), masks, masks, len(set(labels)) == len(labels)


def _weighted_row(entries) -> tuple:
    if not entries:
        return (), (), (), (), True
    return weighted_row(*zip(*entries))


def _mask_row(entries) -> tuple:
    if not entries:
        return (), (), (), (), True
    return mask_row(*zip(*entries))


def row_support(cfg: TheoryConfig, row) -> set:
    """The (label, target) pairs of a row's support."""
    if cfg.kind == "gc":
        return {(a, t) for (_, a), t in zip(row[0], row[1])}
    return set(zip(row[0], row[1]))


def row_value(cfg: TheoryConfig, row, targets) -> MVal:
    """The value a row stands for, with each target ``t`` read as
    ``targets[t]``."""
    kind = cfg.kind
    pairs = zip(row[0], map(targets.__getitem__, row[1]))
    if kind == "sl":
        return MVal(cfg, frozenset(pairs))
    if kind != "gc":
        return MVal(cfg, frozenset(zip(pairs, row[2])))
    dists: dict = {}
    for ((mask, a), t), w in zip(pairs, row[2]):
        dists.setdefault(mask, []).append(((a, t), w))
    return MVal(cfg, frozenset((frozenset(d), mask) for mask, d in dists.items()))


def row_signer(cfg: TheoryConfig) -> Callable:
    """``sign(row, labels)``: a hashable signature of a row with each
    target ``t`` relabelled to ``labels[t]``.  Two signatures are equal
    exactly when the values relabelled by `mval_map` are.  Signatures are
    plain frozensets; weights appear as their `weight_key`s, and the
    weights of pairs that meet are added with the theory's addition, keyed
    again, and dropped when they sum to zero, as `mval_map` does.
    Guarded rows sign one pair per distinct branch entry with its atom
    mask, and join the masks of entries that meet: ``ga`` signs
    ((label, target label), mask), ``gc`` ((label, target label, weight
    key), mask) (see `_sign_guarded`).
    """
    kind = cfg.kind
    if kind == "sl":
        return _sign_set
    if kind == "ga":
        return _sign_masks
    if kind == "ca":
        return _sign_weighted
    if kind == "gc":
        return _sign_guarded
    sr = cfg.semiring
    add, zero = sr.add, sr.zero

    def sign(row, labels):
        return _sign_weighted(row, labels, add, zero)

    return sign


def _sign_set(row, labels) -> frozenset:
    acts, keys = row
    return frozenset(zip(acts, map(labels.__getitem__, keys)))


def _sign_weighted(row, labels, add=operator.add, zero=None) -> frozenset:
    """A frozenset of (label, target label, weight key) triples."""
    acts, keys, weights, wkeys, distinct = row
    tlabels = list(map(labels.__getitem__, keys))
    if distinct or len(set(zip(acts, tlabels))) == len(acts):
        return frozenset(zip(acts, tlabels, wkeys))
    merged = _merge(zip(zip(acts, tlabels), weights), add=add, zero=zero)
    return frozenset((a, b, weight_key(w)) for (a, b), w in merged)


def _sign_masks(row, labels) -> frozenset:
    """A frozenset of ((label, target label), mask) pairs of a ``ga`` row;
    pairs that meet join their masks."""
    acts, keys, masks, _, distinct = row
    pairs = list(zip(acts, map(labels.__getitem__, keys)))
    if distinct:
        return frozenset(zip(pairs, masks))
    return frozenset(_joined(pairs, masks).items())


def _joined(pairs: list, masks: tuple) -> dict:
    """The union of the masks of each pair."""
    joined = dict(zip(pairs, masks))
    if len(joined) < len(pairs):  # some pairs meet; a union may take a mask twice
        for p, m in zip(pairs, masks):
            joined[p] |= m
    return joined


def _sign_guarded(row, labels) -> frozenset:
    """A frozenset of ((label, target label, weight key), mask) pairs, one
    per (label, target label, weight) of the relabelled ``gc`` value, with
    the union of the masks of the branches it occurs in.  This names the
    value, and branches that become equal need no matching up."""
    tags, keys, weights, wkeys, distinct = row
    tlabels = list(map(labels.__getitem__, keys))
    entries = _kept_entries(tags, tlabels, wkeys, distinct)
    if entries is not None:
        return frozenset(_joined(entries, tuple(map(_first, tags))).items())
    joined: dict = {}
    for mask, dist in _branch_dists(tags, tlabels, weights).items():
        for (a, b), w in dist.items():
            k = (a, b, weight_key(w))
            joined[k] = joined[k] | mask if k in joined else mask
    return frozenset(joined.items())


_first, _second = operator.itemgetter(0), operator.itemgetter(1)


def _kept_entries(tags, targets, wkeys, distinct) -> list | None:
    """The (label, target, weight key) of each entry of a ``gc`` row whose
    targets are relabelled as ``targets``, or None when two entries of a
    branch meet, so that weights change."""
    if distinct or len(set(zip(tags, targets))) == len(tags):
        return list(zip(map(_second, tags), targets, wkeys))
    return None


def _branch_dists(tags, targets, weights) -> dict:
    """The distribution of each branch of a ``gc`` row, by its mask, as a
    dict from (label, target) to mass, adding the masses of pairs that
    meet."""
    dists: dict = {}
    for (mask, a), t, w in zip(tags, targets, weights):
        dist = dists.setdefault(mask, {})
        k = (a, t)
        dist[k] = dist[k] + w if k in dist else w
    return dists


def relabel_row(cfg: TheoryConfig, row, labels) -> tuple:
    """The row of the value relabelled through ``labels`` (target ``t`` to
    ``labels[t]``), merging pairs that meet and joining branches that
    become equal, as `mval_map` does.  Entries keep their order."""
    kind = cfg.kind
    if kind == "sl":
        return pair_row(_sign_set(row, labels))
    targets = tuple(map(labels.__getitem__, row[1]))
    acts, _, weights, wkeys, distinct = row
    n = len(acts)
    if kind == "gc":
        entries = _kept_entries(acts, targets, wkeys, distinct)
        if entries is not None and len(set(entries)) == n:  # no two branches become equal
            return acts, targets, weights, wkeys, distinct
        branches: dict = {}
        for mask, dist in _branch_dists(acts, targets, weights).items():
            k = frozenset((a, b, weight_key(w)) for (a, b), w in dist.items())
            if k in branches:
                branches[k][0] |= mask
            else:
                branches[k] = [mask, dist]
        return _weighted_row([((mask, a), b, w) for mask, dist in branches.values()
                              for (a, b), w in dist.items()])
    if distinct or len(set(zip(acts, targets))) == n:
        return acts, targets, weights, wkeys, distinct
    if kind == "ga":
        joined = _joined(list(zip(acts, targets)), weights)
        return mask_row([a for a, _ in joined], [b for _, b in joined], joined.values())
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
        return MVal(cfg, _guarded(sym.mask, cfg.full, vals[0].data, vals[1].data))
    if isinstance(sym, ChoiceSym):
        p = sym.prob
        if cfg.kind == "ca":
            return MVal(cfg, _convex(p, vals[0].data, vals[1].data))
        return MVal(cfg, _convex_guarded(p, cfg.full, vals[0].data, vals[1].data))
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


def _guarded(sat: int, full: int, left: frozenset, right: frozenset) -> frozenset:
    """The partition that takes ``left``'s branches at the atoms of
    ``sat`` and ``right``'s at the others."""
    if sat == full:
        return left
    if not sat:
        return right
    off = full ^ sat
    return _partition([(x, m & sat) for x, m in left if m & sat]
                      + [(x, m & off) for x, m in right if m & off])


def _convex_guarded(p: Fraction, full: int, left: frozenset, right: frozenset) -> frozenset:
    """`_convex` atom by atom on two ``gc`` partitions: each pair of
    branches meets on the atoms of both masks, and an atom that one side
    leaves out takes that side's empty distribution."""
    if p == 1:
        return left
    if p == 0:
        return right
    pairs = [(_convex(p, a, b), m) for a, ma in _with_empty(left, full)
             for b, mb in _with_empty(right, full) if (m := ma & mb)]
    return _partition([(d, m) for d, m in pairs if d])


def _with_empty(dists: frozenset, full: int) -> list:
    """A ``gc`` partition's pairs, with the empty distribution on the atoms
    that no mask covers."""
    rest = full
    for _, m in dists:
        rest ^= m
    return [*dists, (frozenset(), rest)] if rest else list(dists)


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
        return _decision_tree(cfg, [(SVar(e), m) for e, m in data])
    if kind == "gc":
        return _decision_tree(cfg, [(_ca_chain(d), m) for d, m in data])
    return _chain(cfg, data)


def _ordered(cfg: TheoryConfig, data):
    """A value's data in the form `reify` and `split` build terms from: a
    sorted list of elements (``sl``) or of (element, weight) pairs (``ca``,
    ``smod``); for ``ga`` the (element, mask) pairs, and for ``gc`` the
    (sorted tuple of (element, mass) pairs, mask) pairs, in any order."""
    kind = cfg.kind
    if kind == "sl":
        return _sorted_elements(data)
    if kind == "ga":
        return list(data)
    if kind == "gc":
        return [(tuple(_sorted_entries(d)), m) for d, m in data]
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


def _decision_tree(cfg: TheoryConfig, leaves) -> STerm:
    """The reduced ordered decision tree over the declared tests whose leaf
    at each atom is the term of the (term, mask) pair whose mask holds the
    atom, or 0 where none does.

    Atoms are bitstrings in test order, so an atom range whose first tests
    are decided splits on the next test into the half where it fails and
    the half where it holds.  A node ``on +[t] off`` tests one test; a test
    whose two halves give the same term is skipped, so no node has equal
    branches and each path tests each test at most once, in declared order.
    Built top down from the masks: a range taken by one term is that leaf,
    so the work follows the tree, not the atoms.  Equal leaves and equal
    subtrees are one object, which makes the skip check an identity test
    and the result a DAG: a subtree is keyed by its depth and its leaves'
    masks shifted to the start of its range.
    """
    parts: dict = {}
    rest = cfg.full
    for t, m in leaves:
        parts[t] = parts.get(t, 0) | m
        rest ^= m
    if rest:
        parts[SZERO] = parts.get(SZERO, 0) | rest
    if len(parts) == 1:
        return next(iter(parts))
    tests, guards, n = _test_masks(cfg), _test_guards(cfg), len(cfg.tests)
    memo: dict = {}

    def build(d: int, items: list) -> STerm:
        if len(items) == 1:
            return items[0][0]
        low = items[0][1]
        start = ((low & -low).bit_length() - 1) >> (n - d) << (n - d)
        key = (d, frozenset((id(t), m >> start) for t, m in items))
        node = memo.get(key)
        if node is None:
            on_mask = tests[d]
            on = build(d + 1, [(t, m & on_mask) for t, m in items if m & on_mask])
            off = build(d + 1, [(t, m & ~on_mask) for t, m in items if m & ~on_mask])
            node = memo[key] = off if on is off else SOp(guards[d], (on, off))
        return node

    return build(0, list(parts.items()))


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
    ``ga`` and ``gc`` all three are reduced decision trees over the tests,
    built from one split per branch: s takes each branch's s (``u``, ``v``
    or ``0`` for ``ga``) at its atoms, t1 and t2 its parts.
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
        return [(elem(a, t), m) for a, t, m in zip(row[0], row[1], row[2])]
    if kind == "gc":
        dists: dict = {}
        for (m, a), t, w in zip(row[0], row[1], row[2]):
            dists.setdefault(m, []).append((a, order[t], t, w))
        data = []
        for m, dist in dists.items():
            dist.sort()  # (label, order) is unique within a branch
            data.append((tuple((elem(a, t), w) for a, _, t, w in dist), m))
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
        sides = [(e, m, is_left(e)) for e, m in data]
        return (_decision_tree(cfg, [(U_VAR if side else V_VAR, m) for _, m, side in sides]),
                _decision_tree(cfg, [(SVar(e), m) for e, m, side in sides if side]),
                _decision_tree(cfg, [(SVar(e), m) for e, m, side in sides if not side]))
    if kind == "ca":
        return _split_dist(data, is_left)
    if kind == "gc":
        parts = [(_split_dist(d, is_left), m) for d, m in data]
        return tuple(_decision_tree(cfg, [(p[k], m) for p, m in parts]) for k in range(3))
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
