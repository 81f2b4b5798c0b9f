"""Branching theories and their free-algebra values.

A branching theory fixes the signature that glues process branches together:
nondeterministic choice (``sl``), boolean-guarded choice over a finite test
set (``ga``), convex/probabilistic choice (``ca``), the guarded-convex mix of
the two (``gc``), or weighted sums over a semiring (``smod``).  Terms over a
signature evaluate into canonical normal-form values (`MVal`); two terms are
equal in the theory exactly when their normal forms coincide, which is what
every equivalence check in this package ultimately bottoms out in.

Each kind is described by one `Theory` object per config: its signature,
value operations, row layout and signing, document codec and samplers.
``ga`` and ``gc`` are one `Guarded` theory over a branch theory.

All arithmetic is exact: probabilities and rational weights are
`fractions.Fraction`, never floats.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd

from .errors import (
    DocumentError, LimitExceededError, TheoryMismatchError, UnboundVariableError,
)

Element = object  # any hashable value; systems use (action, target) pairs

KINDS = ("sl", "ga", "ca", "gc", "smod")

_IDENT = re.compile(r"[a-z][a-z0-9_]*\Z")


# ---------------------------------------------------------------------------
# immutable value records


_set = object.__setattr__


class Record:
    """Base of the package's immutable values.  ``_fields`` names the
    attributes that `repr` shows, as ``Name(field=value, ...)``, and that
    the default `==` and `hash` compare; a subclass on a hot path defines
    its own.  Assignment raises AttributeError, so a value can be shared
    freely."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore the slots here, as assignment is refused
        for name, value in state[1].items():
            _set(self, name, value)


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


class TheoryConfig(Record):
    """A branching theory instance: kind plus its parameters.

    ``tests`` is the ordered test set for ``ga``/``gc``; atoms are all
    2^len(tests) truth assignments, encoded as bitstrings in test order
    ("10" means the first test holds and the second fails), enumerated in
    binary counting order.  A set of atoms is an int mask whose bit i stands
    for atom i; ``full`` is the mask of every atom.  A guarded value holds
    one (branch, mask) pair per distinct branch, so its size does not grow
    with the atoms; but documents, exports and per-atom constructors list
    every atom, so at most ``MAX_TESTS`` tests are accepted (4096 atoms).
    ``true`` and ``false`` name the guard constants, so no test takes them.
    Configs are equal when kind, tests and semiring are; ``theory``, the
    `Theory` of the kind, takes no part in equality.
    """

    __slots__ = ("kind", "tests", "semiring", "atoms", "full", "theory", "_hash")
    _fields = ("kind", "tests", "semiring", "atoms")

    MAX_TESTS = 12

    def __init__(self, kind: str, tests: tuple[str, ...] = (),
                 semiring: Semiring | None = None):
        if kind not in KINDS:
            raise ValueError(f"unknown theory kind: {kind!r}")
        if kind in ("ga", "gc"):
            if len(set(tests)) != len(tests):
                raise ValueError("duplicate test names")
            for t in tests:
                if not _IDENT.match(t):
                    raise ValueError(f"bad test name: {t!r}")
                if t in ("true", "false"):
                    raise ValueError(f"test name {t!r} is reserved for the guard constant")
            n = len(tests)
            if n > self.MAX_TESTS:
                raise LimitExceededError(
                    f"{n} tests exceed the limit of {self.MAX_TESTS} "
                    f"({2 ** self.MAX_TESTS} atoms)")
            atoms = tuple(format(i, f"0{n}b") if n else "" for i in range(2 ** n))
        else:
            if tests:
                raise ValueError(f"theory {kind} takes no tests")
            atoms = ()
        if kind == "smod":
            if semiring is None:
                raise ValueError("smod requires a semiring")
        elif semiring is not None:
            raise ValueError(f"theory {kind} takes no semiring")
        _set(self, "kind", kind)
        _set(self, "tests", tests)
        _set(self, "semiring", semiring)
        _set(self, "atoms", atoms)
        _set(self, "full", (1 << len(atoms)) - 1)
        # every value hashes its config, so the hash is computed once
        _set(self, "_hash", hash((kind, tests, semiring)))
        _set(self, "theory", _THEORIES[kind](self))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.kind, self.tests, self.semiring) == \
                (other.kind, other.tests, other.semiring)
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt, not restored: the cached hash depends on the hash seed
        return TheoryConfig, (self.kind, self.tests, self.semiring)

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
        return TheoryConfig(head, tests=tuple(names.split(",")) if names else ())
    if head == "smod":
        if rest not in SEMIRINGS:
            raise ValueError(f"unknown semiring {rest!r} (have {sorted(SEMIRINGS)})")
        return TheoryConfig("smod", semiring=SEMIRINGS[rest])
    raise ValueError(f"unknown theory selector: {text!r}")


# ---------------------------------------------------------------------------
# operator symbols and terms


class _Constant(Record):
    """A value with no fields: every instance of a class is equal."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return True
        return NotImplemented

    def __hash__(self):
        return hash(())


class ZeroSym(_Constant):
    __slots__ = ()
    arity = 0

    def text(self):
        return "0"


class PlusSym(_Constant):
    __slots__ = ()
    arity = 2

    def text(self):
        return "+"


def mask_atoms(mask: int) -> list[int]:
    """The indices of the atoms in a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class GuardSym:
    """Guarded choice +_b.  ``guard`` is b's text, with minimal parentheses,
    and ``mask`` holds the atoms at which b holds (`Guarded` builds both);
    two guard symbols are equal when their masks are, regardless of how the
    guard was written.  The sort key is computed on first use; it is the
    same every time, so sharing one symbol between threads is safe."""

    __slots__ = ("guard", "mask", "_key", "_hash")
    arity = 2

    def __init__(self, guard: str, mask: int):
        self.guard = guard
        self.mask = mask
        self._key = None
        self._hash = hash(("guard", mask))

    def text(self):
        return f"+[{self.guard}]"

    def sort_key(self) -> tuple[int, ...]:
        """The indices of the guard's atoms, ascending: guards order as the
        sorted tuples of their atoms' bitstrings do."""
        if self._key is None:
            self._key = tuple(mask_atoms(self.mask))
        return self._key

    def __repr__(self):
        return f"GuardSym({self.guard})"

    def __eq__(self, other):
        return isinstance(other, GuardSym) and other.mask == self.mask

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return GuardSym, (self.guard, self.mask)


class ChoiceSym(Record):
    """Convex choice with probability p of taking the left branch."""

    __slots__ = ("prob", "_hash")
    _fields = ("prob",)
    arity = 2

    def __init__(self, prob: Fraction):
        if not (0 <= prob <= 1):
            raise ValueError(f"probability outside [0,1]: {prob}")
        _set(self, "prob", prob)
        # hashing a Fraction takes a modular inverse, so it is done once
        _set(self, "_hash", hash((prob,)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.prob == other.prob
        return NotImplemented

    def __hash__(self):
        return self._hash

    def text(self):
        return f"(+{self.prob})"


class OplusSym(_Constant):
    __slots__ = ()
    arity = 2

    def text(self):
        return "(+)"


class ScaleSym(Record):
    __slots__ = ("weight",)
    _fields = __slots__
    arity = 1

    def __init__(self, weight):
        _set(self, "weight", weight)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.weight == other.weight
        return NotImplemented

    def __hash__(self):
        return hash((self.weight,))


ZERO = ZeroSym()
PLUS = PlusSym()
OPLUS = OplusSym()

OpSym = ZeroSym | PlusSym | GuardSym | ChoiceSym | OplusSym | ScaleSym


class SVar(Record):
    __slots__ = ("name", "_vars")
    _fields = ("name",)

    def __init__(self, name):
        _set(self, "name", name)
        _set(self, "_vars", frozenset((name,)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    def __hash__(self):
        return hash((self.name,))


class SOp(Record):
    __slots__ = ("sym", "args", "_hash", "_vars")
    _fields = ("sym", "args")

    def __init__(self, sym: OpSym, args: tuple[STerm, ...] = ()):
        if len(args) != sym.arity:
            raise ValueError(
                f"operator {sym!r} expects {sym.arity} arguments, got {len(args)}")
        _set(self, "sym", sym)
        _set(self, "args", args)
        # computed once: every `Star` hashes its loop term and checks its
        # variables
        _set(self, "_hash", hash((sym, args)))
        _set(self, "_vars", frozenset().union(*[a._vars for a in args]))

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return other._hash == self._hash and (self.sym, self.args) == (other.sym, other.args)
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return SOp, (self.sym, self.args)


STerm = SVar | SOp

SZERO = SOp(ZERO)


def term_variables(t: STerm) -> frozenset:
    """The names of the variables in t, kept by each term when built."""
    return t._vars


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


def _sorted_entries(pairs):
    """Weighted (element, weight) pairs in the canonical element order.
    Values keep their pairs unordered; only output (reify, split, exports)
    needs an order."""
    return sorted(pairs, key=lambda kv: element_sort_key(kv[0]))


# ---------------------------------------------------------------------------
# normal-form values


class MVal:
    """A normal-form value of the free algebra over some element universe.

    ``data`` is canonical for the config's theory (see each `Theory`
    class).  Two values are equal iff their configs and data coincide; this
    equality is the decision procedure for theory-equality of terms.  The
    data is hash-canonical, not ordered: only `reify`, `split` and the
    document exports sort it.
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

    def __reduce__(self):
        return MVal, (self.cfg, self.data)

    def __repr__(self):
        return f"MVal({self.cfg.kind}, {self.data!r})"


_ONE = Fraction(1)
_EMPTY: frozenset = frozenset()
_first = operator.itemgetter(0)
_second = operator.itemgetter(1)


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


def eta(cfg: TheoryConfig, x: Element) -> MVal:
    """The unit value at a single element."""
    return MVal(cfg, cfg.theory.unit(x))


def supp(m: MVal) -> frozenset:
    """The essential elements of a value."""
    return m.cfg.theory.supp(m.data)


def mval_map(f: Callable[[Element], Element], m: MVal) -> MVal:
    """Relabel elements through f, re-normalizing merged elements and
    joining the masks of branches that become equal."""
    return MVal(m.cfg, m.cfg.theory.map(f, m.data))


def eval_term(cfg: TheoryConfig, term: STerm, env: Mapping[object, MVal]) -> MVal:
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
    return cfg.theory.apply(term.sym, [eval_term(cfg, a, env) for a in term.args])


def reify(m: MVal) -> STerm:
    """A term over supp(m) that evaluates back to m under the identity
    environment.  Deterministic: elements in the canonical order.  Reduced:
    no unit weight ``1 .`` and no choice of full mass against 0.  Guarded
    values (``ga``, ``gc``) become reduced decision trees over the declared
    tests (see `Guarded.tree`)."""
    theory = m.cfg.theory
    return theory.reify_data(theory.ordered(m.data))


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
    theory = m.cfg.theory
    left = frozenset(e for e in theory.supp(m.data) if in_left(e))
    return theory.split_data(theory.ordered(m.data), left.__contains__)


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


def pair_row(pairs) -> tuple[tuple, tuple]:
    """The (labels, targets) row of (label, target) pairs."""
    if not pairs:
        return (), ()
    return tuple(zip(*pairs))


def weighted_row(labels, targets, weights, wkeys) -> tuple:
    """The row of parallel labels, targets, nonzero weights and their
    `weight_key`s."""
    labels = tuple(labels)
    return labels, tuple(targets), tuple(weights), tuple(wkeys), len(set(labels)) == len(labels)


def _weighted_row(entries) -> tuple:
    if not entries:
        return (), (), (), (), True
    labels, targets, weights = zip(*entries)
    return weighted_row(labels, targets, weights, map(weight_key, weights))


def _guarded_columns(labels, targets, weights, wkeys, masks) -> tuple:
    """The row of parallel labels, targets, weights, weight keys and branch
    masks.  Its ``distinct`` is a promise: 2 that no two entries share a
    label, 1 that no two entries of one branch do, 0 none; here 1 or 0."""
    labels = tuple(labels)
    distinct = int(len(set(zip(masks, labels))) == len(labels))
    return labels, tuple(targets), tuple(weights), tuple(wkeys), distinct, tuple(masks)


def _guarded_row(entries) -> tuple:
    """`_guarded_columns` of (label, target, weight, weight key, mask) entries."""
    return _guarded_columns(*zip(*entries)) if entries else ((), (), (), (), 1, ())


def row_support(row) -> set:
    """The (label, target) pairs of a row's support.  Every layout keeps
    labels and targets first."""
    return set(zip(row[0], row[1]))


def _by_mask(masks, entries) -> dict:
    """The entries of a guarded row grouped by their branch's mask."""
    groups: dict = {}
    for m, e in zip(masks, entries):
        groups.setdefault(m, []).append(e)
    return groups


def _branch_dists(masks, labels, targets, weights) -> dict:
    """Each branch's {(label, target): weight}, by mask, adding up the
    weights of pairs that meet."""
    dists: dict = {}
    for mask, a, t, w in zip(masks, labels, targets, weights):
        dist = dists.setdefault(mask, {})
        dist[a, t] = dist[a, t] + w if (a, t) in dist else w
    return dists


def _merged_branches(masks, labels, targets, weights) -> tuple:
    """The guarded row of parallel columns with the weights of pairs that
    meet within a branch added up, and the masks of equal branches joined."""
    branches: dict = {}
    for mask, dist in _branch_dists(masks, labels, targets, weights).items():
        k = frozenset((a, b, weight_key(w)) for (a, b), w in dist.items())
        if k in branches:
            branches[k][0] |= mask
        else:
            branches[k] = [mask, dist]
    return _guarded_row([(a, b, w, weight_key(w), mask) for mask, dist in branches.values()
                         for (a, b), w in dist.items()])


# ---------------------------------------------------------------------------
# terms of ordered data


def _right_nested(sym, terms: list) -> STerm:
    """``t1 sym (t2 sym (...))``, or 0 for no terms."""
    if not terms:
        return SZERO
    t = terms[-1]
    for x in reversed(terms[:-1]):
        t = SOp(sym, (x, t))
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


def _convex_chain(dist) -> tuple[STerm, object]:
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


def _convex(p: Fraction, left: frozenset, right: frozenset) -> frozenset:
    if p == 1:
        return left
    if p == 0:
        return right
    q = 1 - p
    return _merge([(e, p * mass) for e, mass in left]
                  + [(e, q * mass) for e, mass in right])


# ---------------------------------------------------------------------------
# samplers


_PROBS = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4),
          Fraction(3, 4), Fraction(0), Fraction(1), Fraction(2, 5)]


def rand_prob(rng) -> Fraction:
    return rng.choice(_PROBS)


def _rand_dist(rng, universe: list) -> dict:
    if not universe or rng.random() < 0.15:
        return {}
    k = rng.randint(1, min(3, len(universe)))
    chosen = rng.sample(universe, k)
    denom = rng.randint(max(k, 2), 8)
    cuts = sorted(rng.sample(range(1, denom + k), k))
    masses = []
    prev = 0
    for c in cuts:
        masses.append(c - prev)
        prev = c
    # drop the overshoot so the total stays <= denom, keeping masses positive
    total = sum(masses)
    while total > denom:
        i = masses.index(max(masses))
        masses[i] -= 1
        total -= 1
    return {e: Fraction(m, denom) for e, m in zip(chosen, masses) if m > 0}


# ---------------------------------------------------------------------------
# theories


class Theory:
    """Everything the package asks of one branching theory, resolved once
    per `TheoryConfig` as its ``theory``: the other modules read a theory
    only through this object, as in the refinement interface of generic
    partition refinement, where a functor supplies its row layout and
    signing (Deifel, Milius, Schröder & Wißmann, FM 2019; Wißmann et al.,
    LMCS 2020).  A theory provides its signature ``ops`` (operator symbol
    type -> operation on data; 0 is in every signature); the operations
    ``unit``, ``supp``, ``map`` and ``normal`` (data from plain Python data)
    on data; ``ordered`` data and the terms ``reify_data`` and
    ``split_data`` build from it; the row layout ``flat_rows``,
    ``row_value``, ``sign`` (a hashable signature of a row with relabelled
    targets, equal exactly when the relabelled values are), ``relabel_row``
    and ``row_data``; the document codec ``parse_row`` (its ``numbers`` is
    one document's memo, see `_parse_weighted`), ``row_doc`` and
    ``edge_labels``; and the samplers ``rand_binary_sym`` and ``rand_raw``.
    Every row keeps its labels and targets first (see `row_support`).
    """

    def __init__(self, cfg: TheoryConfig):
        self.cfg = cfg

    def apply(self, sym: OpSym, vals: list[MVal]) -> MVal:
        """The operation ``sym`` applied to values in normal form; 0, the
        value of no branches, is in every signature."""
        op = self.ops.get(type(sym))
        if op is None:
            if type(sym) is ZeroSym:
                return MVal(self.cfg, _EMPTY)
            raise TheoryMismatchError(f"operator {sym!r} is not in the {self.cfg.kind} signature")
        return MVal(self.cfg, op(sym, *[v.data for v in vals]))

    def value(self, raw) -> MVal:
        """The value of plain data (see each theory's ``normal``)."""
        return MVal(self.cfg, self.normal(raw))

    def rand_value(self, rng, universe: list) -> MVal:
        return self.value(self.rand_raw(rng, universe))

    def split_row(self, row, order, left) -> tuple[STerm, STerm, STerm]:
        """`split` of the value a row stands for, read from the row itself.

        ``order[t]`` orders row targets as `element_sort_key` orders the
        targets they stand for (for systems: states by id string, then
        tick), and ``left`` holds the support pairs (label, t) that go left.
        The support pairs are the terms' variables: renaming each (label, t)
        to (label, targets[t]), with the targets a system's values use,
        gives the terms of `split` on ``row_value``, built without the value.
        """
        return self.split_data(self.row_data(row, order), left.__contains__)

    def reify_row(self, row, order) -> STerm:
        """`reify` of the value a row stands for, read from the row itself
        as `split_row` reads it, with the support pairs (label, t) as
        variables."""
        return self.reify_data(self.row_data(row, order))


class Nondeterministic(Theory):
    """``sl``: nondeterministic choice ``+``.  Data: a frozenset of elements.
    Rows: (labels, targets).  Documents: a list of [action, target] pairs."""

    ops = {PlusSym: lambda sym, left, right: left | right}
    supp = staticmethod(_identity)
    normal = staticmethod(frozenset)

    def unit(self, x):
        return frozenset((x,))

    def map(self, f, data):
        return frozenset(map(f, data))

    def ordered(self, data) -> list:
        return sorted(data, key=element_sort_key)

    def reify_data(self, data) -> STerm:
        return _right_nested(PLUS, [SVar(e) for e in data])

    def split_data(self, data, is_left):
        return (SOp(PLUS, (U_VAR, V_VAR)), self.reify_data([e for e in data if is_left(e)]),
                self.reify_data([e for e in data if not is_left(e)]))

    def flat_rows(self, values: Iterable[MVal], key: Callable[[object], object]) -> list:
        """One row per value, each target ``t`` as ``key(t)``; systems key
        states by index and the tick by -1."""
        return [pair_row([(a, key(t)) for a, t in m.data]) for m in values]

    def row_value(self, row, targets) -> MVal:
        return MVal(self.cfg, frozenset(zip(row[0], map(targets.__getitem__, row[1]))))

    def sign(self, row, labels) -> frozenset:
        acts, keys = row
        return frozenset(zip(acts, map(labels.__getitem__, keys)))

    def relabel_row(self, row, labels) -> tuple:
        return pair_row(self.sign(row, labels))

    def row_data(self, row, order) -> list:
        return [(a, t) for a, _, t in sorted([(a, order[t], t) for a, t in zip(row[0], row[1])])]

    def parse_row(self, raw, targets: dict[str, int], numbers: tuple[dict, dict]) -> tuple:
        if not isinstance(raw, list):
            raise DocumentError(f"sl value must be a list, got {raw!r}")
        pairs = [_parse_pair(item, targets) for item in raw]
        if len(set(pairs)) != len(pairs):
            raise DocumentError("duplicate transition pair")
        return pair_row(pairs)

    def row_doc(self, row, names):
        return [[a, t] for a, t in sorted(zip(row[0], [names[t] for t in row[1]]), key=_doc_key)]

    def edge_labels(self, row, names) -> dict:
        return {(a, names[t]): a for a, t in zip(row[0], row[1])}

    def rand_binary_sym(self, rng):
        return PLUS

    def rand_raw(self, rng, universe: list) -> list:
        return [e for e in universe if rng.random() < 0.5]


class _Weighted(Theory):
    """What ``ca`` and ``smod`` share.  Data: a frozenset of (element,
    weight) pairs, one per element, no weight zero.  Rows: (labels, targets,
    weights, weight keys, whether the labels are distinct: then no two pairs
    can meet).  Subclasses set ``one``, ``add`` and ``zero`` (None: weights
    never cancel)."""

    def unit(self, x):
        return frozenset(((x, self.one),))

    def supp(self, data) -> frozenset:
        return frozenset(map(_first, data))

    def map(self, f, data):
        return _merge(data, f, self.add, self.zero)

    def ordered(self, data) -> list:
        return _sorted_entries(data)

    def flat_rows(self, values: Iterable[MVal], key: Callable[[object], object]) -> list:
        return [_weighted_row([(a, key(t), w) for (a, t), w in m.data]) for m in values]

    def row_value(self, row, targets) -> MVal:
        pairs = zip(row[0], map(targets.__getitem__, row[1]))
        return MVal(self.cfg, frozenset(zip(pairs, row[2])))

    def sign(self, row, labels) -> frozenset:
        """A frozenset of (label, target label, weight key) triples; the
        weights of pairs that meet are added, keyed again, and dropped when
        they sum to zero, as ``map`` does."""
        acts, keys, weights, wkeys, distinct = row
        tlabels = list(map(labels.__getitem__, keys))
        if distinct or len(set(zip(acts, tlabels))) == len(acts):
            return frozenset(zip(acts, tlabels, wkeys))
        merged = _merge(zip(zip(acts, tlabels), weights), add=self.add, zero=self.zero)
        return frozenset((a, b, weight_key(w)) for (a, b), w in merged)

    def relabel_row(self, row, labels) -> tuple:
        """The row of the value relabelled through ``labels``, merging pairs
        that meet; entries keep their order."""
        acts, keys, weights, wkeys, distinct = row
        targets = tuple(map(labels.__getitem__, keys))
        if distinct or len(set(zip(acts, targets))) == len(acts):
            return acts, targets, weights, wkeys, distinct
        return _weighted_row([(a, b, w) for (a, b), w in _merged(
            zip(zip(acts, targets), weights), add=self.add, zero=self.zero)])

    def row_data(self, row, order) -> list:
        entries = zip(row[0], map(order.__getitem__, row[1]), row[1], row[2])
        return self.ordered_entries(list(entries))

    def ordered_entries(self, entries: list) -> list:
        """Ordered ((label, t), weight) pairs of (label, order[t], t, weight)
        entries; (label, order) is unique."""
        entries.sort()
        return [((a, t), w) for a, _, t, w in entries]


class Convex(_Weighted):
    """``ca``: convex (probabilistic) choice ``(+p)``.  Data: a frozenset of
    (element, mass) pairs, mass > 0 and total <= 1.  Documents: a list of
    {"p", "a", "t"} entries.  As the branch theory of ``gc`` (see
    `Guarded`), a branch is such a distribution, and the empty one is dead.
    """

    one, add, zero = _ONE, operator.add, None
    ops = {ChoiceSym: lambda sym, left, right: _convex(sym.prob, left, right)}
    normal = staticmethod(_norm_ca)
    reify_data = staticmethod(_ca_chain)
    split_data = staticmethod(_split_dist)
    rand_raw = staticmethod(_rand_dist)

    def parse_row(self, raw, targets: dict[str, int], numbers: tuple[dict, dict]) -> tuple:
        return weighted_row(*_parse_dist(raw, targets, numbers))

    def row_doc(self, row, names):
        return _dist_doc(zip(row[0], [names[t] for t in row[1]], row[2]))

    def edge_labels(self, row, names) -> dict:
        return {(a, names[t]): f"{a} {mass}" for a, t, mass in zip(row[0], row[1], row[2])}

    def rand_binary_sym(self, rng):
        return ChoiceSym(rand_prob(rng))

    # -- as a branch theory: rows and documents by branch, as `Guarded` asks

    dead, weighted = _EMPTY, True
    branch = staticmethod(frozenset)  # of its ((label, target), weight) pairs
    dead_doc = staticmethod(list)

    def elements(self, branches):
        return (e for d in branches for e, _ in d)

    def flat_row(self, data, key) -> tuple:
        return _guarded_row([(a, key(t), w, weight_key(w), m)
                             for d, m in data for (a, t), w in d])

    def parse_branches(self, raws, targets, numbers: tuple[dict, dict]) -> tuple[list, list]:
        """Per atom, its distribution's key (None if empty) and columns."""
        keys, dists = [], []
        for raw in raws:
            acts, tgts, _, wkeys = dist = _parse_dist(raw, targets, numbers)
            keys.append(frozenset(zip(acts, tgts, wkeys)) if acts else None)
            dists.append(dist)
        return keys, dists

    def parsed_row(self, masks: dict, keys: list, dists: list) -> tuple:
        dist = dict(zip(keys, dists))
        acts, tgts, masses, wkeys, ms = [], [], [], [], []
        for key, m in masks.items():
            a, t, w, k = dist[key]
            acts += a
            tgts += t
            masses += w
            wkeys += k
            ms += [m] * len(a)
        return _guarded_columns(acts, tgts, masses, wkeys, ms)

    def branch_docs(self, row, names) -> list:
        entries = zip(row[0], [names[t] for t in row[1]], row[2])
        return [(_dist_doc(d), m) for m, d in _by_mask(row[5], entries).items()]


class Semimodule(_Weighted):
    """``smod``: weighted sums ``(+)`` and scaling ``w .`` over a semiring.
    Data: a frozenset of (element, weight) pairs with weight != 0.
    Documents: a list of {"w", "a", "t"} entries."""

    def __init__(self, cfg):
        super().__init__(cfg)
        sr = self.semiring = cfg.semiring
        self.one, self.add, self.zero = sr.one, sr.add, sr.zero
        self.ops = {ScaleSym: self._scale, OplusSym: lambda sym, left, right:
                    _merge([*left, *right], add=sr.add, zero=sr.zero)}

    def _scale(self, sym, data):
        w, sr = sym.weight, self.semiring
        if not sr.contains(w):
            raise TheoryMismatchError(f"{w!r} is not a {sr.name} weight")
        scaled = ((e, sr.mul(w, x)) for e, x in data)
        return frozenset(kv for kv in scaled if kv[1] != sr.zero)

    def normal(self, mapping: Mapping[Element, object]) -> frozenset:
        sr = self.semiring
        for w in mapping.values():
            if not sr.contains(w):
                raise ValueError(f"{w!r} is not a {sr.name} weight")
        return frozenset(kv for kv in mapping.items() if kv[1] != sr.zero)

    def reify_data(self, data) -> STerm:
        """A right-nested sum of scaled variables; a variable of the unit
        weight stays unscaled."""
        one = self.one
        return _right_nested(OPLUS, [SVar(e) if w == one else SOp(ScaleSym(w), (SVar(e),))
                                     for e, w in data])

    def split_data(self, data, is_left):
        return (SOp(OPLUS, (U_VAR, V_VAR)), self.reify_data([kv for kv in data if is_left(kv[0])]),
                self.reify_data([kv for kv in data if not is_left(kv[0])]))

    def parse_row(self, raw, targets: dict[str, int], numbers: tuple[dict, dict]) -> tuple:
        return weighted_row(*_parse_weighted(raw, targets, numbers, "w",
                                             self.semiring.parse_weight, "weight"))

    def row_doc(self, row, names):
        fmt = self.semiring.format
        return [{"w": fmt(w), "a": a, "t": t}
                for a, t, w in sorted(zip(row[0], [names[t] for t in row[1]], row[2]),
                                      key=_doc_key)]

    def edge_labels(self, row, names) -> dict:
        fmt = self.semiring.format
        return {(a, names[t]): f"{a} w={fmt(w)}" for a, t, w in zip(row[0], row[1], row[2])}

    def rand_binary_sym(self, rng):
        return OPLUS

    def rand_raw(self, rng, universe: list) -> dict:
        sr = self.semiring
        weights = {}
        for e in universe:
            if rng.random() < 0.4:
                w = sr.sample(rng)
                if w != sr.zero:
                    weights[e] = w
        return weights


class Option:
    """The branch theory of ``ga`` (see `Guarded`): a branch is one element,
    without a weight (None in rows), and None is the dead branch.  It has
    no operators of its own.  Documents: [action, target], or null."""

    dead, weighted = None, False
    ops: dict = {}
    rand_binary_sym = None
    unit = normal = ordered = elements = staticmethod(_identity)
    reify_data = staticmethod(SVar)

    def map(self, f, x):
        return f(x)

    def split_data(self, x, is_left):
        return (U_VAR, SVar(x), SZERO) if is_left(x) else (V_VAR, SZERO, SVar(x))

    def _row(self, acts: tuple, targets: tuple, masks: tuple) -> tuple:
        """One entry per branch, so no two entries of a branch share a label."""
        nones = (None,) * len(acts)
        return acts, targets, nones, nones, 2 if len(set(acts)) == len(acts) else 1, masks

    def flat_row(self, data, key) -> tuple:
        entries = [(a, key(t), m) for (a, t), m in data]
        return self._row(*(zip(*entries) if entries else ((), (), ())))

    def branch(self, pairs: list):
        ((x, _),) = pairs
        return x

    def ordered_entries(self, entries: list):
        ((a, _, t, _),) = entries
        return a, t

    def parse_branches(self, raws, targets, numbers: tuple[dict, dict]) -> tuple[list, None]:
        return [None if raw is None else _parse_pair(raw, targets) for raw in raws], None

    def parsed_row(self, masks: dict, keys, dists) -> tuple:
        return self._row(tuple([a for a, _ in masks]), tuple([t for _, t in masks]),
                         tuple(masks.values()))

    def branch_docs(self, row, names) -> list:
        return [([a, names[t]], m) for a, t, m in zip(row[0], row[1], row[5])]

    def dead_doc(self):
        return None

    def rand_raw(self, rng, universe: list):
        return rng.choice(universe) if universe and rng.random() < 0.7 else None


def _guard_text(g: tuple, level: int) -> str:
    """A guard's text where its context needs ``level``: in parentheses
    if it binds more loosely."""
    return g[0] if g[1] >= level else f"({g[0]})"


class Guarded(Theory):
    """guarded(X): boolean-guarded choice ``+[b]`` over the declared tests,
    on top of a branch theory X whose operators it applies atom by atom.
    ``ga`` is guarded(`Option`), ``gc`` is guarded(`Convex`).

    A value takes one branch of X at each atom.  Data: a frozenset of
    (branch, mask) pairs, one per distinct live branch, with the mask of the
    atoms that take it; masks are nonzero and disjoint, and atoms of no mask
    take X's dead branch.  So a value's size follows its branches, not the
    atoms.  Rows: (labels, targets, weights, weight keys, distinct, masks),
    each entry of each branch with that branch's mask (``distinct`` as in
    `_guarded_columns`).  Documents map every atom to its branch's document.

    This class owns the mask logic: guards, the pairwise meet of branches,
    joining the masks of branches that become equal, the decision tree, and
    the expansion into atoms.  X supplies the part within one branch.
    """

    def __init__(self, cfg, inner):
        super().__init__(cfg)
        self.inner, self.weighted = inner, inner.weighted
        self.ops = {t: self._pointwise(op) for t, op in inner.ops.items()}  # atom by atom
        self.ops[GuardSym] = self._guard
        # A guard is built as its parts: (its text with minimal parentheses,
        # its precedence level, its mask), with levels 1 for '|', 2 for '&'
        # and 3 for a test, a constant or a '!'.  These are the parts of
        # ``true``, ``false`` and each test, by name, made here so that
        # reading one costs no frames
        self.guard_atoms = {"true": ("true", 3, cfg.full), "false": ("false", 3, 0),
                            **{t: (t, 3, m) for t, m in zip(cfg.tests, self.test_masks)}}

    def guard_not(self, g: tuple, times: int = 1) -> tuple:
        """``times`` '!' before a guard."""
        mask = g[2] ^ self.cfg.full if times & 1 else g[2]
        return "!" * times + _guard_text(g, 3), 3, mask

    def guard_join(self, op: str, parts: list) -> tuple:
        """``&`` or ``|`` over two or more guards, grouped to the left."""
        level = 2 if op == "&" else 1
        mask = reduce(operator.and_ if level == 2 else operator.or_, [g[2] for g in parts])
        text = f" {op} ".join([_guard_text(parts[0], level)]
                              + [_guard_text(g, level + 1) for g in parts[1:]])
        return text, level, mask

    def guard_sym(self, g: tuple) -> GuardSym:
        return GuardSym(g[0], g[2])

    @cached_property
    def test_masks(self) -> tuple[int, ...]:
        """The mask of the atoms at which each test holds.  Test j is bit
        n-1-j of an atom's index, so its atoms repeat with period 2h, where
        h = 2^(n-1-j): h atoms where it fails, then h where it holds."""
        n, full = len(self.cfg.tests), self.cfg.full
        out = []
        for j in range(n):
            half = 1 << (n - 1 - j)
            out.append((((1 << half) - 1) << half) * (full // ((1 << 2 * half) - 1)))
        return tuple(out)

    @cached_property
    def atom_index(self) -> tuple[frozenset, list[int]]:
        """The atoms as a set, and each atom's bit, in atom order."""
        return frozenset(self.cfg.atoms), [1 << i for i in range(len(self.cfg.atoms))]

    @cached_property
    def test_guards(self) -> tuple[GuardSym, ...]:
        """One guard symbol ``+[t]`` per test, shared by every decision tree
        of the theory."""
        return tuple(map(GuardSym, self.cfg.tests, self.test_masks))

    def _guard(self, sym: GuardSym, left, right):
        """The partition that takes ``left``'s branches at the atoms of the
        guard and ``right``'s at the others."""
        sat, full = sym.mask, self.cfg.full
        if sat == full:
            return left
        if not sat:
            return right
        off = full ^ sat
        return _partition([(x, m & sat) for x, m in left if m & sat]
                          + [(x, m & off) for x, m in right if m & off])

    def _pointwise(self, op):
        """A binary operation of the branch theory, atom by atom: each pair
        of branches meets on the atoms of both masks, and an atom that one
        side leaves out takes that side's dead branch."""
        dead, full = self.inner.dead, self.cfg.full

        def with_dead(data) -> list:
            rest = full
            for _, m in data:
                rest ^= m
            return [*data, (dead, rest)] if rest else list(data)

        def apply(sym, left, right):
            pairs = [(op(sym, a, b), m) for a, ma in with_dead(left)
                     for b, mb in with_dead(right) if (m := ma & mb)]
            return _partition([(x, m) for x, m in pairs if x != dead])

        return apply

    def unit(self, x):
        return frozenset(((self.inner.unit(x), self.cfg.full),))

    def supp(self, data) -> frozenset:
        return frozenset(self.inner.elements(map(_first, data)))

    def map(self, f, data):
        inner_map = self.inner.map
        return _partition([(inner_map(f, x), m) for x, m in data])

    def normal(self, per_atom: Iterable) -> frozenset:
        """The data of one plain branch per atom, in atom order: for
        ``ga`` an element or None, for ``gc`` an {element: mass} mapping."""
        branches = [self.inner.normal(x) for x in per_atom]
        if len(branches) != len(self.cfg.atoms):
            raise ValueError("one branch per atom required")
        return _partition((x, 1 << i) for i, x in enumerate(branches) if x != self.inner.dead)

    def ordered(self, data) -> list:
        """(branch, mask) pairs by mask, each branch ordered by X."""
        return sorted([(self.inner.ordered(x), m) for x, m in data], key=_second)

    def reify_data(self, data) -> STerm:
        return self.tree([(self.inner.reify_data(x), m) for x, m in data])

    def split_data(self, data, is_left):
        parts = [(self.inner.split_data(x, is_left), m) for x, m in data]
        return tuple(self.tree([(p[k], m) for p, m in parts]) for k in range(3))

    def tree(self, leaves) -> STerm:
        """The reduced ordered decision tree over the declared tests whose
        leaf at each atom is the term of the (term, mask) pair whose mask
        holds the atom, or 0 where none does.

        Atoms are bitstrings in test order, so an atom range whose first
        tests are decided splits on the next test into the half where it
        fails and the half where it holds.  A node ``on +[t] off`` tests one
        test; a test whose two halves give the same term is skipped, so no
        node has equal branches and each path tests each test at most once,
        in declared order.  Built top down from the masks: a range taken by
        one term is that leaf, so the work follows the tree, not the atoms.
        Equal leaves and equal subtrees are one object, which makes the skip
        check an identity test and the result a DAG: a subtree is keyed by
        its depth and its leaves' masks shifted to the start of its range.
        """
        parts: dict = {}
        rest = self.cfg.full
        for t, m in leaves:
            parts[t] = parts.get(t, 0) | m
            rest ^= m
        if rest:
            parts[SZERO] = parts.get(SZERO, 0) | rest
        if len(parts) == 1:
            return next(iter(parts))
        return self._subtree(0, list(parts.items()), {})

    def _subtree(self, d: int, items: list, memo: dict) -> STerm:
        """`tree`'s node for the atom range whose first d tests are decided,
        over the (term, mask) pairs that hold some of its atoms.  A method,
        not a closure over itself, so a tree's memo is freed by reference
        counting, not left to the cyclic collector."""
        if len(items) == 1:
            return items[0][0]
        low, shift = items[0][1], len(self.cfg.tests) - d
        start = ((low & -low).bit_length() - 1) >> shift << shift
        key = (d, frozenset((id(t), m >> start) for t, m in items))
        node = memo.get(key)
        if node is None:
            on_mask = self.test_masks[d]
            on = self._subtree(d + 1, [(t, m & on_mask) for t, m in items if m & on_mask], memo)
            off = self._subtree(d + 1, [(t, m & ~on_mask) for t, m in items if m & ~on_mask], memo)
            node = memo[key] = off if on is off else SOp(self.test_guards[d], (on, off))
        return node

    def flat_rows(self, values: Iterable[MVal], key: Callable[[object], object]) -> list:
        row = self.inner.flat_row
        return [row(v.data, key) for v in values]

    def row_value(self, row, targets) -> MVal:
        pairs = zip(zip(row[0], map(targets.__getitem__, row[1])), row[2])
        branch = self.inner.branch
        return MVal(self.cfg, frozenset((branch(d), m) for m, d in _by_mask(row[5], pairs).items()))

    def sign(self, row, labels) -> frozenset:
        """A frozenset of (entry, mask) pairs, one per entry (label, target
        label, and weight key if X has weights) of the relabelled value's
        branches, with the union of the masks of the branches it occurs in.
        This names the value, and branches that become equal need no
        matching up."""
        acts, keys, weights, wkeys, distinct, masks = row
        tlabels = list(map(labels.__getitem__, keys))
        entries = zip(acts, tlabels, wkeys) if self.weighted else zip(acts, tlabels)
        if distinct > 1:  # no two entries share a label, so none meet
            return frozenset(zip(entries, masks))
        if distinct or len(set(zip(masks, acts, tlabels))) == len(acts):
            entries = list(entries)
            joined = dict(zip(entries, masks))
            if len(joined) < len(entries):  # some meet; a union may take a mask twice
                for e, m in zip(entries, masks):
                    joined[e] |= m
            return frozenset(joined.items())
        joined: dict = {}  # entries of a branch meet, so X has weights, which add up
        for mask, dist in _branch_dists(masks, acts, tlabels, weights).items():
            for (a, b), w in dist.items():
                k = (a, b, weight_key(w))
                joined[k] = joined.get(k, 0) | mask
        return frozenset(joined.items())

    def relabel_row(self, row, labels) -> tuple:
        """The row of the value relabelled through ``labels``, merging
        pairs that meet within a branch and joining branches that become
        equal; entries keep their order."""
        acts, keys, weights, wkeys, distinct, masks = row
        targets = tuple(map(labels.__getitem__, keys))
        n = len(acts)
        if distinct or len(set(zip(masks, acts, targets))) == n:
            entries = list(zip(acts, targets, wkeys) if self.weighted else zip(acts, targets))
            if len(set(entries)) == n:  # no two branches become equal
                return acts, targets, weights, wkeys, distinct, masks
            if len(set(masks)) == n:  # one entry per branch: equal entries, equal branches
                joined = dict(zip(entries, masks))
                for e, m in zip(entries, masks):
                    joined[e] |= m
                kept = list(map(dict(zip(entries, range(n))).__getitem__, joined))
                columns = (tuple([c[i] for i in kept]) for c in (acts, targets, weights, wkeys))
                return _guarded_columns(*columns, joined.values())
        return _merged_branches(masks, acts, targets, weights)

    def row_data(self, row, order) -> list:
        entries = zip(row[0], map(order.__getitem__, row[1]), row[1], row[2])
        ordered = self.inner.ordered_entries
        return [(ordered(d), m) for m, d in _by_mask(row[5], entries).items()]

    def parse_row(self, raw, targets: dict[str, int], numbers: tuple[dict, dict]) -> tuple:
        """Parse one atom-keyed value, grouping the atoms of each branch."""
        atoms, (atom_set, bits) = self.cfg.atoms, self.atom_index
        if not isinstance(raw, dict) or raw.keys() != atom_set:
            raise DocumentError(f"{self.cfg.kind} value must map every atom of {list(atoms)}")
        keys, branches = self.inner.parse_branches(map(raw.__getitem__, atoms), targets, numbers)
        masks: dict = {}
        for key, bit in zip(keys, bits):
            if key is not None:
                masks[key] = masks.get(key, 0) | bit
        return self.inner.parsed_row(masks, keys, branches)

    def row_doc(self, row, names) -> dict:
        atoms = self.cfg.atoms
        doc = dict.fromkeys(atoms, self.inner.dead_doc())
        for text, mask in self.inner.branch_docs(row, names):
            while mask:  # `mask_atoms`, inline: most masks hold an atom or two
                low = mask & -mask
                doc[atoms[low.bit_length() - 1]] = text
                mask ^= low
        return doc

    def edge_labels(self, row, names) -> dict:
        """A pair's label lists its atoms, each with its weight if any."""
        atoms = self.cfg.atoms
        parts: dict = {}
        for a, t, w, m in zip(row[0], row[1], row[2], row[5]):
            suffix = "" if w is None else f":{w}"
            parts.setdefault((a, names[t]), []).extend(
                (i, atoms[i] + suffix) for i in mask_atoms(m))
        return {(a, t): f"{a} [{','.join(text for _, text in sorted(p))}]"
                for (a, t), p in parts.items()}

    def rand_guard(self, rng, depth: int = 2) -> tuple:
        """A random guard's parts."""
        tests = self.cfg.tests
        roll = rng.random()
        if depth == 0 or roll < 0.5:
            if tests and roll < 0.8:
                return self.guard_atoms[rng.choice(tests)]
            return self.guard_atoms[rng.choice(("true", "false"))]
        left = self.rand_guard(rng, depth - 1)
        right = self.rand_guard(rng, depth - 1)
        op = rng.choice("!&|")
        return self.guard_not(left) if op == "!" else self.guard_join(op, [left, right])

    def rand_binary_sym(self, rng):
        """A guard, or half the time an operator of X if it has one."""
        inner_sym = self.inner.rand_binary_sym
        if inner_sym is None or rng.random() < 0.5:
            return self.guard_sym(self.rand_guard(rng))
        return inner_sym(rng)

    def rand_raw(self, rng, universe: list) -> list:
        return [self.inner.rand_raw(rng, universe) for _ in self.cfg.atoms]


_THEORIES: dict[str, Callable[[TheoryConfig], Theory]] = {
    "sl": Nondeterministic,
    "ga": lambda cfg: Guarded(cfg, Option()),
    "ca": Convex,
    "gc": lambda cfg: Guarded(cfg, Convex(cfg)),
    "smod": Semimodule,
}


# ---------------------------------------------------------------------------
# documents


def _doc_key(entry):
    """The export order of (action, target id, ...) entries: by action,
    then state targets before tick ("✓", never a state id), then by id
    string."""
    return (entry[0], entry[1] == "✓", entry[1])


def _dist_doc(entries):
    return [{"p": str(mass), "a": a, "t": t} for a, t, mass in sorted(entries, key=_doc_key)]


def _dangling(raw) -> DocumentError:
    return DocumentError(f"dangling state reference: {raw!r}")


def _parse_target(raw, targets: dict[str, int]) -> int:
    try:
        return targets[raw]
    except (KeyError, TypeError):
        raise _dangling(raw) from None


def _parse_pair(raw, targets) -> tuple:
    if (not isinstance(raw, (list, tuple)) or len(raw) != 2
            or not isinstance(raw[0], str)):
        raise DocumentError(f"expected [action, target], got {raw!r}")
    return (raw[0], _parse_target(raw[1], targets))


def _parse_number(raw, parse, what: str):
    """Parse a mass or weight; every way it can be malformed ends here.
    Documents write them as strings: a JSON number may already have lost
    digits (0.1 is not 1/10), and a boolean is no number."""
    if not isinstance(raw, str):
        raise DocumentError(f"bad {what} {raw!r}: expected a string")
    try:
        return parse(raw)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise DocumentError(f"bad {what} {raw!r}: {exc}") from None


def _parse_mass(raw) -> Fraction:
    mass = parse_rational(raw)
    if mass._numerator <= 0:  # normalized: the sign is the numerator's
        raise ValueError("masses must be positive")
    return mass


_ENTRY_KEYS = {field: frozenset((field, "a", "t")) for field in ("p", "w")}

# The most number strings one document's memo keeps.  Documents repeat a
# few numbers many times; storing a string costs more than a failed lookup,
# so a document whose numbers do not repeat stops filling the memo here.
_MEMO_SIZE = 1024


def _parse_weighted(raw, targets, numbers: tuple[dict, dict], field: str, parse,
                    what: str) -> tuple[list, list, list, list]:
    """The parallel actions, targets, weights and weight keys of a list of
    weighted entries.

    ``numbers`` is one document's memo: two dicts from each number string
    parsed so far, up to `_MEMO_SIZE` of them, to its weight and to the
    weight's `weight_key`.  A document has one ``parse``.  Only parses that
    succeed are kept, so a bad string raises wherever it appears.  The memo
    is two dicts, not one of (weight, key) pairs: such a pair per distinct
    number would live as long as the document's rows and start the cyclic
    garbage collector more often."""
    if not isinstance(raw, list):
        raise DocumentError(f"expected a list of weighted entries, got {raw!r}")
    keys = _ENTRY_KEYS[field]
    weight_of, key_of = numbers
    acts: list = []
    tgts: list = []
    weights: list = []
    wkeys: list = []
    seen: set = set()
    for item in raw:
        if not isinstance(item, dict) or item.keys() != keys:
            raise DocumentError(f"expected {{'{field}','a','t'}} entry, got {item!r}")
        number = item[field]
        if type(number) is str and number in weight_of:  # a list or dict is unhashable
            w = weight_of[number]
            k = key_of[number]
        else:
            w = _parse_number(number, parse, what)
            k = weight_key(w)
            if len(weight_of) < _MEMO_SIZE:
                weight_of[number] = w
                key_of[number] = k
        action = item["a"]
        if not isinstance(action, str):
            raise DocumentError(f"action must be a string, got {item!r}")
        try:
            target = targets[item["t"]]
        except (KeyError, TypeError):
            raise _dangling(item["t"]) from None
        pair = (action, target)
        if pair in seen:
            raise DocumentError(f"duplicate weighted pair: {item!r}")
        seen.add(pair)
        acts.append(action)
        tgts.append(target)
        weights.append(w)
        wkeys.append(k)
    return acts, tgts, weights, wkeys


def _parse_dist(raw, targets, numbers: tuple[dict, dict]) -> tuple[list, list, list, list]:
    dist = _parse_weighted(raw, targets, numbers, "p", _parse_mass, "probability")
    # the total num/den in integers; a Fraction only for the message
    num, den = 0, 1
    for n, d in dist[3]:  # the masses' keys
        if d == den:
            num += n
        else:
            lcm = den // gcd(den, d) * d
            num, den = num * (lcm // den) + n * (lcm // d), lcm
    if num > den:
        raise DocumentError(f"total mass {Fraction(num, den)} exceeds 1")
    return dist
